package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// RetryPolicy tunes the coordinator's guarded RPC path for request-serving
// calls. Each call gets up to MaxAttempts tries against one node before
// the routing loop moves on to the next replica; only transport-level
// faults (ErrUnreachable, including per-attempt timeouts) are retried — a
// node that answered, even with an error, is never hammered again for the
// same request. Between attempts the coordinator backs off exponentially
// with full jitter: sleep ~ U[0, min(MaxBackoff, BaseBackoff·2^attempt)),
// which decorrelates retry bursts from many concurrent callers.
//
// Per-attempt timeouts are carved from the caller's deadline budget: with
// R remaining and k attempts left, an attempt gets R/k (floored at
// MinAttemptTimeout so a tight deadline still makes real attempts, capped
// at AttemptTimeout so a lost reply cannot pin a generous deadline on one
// dead node). Callers without deadlines get AttemptTimeout per attempt.
type RetryPolicy struct {
	// MaxAttempts per node per request (0: 2 — one retry).
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff (0: 2ms).
	BaseBackoff time.Duration
	// MaxBackoff caps one backoff sleep (0: 50ms).
	MaxBackoff time.Duration
	// AttemptTimeout caps one attempt (0: 2s). Must comfortably exceed a
	// cold optimization of the largest routine query — it exists to detect
	// lost replies, not to police slow work.
	AttemptTimeout time.Duration
	// MinAttemptTimeout floors the carve so the last slice of a nearly
	// spent deadline is still a real attempt (0: 100ms).
	MinAttemptTimeout time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 2
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 2 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 50 * time.Millisecond
	}
	if p.AttemptTimeout <= 0 {
		p.AttemptTimeout = 2 * time.Second
	}
	if p.MinAttemptTimeout <= 0 {
		p.MinAttemptTimeout = 100 * time.Millisecond
	}
	return p
}

// attemptBudget returns the timeout for one attempt (attempt is 0-based),
// carved from ctx's remaining deadline budget.
func (p RetryPolicy) attemptBudget(ctx context.Context, attempt int) time.Duration {
	per := p.AttemptTimeout
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		left := p.MaxAttempts - attempt
		if left < 1 {
			left = 1
		}
		carved := rem / time.Duration(left)
		if carved < p.MinAttemptTimeout {
			carved = p.MinAttemptTimeout
		}
		if carved > rem {
			carved = rem
		}
		if carved < per {
			per = carved
		}
	}
	return per
}

// backoff returns the full-jitter sleep before retry number attempt (1-based).
func (p RetryPolicy) backoff(rng *lockedRand, attempt int) time.Duration {
	ceil := p.BaseBackoff << uint(attempt-1)
	if ceil > p.MaxBackoff || ceil <= 0 {
		ceil = p.MaxBackoff
	}
	return rng.durationN(ceil)
}

// lockedRand is a mutex-guarded seeded RNG shared by backoff jitter.
type lockedRand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newLockedRand(seed int64) *lockedRand {
	return &lockedRand{rng: rand.New(rand.NewSource(seed))}
}

func (r *lockedRand) durationN(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	r.mu.Lock()
	v := time.Duration(r.rng.Int63n(int64(d)))
	r.mu.Unlock()
	return v
}

// ErrBreakerOpen is returned by the guarded call path when a node's
// circuit breaker is open: the node has been failing hard enough that the
// coordinator routes straight to the next replica instead of paying
// another timeout. It is never surfaced to clients — the routing loop
// falls through the breaker when every owner is open.
var ErrBreakerOpen = errors.New("cluster: circuit breaker open")

// BreakerConfig tunes the per-node circuit breaker. The breaker watches
// transport-level failures within a sliding window: Threshold failures
// inside Window open it, open calls skip the node entirely for OpenFor,
// then one half-open probe decides between closing and re-opening. Unlike
// a consecutive-failure counter it also catches lossy links, where
// occasional successes would keep resetting the failure detector forever.
type BreakerConfig struct {
	// Threshold failures within Window open the breaker (0: 5).
	Threshold int
	// Window is the failure-counting window (0: 1s).
	Window time.Duration
	// OpenFor is how long an open breaker skips the node before allowing a
	// half-open probe (0: 250ms).
	OpenFor time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.Window <= 0 {
		c.Window = time.Second
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 250 * time.Millisecond
	}
	return c
}

// BreakerState names a breaker's position; the values are stable (they are
// exported as the mpdp_transport_breaker_state gauge).
type BreakerState int

const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half_open"
	}
	return "closed"
}

// breaker is one node's circuit breaker. All methods are mutex-guarded;
// the hot path is one lock round-trip per guarded call.
type breaker struct {
	mu  sync.Mutex
	cfg BreakerConfig

	state       BreakerState // guarded by mu
	fails       int          // guarded by mu
	windowStart time.Time    // guarded by mu
	openedUntil time.Time    // guarded by mu
	probing     bool         // guarded by mu

	opens uint64 // cumulative closed/half-open → open transitions; guarded by mu
}

func newBreaker(cfg BreakerConfig) *breaker {
	return &breaker{cfg: cfg.withDefaults()}
}

// allow reports whether a call may proceed. In the open state it flips to
// half-open once OpenFor has passed and admits exactly one probe at a
// time.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Before(b.openedUntil) {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// record feeds one guarded-call outcome. ok means the node answered (even
// with an application error); !ok is a transport-level fault.
func (b *breaker) record(ok bool, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.state = BreakerClosed
		b.fails = 0
		b.probing = false
		return
	}
	if b.state == BreakerHalfOpen {
		b.tripLocked(now)
		return
	}
	if b.state == BreakerOpen {
		return
	}
	if now.Sub(b.windowStart) > b.cfg.Window {
		b.windowStart = now
		b.fails = 0
	}
	b.fails++
	if b.fails >= b.cfg.Threshold {
		b.tripLocked(now)
	}
}

// tripLocked opens the breaker; callers hold b.mu.
func (b *breaker) tripLocked(now time.Time) {
	b.state = BreakerOpen
	b.openedUntil = now.Add(b.cfg.OpenFor)
	b.fails = 0
	b.probing = false
	b.opens++
}

// snapshot returns the state and cumulative open count.
func (b *breaker) snapshot(now time.Time) (BreakerState, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.state
	if s == BreakerOpen && !now.Before(b.openedUntil) {
		s = BreakerHalfOpen // would probe on the next call
	}
	return s, b.opens
}

// breakerFor returns (creating if needed) the breaker of one node.
func (c *Cluster) breakerFor(id string) *breaker {
	c.breakersMu.Lock()
	defer c.breakersMu.Unlock()
	b := c.breakers[id]
	if b == nil {
		b = newBreaker(c.cfg.Breaker)
		c.breakers[id] = b
	}
	return b
}

// call is the coordinator's guarded RPC path for request-serving calls:
// circuit breaker, per-attempt deadline carve, retry with full-jitter
// backoff on transport faults. force bypasses the breaker — the routing
// loop uses it when every owner's breaker is open, so breakers can only
// redirect traffic, never fail a request on their own.
func (c *Cluster) call(ctx context.Context, id string, req Request, force bool) (*Response, error) {
	br := c.breakerFor(id)
	if !br.allow(time.Now()) {
		if !force {
			c.counters.breakerSkips.Add(1)
			return nil, fmt.Errorf("%w: %s (%s)", ErrBreakerOpen, id, req.Kind)
		}
		c.counters.breakerForced.Add(1)
	}

	p := c.retry
	var lastErr error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.counters.retries.Add(1)
			if !sleepCtx(ctx, p.backoff(c.rng, attempt)) {
				return nil, ctx.Err()
			}
		}
		actx, cancel := context.WithTimeout(ctx, p.attemptBudget(ctx, attempt))
		start := time.Now()
		c.counters.transportCalls.Add(1)
		resp, err := c.transport.Call(actx, id, req)
		elapsed := time.Since(start)
		attemptTimedOut := actx.Err() != nil && ctx.Err() == nil
		cancel()
		if err == nil {
			c.callLatOK.Record(elapsed)
			br.record(true, time.Now())
			return resp, nil
		}
		if ctx.Err() != nil {
			// The caller is gone; neither the breaker nor the failure
			// detector should learn anything from an abandoned call.
			return nil, err
		}
		if attemptTimedOut && !errors.Is(err, ErrUnreachable) {
			// Our own attempt timer fired: a lost reply or a wedged node.
			// Reclassify as a transport fault so it is retried and feeds
			// the breaker, unlike a caller-owned cancellation.
			err = fmt.Errorf("%w: %s (%s attempt timeout after %v)", ErrUnreachable, id, req.Kind, elapsed)
		}
		if errors.Is(err, ErrUnreachable) {
			c.callLatFail.Record(elapsed)
			c.counters.transportFails.Add(1)
			br.record(false, time.Now())
			lastErr = err
			continue
		}
		// The node answered and rejected the call (overloaded, closed, bad
		// query, propagated cancellation): the link works, and retrying a
		// deterministic answer is pure waste.
		c.callLatOK.Record(elapsed)
		br.record(true, time.Now())
		return nil, err
	}
	return nil, lastErr
}
