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

// call is the coordinator's guarded RPC path for request-serving calls:
// per-attempt deadline carve, retry with full-jitter backoff on transport
// faults.
func (c *Cluster) call(ctx context.Context, id string, req Request) (*Response, error) {
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
			return resp, nil
		}
		if ctx.Err() != nil {
			// The caller is gone; the failure detector should learn
			// nothing from an abandoned call.
			return nil, err
		}
		if attemptTimedOut && !errors.Is(err, ErrUnreachable) {
			// Our own attempt timer fired: a lost reply or a wedged node.
			// Reclassify as a transport fault so it is retried and feeds
			// the failure detector, unlike a caller-owned cancellation.
			err = fmt.Errorf("%w: %s (%s attempt timeout after %v)", ErrUnreachable, id, req.Kind, elapsed)
		}
		if errors.Is(err, ErrUnreachable) {
			c.callLatFail.Record(elapsed)
			c.counters.transportFails.Add(1)
			lastErr = err
			continue
		}
		// The node answered and rejected the call (overloaded, closed, bad
		// query, propagated cancellation): the link works, and retrying a
		// deterministic answer is pure waste.
		c.callLatOK.Record(elapsed)
		return nil, err
	}
	return nil, lastErr
}
