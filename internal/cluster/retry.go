package cluster

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"
)

// RetryPolicy tunes the coordinator's guarded RPC path for request-serving
// calls. Each call gets up to MaxAttempts tries against one node before
// the routing loop moves on to the next replica; only transport-level
// faults (ErrUnreachable) are retried — a node that answered, even with an
// error, is never hammered again for the same request. Between attempts
// the coordinator backs off exponentially with full jitter: sleep ~
// U[0, min(MaxBackoff, BaseBackoff·2^attempt)), which decorrelates retry
// bursts from many concurrent callers.
//
// An attempt has no timer of its own: it runs under the caller's context,
// so a node may take its service's whole budget (service.Config.Timeout),
// and a slow answer is an answer, not a fault.
type RetryPolicy struct {
	// MaxAttempts per node per request (0: 2 — one retry).
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff (0: 2ms).
	BaseBackoff time.Duration
	// MaxBackoff caps one backoff sleep (0: 50ms).
	MaxBackoff time.Duration
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
	return p
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
// retry with full-jitter backoff on transport faults, each attempt under
// the caller's own context.
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
		start := time.Now()
		c.counters.transportCalls.Add(1)
		resp, err := c.transport.Call(ctx, id, req)
		elapsed := time.Since(start)
		if err == nil {
			c.callLatOK.Record(elapsed)
			return resp, nil
		}
		if ctx.Err() != nil {
			// The caller is gone; the failure detector should learn
			// nothing from an abandoned call.
			return nil, err
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
