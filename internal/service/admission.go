package service

import (
	"context"
	"sync"
	"time"
)

// Admission tunes the service's admission control. The zero value keeps
// the pre-admission behaviour: a full request queue blocks the caller
// indefinitely (backpressure without shedding) and no rate cap applies.
//
// Admission control changes overload from a latency collapse into an
// explicit, fast signal: requests the service cannot serve within their
// useful lifetime are rejected with ErrOverloaded in microseconds instead
// of queueing for seconds. The HTTP surface maps ErrOverloaded to
// 503 + Retry-After (and per-tenant quota denials to 429), so clients can
// back off instead of piling on.
type Admission struct {
	// MaxQueueWait bounds how long an arriving request may wait for a free
	// slot in the worker queue before it is shed with ErrOverloaded.
	// 0 blocks indefinitely (legacy backpressure); negative sheds the
	// moment the queue is full.
	MaxQueueWait time.Duration
	// RatePerSec, when positive, caps the admitted request rate of this
	// instance with a token bucket — the per-node capacity guard a
	// deployment sizes to what one node can serve. All requests count
	// against it, cache hits included: the cap models the node, not the
	// optimizer. The bucket holds a quarter second of requests, and at
	// least one.
	RatePerSec float64
}

// TokenBucket is a mutex-guarded token bucket: Allow admits a request iff
// a token is available, refilling continuously at Rate tokens per second up
// to Burst. It is cheap enough for the request path (one short critical
// section, no timers) and is shared by the service's node-level rate cap
// and the HTTP layer's per-tenant quotas.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// NewTokenBucket returns a full bucket admitting rate requests per second
// with capacity burst.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// Allow takes n tokens at time now. When the bucket has too few, it takes
// nothing and returns false plus how long the caller should wait before the
// bucket could admit n tokens again — the Retry-After hint.
func (b *TokenBucket) Allow(now time.Time, n float64) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		if dt := now.Sub(b.last).Seconds(); dt > 0 {
			b.tokens += dt * b.rate
			if b.tokens > b.burst {
				b.tokens = b.burst
			}
		}
	}
	b.last = now
	if b.tokens >= n {
		b.tokens -= n
		return true, 0
	}
	missing := n - b.tokens
	return false, time.Duration(missing / b.rate * float64(time.Second))
}

// estimatedQueueDelay predicts how long a request arriving now would wait
// for a worker: the queued requests ahead of it divided by the pool's drain
// rate, with the observed mean miss latency as the per-request service
// time. The estimate is deliberately conservative under load — the mean
// miss latency already includes queue wait, so past saturation the estimate
// inflates and sheds engage sooner, which is the behaviour a deadline-aware
// shedder wants.
func (s *Service) estimatedQueueDelay() time.Duration {
	depth := s.counters.queueDepth.Load()
	if depth <= 0 {
		return 0
	}
	misses := s.counters.misses.Load()
	if misses == 0 {
		return 0
	}
	avgMiss := s.counters.missNanos.Load() / misses
	return time.Duration(uint64(depth) * avgMiss / uint64(s.cfg.Workers))
}

// admit runs the pre-queue admission checks for a request about to start a
// new optimization flight: with a context deadline that cannot outlive the
// estimated queue delay, the request is shed now — burning a queue slot on
// a plan the caller will never see helps nobody.
func (s *Service) admit(ctx context.Context) error {
	deadline, ok := ctx.Deadline()
	if !ok {
		return nil
	}
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return ErrOverloaded
	}
	if est := s.estimatedQueueDelay(); est > remaining {
		return ErrOverloaded
	}
	return nil
}
