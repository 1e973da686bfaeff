// Package loadgen is the open-loop load harness the chaos suite drives a
// cluster with: Poisson arrivals at a fixed rate, Zipf-skewed popularity
// over a warm pool, and a fixed share of isomorphic twins, measuring
// per-request latency from the *scheduled* send time so queueing inside the
// harness cannot hide server-side delay (no coordinated omission — a
// closed-loop driver stops sending when the server slows down).
//
// The generator offers requests at a fixed rate regardless of how the
// target responds; the target either serves them, sheds them with
// service.ErrOverloaded (counted separately — shedding fast is the
// behaviour under test), or lets them time out. How late each request was
// actually launched is part of the result: a schedule offered late was not
// the schedule.
package loadgen

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/workload"
)

const (
	// twinFrac is the share of requests carrying an isomorphic permutation
	// of a pool query: a different wire query that canonical fingerprinting
	// must collapse onto the same cache entry. The rest replay the pool.
	twinFrac = 0.3
	// zipfS is the Zipf skew of pool popularity (rank 0 most popular).
	zipfS = 1.2
	// requestTimeout is the per-request deadline; it also feeds the
	// service's deadline-aware shedder.
	requestTimeout = 2 * time.Second
	// maxInFlight bounds the harness's concurrent requests: arrivals past
	// it are dropped and counted, never silently skipped.
	maxInFlight = 4096
	// spinWindow is how long before a due time the generator stops sleeping
	// and yields in a loop instead: a runtime timer wakes about half a
	// millisecond late on an idle process, a yield loop within microseconds.
	spinWindow = time.Millisecond
)

// Target is the system under test: cluster.Optimize or service.Optimize
// wrapped to discard the answer. It must be safe for concurrent use.
type Target func(ctx context.Context, q *cost.Query) error

// Config sizes one load run. Every field but Seed is required.
type Config struct {
	// Rate is the offered arrival rate in requests per second. Arrivals
	// are Poisson: exponential inter-arrival gaps with mean 1/Rate.
	Rate float64
	// Duration is how long to offer load.
	Duration time.Duration
	// Pool is the warm working set, in popularity order: Zipf rank 0 is
	// the most popular query. It must hold at least two queries.
	Pool []*cost.Query
	// Seed makes the arrival schedule and query mix deterministic.
	Seed int64
}

// Result is one run's measurement.
type Result struct {
	// Offered counts scheduled arrivals; Dropped counts those the harness
	// could not launch because maxInFlight was exhausted (harness
	// saturation, not server behaviour — a non-zero value taints the run).
	Offered int
	Dropped int
	// OK counts served requests; their latencies are in Hist.
	OK int
	// Shed counts requests the server rejected with ErrOverloaded
	// (mapped to 429/503 on the wire) — fast failures, the degradation
	// mode admission control buys.
	Shed int
	// Timeout counts requests that hit the per-request deadline; Errors
	// counts everything else.
	Timeout int
	Errors  int
	// Hist holds served-request latency measured from the scheduled send
	// time: queue delay inside the harness counts against the server, as
	// it would for a real client.
	Hist *obs.Histogram
	// Late holds, for every offered arrival, how long after its scheduled
	// time the generator got to it (it is inside every latency in Hist). A
	// run whose Late rivals the inter-arrival gap offered another schedule.
	Late *obs.Histogram
}

// Run offers cfg.Rate req/s against target for cfg.Duration and reports
// what came back. It blocks until every launched request completes;
// cancelling ctx stops the schedule at once, mid-gap included.
func Run(ctx context.Context, target Target, cfg Config) *Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(cfg.Pool)-1))

	res := &Result{Hist: &obs.Histogram{}, Late: &obs.Histogram{}}
	var ok, shed, timeouts, errs atomic.Int64
	var wg sync.WaitGroup
	inflight := make(chan struct{}, maxInFlight)

	//mpdpvet:ignore openloop the one schedule anchor: all arrival times are offsets from it
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for scheduled := start; scheduled.Before(deadline); {
		// Pick the query on the generator goroutine so the mix is
		// deterministic per seed regardless of completion order.
		twin := rng.Float64() < twinFrac
		q := cfg.Pool[zipf.Uint64()]
		if twin {
			q = workload.PermuteQuery(q, rng.Perm(q.N()))
		}
		if !waitUntil(ctx, scheduled) {
			break
		}
		res.Offered++
		res.Late.Record(time.Since(scheduled))

		select {
		case inflight <- struct{}{}:
			wg.Add(1)
			go func(q *cost.Query, scheduled time.Time) {
				defer wg.Done()
				defer func() { <-inflight }()
				rctx, cancel := context.WithTimeout(ctx, requestTimeout)
				err := target(rctx, q)
				cancel()
				switch {
				case err == nil:
					res.Hist.Record(time.Since(scheduled))
					ok.Add(1)
				case errors.Is(err, service.ErrOverloaded):
					shed.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					timeouts.Add(1)
				default:
					errs.Add(1)
				}
			}(q, scheduled)
		default:
			res.Dropped++
		}
		// Next Poisson arrival: exponential gap with mean 1/Rate, anchored
		// to the schedule (not to the clock) so a slow server cannot slow
		// the offered rate down — the open-loop property.
		gap := time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second))
		scheduled = scheduled.Add(gap)
	}
	wg.Wait()

	res.OK = int(ok.Load())
	res.Shed = int(shed.Load())
	res.Timeout = int(timeouts.Load())
	res.Errors = int(errs.Load())
	return res
}

// waitUntil returns true once due has come, false if ctx is done first. It
// sleeps on a timer until spinWindow before due and yields in a loop from
// there.
func waitUntil(ctx context.Context, due time.Time) bool {
	if sleep := time.Until(due) - spinWindow; sleep > 0 {
		t := time.NewTimer(sleep)
		select {
		case <-ctx.Done():
			t.Stop()
			return false
		case <-t.C:
		}
	}
	for time.Until(due) > 0 {
		runtime.Gosched()
	}
	return ctx.Err() == nil
}

// NewPool generates a popularity-ordered working set of size MusicBrainz
// random-walk queries with relation counts cycling through sizes,
// deterministically per seed.
func NewPool(size int, sizes []int, seed int64) []*cost.Query {
	pool := make([]*cost.Query, size)
	for i := range pool {
		n := sizes[i%len(sizes)]
		pool[i] = workload.MusicBrainzQuery(n, rand.New(rand.NewSource(seed+int64(i))))
	}
	return pool
}
