package loadgen

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/service"
)

var poolSizes = []int{8, 10, 12, 14}

func served(context.Context, *cost.Query) error { return nil }

func TestRunMixAndDeterminism(t *testing.T) {
	pool := NewPool(16, poolSizes, 42)
	rank := make(map[*cost.Query]int, len(pool))
	for i, q := range pool {
		rank[q] = i
	}
	// mix counts what one run sent: replays by pool rank, twins (queries
	// that are no pool entry) in the last slot.
	run := func() (*Result, []int) {
		var mu sync.Mutex
		mix := make([]int, len(pool)+1)
		res := Run(context.Background(), func(ctx context.Context, q *cost.Query) error {
			i, ok := rank[q]
			if !ok {
				i = len(pool)
			}
			mu.Lock()
			mix[i]++
			mu.Unlock()
			return nil
		}, Config{Rate: 2000, Duration: 250 * time.Millisecond, Pool: pool, Seed: 7})
		return res, mix
	}
	res, mix := run()
	if res.Offered < 300 {
		t.Fatalf("offered only %d requests at 2000/s over 250ms", res.Offered)
	}
	if res.OK != res.Offered-res.Dropped {
		t.Fatalf("OK %d != offered %d - dropped %d", res.OK, res.Offered, res.Dropped)
	}
	if got := res.Late.Count(); got != uint64(res.Offered) {
		t.Fatalf("lateness recorded for %d of %d offered arrivals", got, res.Offered)
	}
	// The twin share is a Bernoulli draw; with 300+ samples a band this
	// wide around 0.3 never flakes.
	if f := float64(mix[len(pool)]) / float64(res.OK); f < 0.15 || f > 0.5 {
		t.Errorf("twin fraction %.3f far from %.2f", f, twinFrac)
	}
	if mix[0] <= mix[len(pool)-1] {
		t.Errorf("rank 0 replayed %d times, rank %d %d: popularity is not skewed", mix[0], len(pool)-1, mix[len(pool)-1])
	}
	// Same seed, same schedule: the offered count and mix must reproduce.
	res2, mix2 := run()
	if res2.Offered != res.Offered {
		t.Errorf("same seed offered %d then %d", res.Offered, res2.Offered)
	}
	for i := range mix {
		if mix[i] != mix2[i] {
			t.Errorf("same seed diverged at mix slot %d: %d then %d", i, mix[i], mix2[i])
		}
	}
}

func TestRunCountsShedsSeparately(t *testing.T) {
	pool := NewPool(4, poolSizes, 42)
	var n atomic.Int64
	target := func(ctx context.Context, q *cost.Query) error {
		if n.Add(1)%2 == 0 {
			return service.ErrOverloaded
		}
		return nil
	}
	res := Run(context.Background(), target, Config{
		Rate: 500, Duration: 100 * time.Millisecond, Pool: pool, Seed: 3,
	})
	if res.Shed == 0 {
		t.Fatalf("no sheds recorded: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("sheds leaked into errors: %+v", res)
	}
	if got := uint64(res.OK); res.Hist.Count() != got {
		t.Fatalf("hist holds %d samples, want OK=%d (sheds must stay out)", res.Hist.Count(), got)
	}
}

func TestRunStaysOpenLoop(t *testing.T) {
	// A closed-loop driver offers fewer requests when the target stalls —
	// that is the coordinated-omission failure the harness exists to
	// avoid. The offered count must track rate*duration regardless of the
	// target: here every request parks for 50ms and then times out.
	pool := NewPool(2, poolSizes, 42)
	stall := func(ctx context.Context, q *cost.Query) error {
		ctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		defer cancel()
		<-ctx.Done()
		return ctx.Err()
	}
	res := Run(context.Background(), stall, Config{
		Rate: 1000, Duration: 200 * time.Millisecond, Pool: pool, Seed: 9,
	})
	// Poisson noise on ~200 arrivals is ~±30; anything above 120 proves
	// the generator did not slow down with the target.
	if res.Offered < 120 {
		t.Fatalf("offered %d of ~200 expected: generator slowed with the target (closed-loop behaviour)", res.Offered)
	}
	if res.Timeout+res.Dropped != res.Offered {
		t.Fatalf("stalled target: want all %d offered as timeouts(%d)+dropped(%d)",
			res.Offered, res.Timeout, res.Dropped)
	}
	if res.Hist.Count() != 0 {
		t.Fatalf("no request succeeded but hist holds %d samples", res.Hist.Count())
	}
}

// TestRunLaunchesOnTime pins the pacing: the chaos suite offers 150 req/s,
// and at 200 the generator must launch within 100us of the due time at the
// median — a plain sleep wakes half a millisecond late, and that
// lands in every latency the run reports.
func TestRunLaunchesOnTime(t *testing.T) {
	pool := NewPool(2, poolSizes, 42)
	res := Run(context.Background(), served, Config{
		Rate: 200, Duration: 500 * time.Millisecond, Pool: pool, Seed: 11,
	})
	if res.Offered < 50 {
		t.Fatalf("offered only %d requests at 200/s over 500ms", res.Offered)
	}
	p50 := res.Late.Quantile(0.5)
	t.Logf("launch lateness over %d arrivals: p50 %v p99 %v max %v", res.Offered, p50, res.Late.Quantile(0.99), res.Late.Max())
	if p50 >= 100*time.Microsecond {
		t.Errorf("median launch lateness %v, want < 100us", p50)
	}
}

// TestRunStopsMidGap: at 1 req/s the generator spends nearly all of its
// time between arrivals, so a cancel lands mid-gap; Run must come back at
// once instead of sleeping the gap out.
func TestRunStopsMidGap(t *testing.T) {
	pool := NewPool(2, poolSizes, 42)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *Result, 1)
	go func() {
		done <- Run(ctx, served, Config{Rate: 1, Duration: time.Minute, Pool: pool, Seed: 5})
	}()
	time.Sleep(20 * time.Millisecond)
	cancelled := time.Now()
	cancel()
	select {
	case res := <-done:
		if took := time.Since(cancelled); took > 5*time.Millisecond {
			t.Errorf("Run returned %v after cancel, want within 5ms", took)
		}
		if res.Offered > 2 {
			t.Errorf("offered %d requests in 20ms at 1 req/s", res.Offered)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run ignored the cancel")
	}
}
