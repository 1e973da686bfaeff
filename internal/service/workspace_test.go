package service

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/workload"
)

// TestCancelledGPURequestFreesItsWorker: a gpu-route request runs on its
// worker's goroutine and workspace, so cancelling it mid-run must stop the
// run — the call returns within the bound the exact cancellation tests use,
// and the run produces no plan — and leave the workspace to the worker's
// next request. Each round cancels a snowflake-34 (most of a second of
// enumeration) shortly after the one worker has routed it, then asks that
// worker for a gpu-route query on the tree path or the general path, whose
// answer, run on the very workspace the cancelled run was writing to, must
// be the DPCCP optimum. The race suite repeats it under the detector.
func TestCancelledGPURequestFreesItsWorker(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	m := cost.DefaultModel()
	gpu := s.counters.slot(backend.GPU)
	// The same snowflake every round: a run that finished would have cached
	// it, and the next round would never reach the worker.
	gpuQ := genQuery(t, workload.KindSnowflake, 34, 900)
	for round := 0; round < 4; round++ {
		next := genQuery(t, workload.KindChain, 40, int64(950+round))
		if round%2 == 1 {
			next = genQuery(t, workload.KindCycle, 36, int64(950+round))
		}
		for _, q := range []*cost.Query{gpuQ, next} {
			if _, bid, _ := s.Route(q); bid != backend.GPU {
				t.Fatalf("round %d: a %d-relation query routed to %s, the test needs the gpu route", round, q.N(), bid)
			}
		}
		want, _, err := dp.DPCCP(dp.Input{Q: next, M: m})
		if err != nil {
			t.Fatal(err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		routed, served := gpu.routed.Load(), gpu.served.Load()
		gone := make(chan error, 1)
		go func() {
			_, err := s.Optimize(ctx, gpuQ)
			gone <- err
		}()
		for start := time.Now(); gpu.routed.Load() == routed; runtime.Gosched() {
			if time.Since(start) > 10*time.Second {
				t.Fatalf("round %d: the worker never picked the gpu request up", round)
			}
		}
		time.Sleep(20 * time.Millisecond)
		cancel()
		cancelled := time.Now()
		select {
		case err := <-gone:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("round %d: cancelled gpu request returned %v, want context.Canceled", round, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("round %d: cancelled gpu request still running %v after the cancel", round, time.Since(cancelled))
		}

		res, err := s.Optimize(context.Background(), next)
		if err != nil {
			t.Fatalf("round %d: the request after a cancelled gpu run: %v", round, err)
		}
		if n := gpu.served.Load() - served; n != 1 {
			t.Fatalf("round %d: %d gpu-route runs produced a plan, want only the next request's: the cancelled run did not stop", round, n)
		}
		if err := res.Plan.Validate(identity(next.N())); err != nil {
			t.Errorf("round %d: invalid plan after a cancelled gpu run: %v", round, err)
		}
		if math.Abs(res.Plan.Cost-want.Cost) > 1e-9*want.Cost {
			t.Errorf("round %d: cost %v after a cancelled gpu run, exact %v", round, res.Plan.Cost, want.Cost)
		}
	}
}
