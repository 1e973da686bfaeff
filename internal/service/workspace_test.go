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

// TestCancelledGPUJobLeavesTheWorkerAlone: the gpu backend returns to a
// cancelled caller while the batch that holds its job still runs, and the
// worker goes on to its next request. The job therefore may not run on
// anything of the worker's. Two kinds of job outlive their call: a
// snowflake-30 cancelled in the middle of its census (it aborts at its next
// poll), and a chain-30, too thin ever to poll, which runs to completion and
// materialises its tree after Optimize has returned. Each time the one
// worker serves a different query at once — on its own workspace, the
// memory the job would be writing to if it had been lent — and the answer
// must be the exact plan. The race suite repeats it under the detector.
func TestCancelledGPUJobLeavesTheWorkerAlone(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	m := cost.DefaultModel()
	routed := &s.counters.slot(backend.GPU).routed
	for round := 0; round < 6; round++ {
		gpuQ := genQuery(t, workload.KindChain, 30, int64(900+round))
		if round%2 == 0 {
			gpuQ = genQuery(t, workload.KindSnowflake, 30, int64(900+round))
		}
		if _, bid, _ := s.Route(gpuQ); bid != backend.GPU {
			t.Fatalf("round %d: routed to %s, the test needs a gpu-route query", round, bid)
		}
		next := genQuery(t, workload.KindMB, 13, int64(950+round))
		want, _, err := dp.DPCCP(dp.Input{Q: next, M: m})
		if err != nil {
			t.Fatal(err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		before := routed.Load()
		gone := make(chan error, 1)
		go func() {
			_, err := s.Optimize(ctx, gpuQ)
			gone <- err
		}()
		for start := time.Now(); routed.Load() == before; runtime.Gosched() {
			if time.Since(start) > 10*time.Second {
				t.Fatalf("round %d: the worker never picked the gpu request up", round)
			}
		}
		cancel()

		res, err := s.Optimize(context.Background(), next)
		if err != nil {
			t.Fatalf("round %d: the request behind a cancelled gpu job: %v", round, err)
		}
		if err := res.Plan.Validate(identity(next.N())); err != nil {
			t.Errorf("round %d: invalid plan behind a cancelled gpu job: %v", round, err)
		}
		if math.Abs(res.Plan.Cost-want.Cost) > 1e-9*want.Cost {
			t.Errorf("round %d: cost %v behind a cancelled gpu job, exact %v", round, res.Plan.Cost, want.Cost)
		}
		// The thin job may have finished before the cancellation landed.
		if err := <-gone; err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("round %d: cancelled gpu request returned %v", round, err)
		}
	}
}
