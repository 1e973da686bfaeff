package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
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
	var gpuRoute *atomic.Uint64
	for i, r := range routed {
		if r.alg == core.AlgMPDPGPU {
			gpuRoute = &s.counters.route[i]
		}
	}
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
		routed, served := gpuRoute.Load(), gpu.served.Load()
		gone := make(chan error, 1)
		go func() {
			_, err := s.Optimize(ctx, gpuQ)
			gone <- err
		}()
		for start := time.Now(); gpuRoute.Load() == routed; runtime.Gosched() {
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

// Workspace sizes the memory tests state their bounds in, from the table's
// per-slot arrays (8 B cost, 40 B cold record, 8 B key when hashed, a
// presence bit when direct) and one 8 B census mask per slot: what a
// worker's own workspace keeps between runs (2^16 slots) and what the
// service's warm one does (2^18).
const (
	workerWorkspaceBytes = (1 << 16) * (8 + 40 + 8 + 8)
	warmWorkspaceBytes   = (1 << 18) * (8 + 40 + 8 + 8)
)

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestWarmWorkspaceSequentialMisses: one caller asks for star-17s, each
// under fresh statistics, so each is a miss whose table (2^17 direct slots)
// exceeds what a worker keeps. After the first, every one runs on the
// service's warm workspace and finds the previous one's table and census
// there: it allocates its base plans, fingerprint, remapped plan and cache
// entry, under 512 KB (about 7 MB when each regrew its table).
func TestWarmWorkspaceSequentialMisses(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	for i := 0; i < 5; i++ {
		q := genQuery(t, workload.KindStar, 17, int64(3600+i))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := s.Optimize(context.Background(), q)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit || res.FellBack {
			t.Fatalf("star-17 %d: hit=%v fellback=%v, want an exact miss", i, res.CacheHit, res.FellBack)
		}
		bytes := after.TotalAlloc - before.TotalAlloc
		t.Logf("star-17 miss %d: %d B", i, bytes)
		if i > 0 && bytes >= 512<<10 {
			t.Errorf("star-17 miss %d allocated %d B, want < 512 KB: it did not find the warm table", i, bytes)
		}
	}
}

// TestWarmWorkspaceConcurrentMisses: 2 × Workers star-17 misses at once.
// One of them at a time runs on the warm workspace, the others on their
// workers' own, which let a star-17's table go when the run returns. Live
// heap afterwards is within one warm table (plus 4 MB of slack: the cached
// plans, the collector's granularity) of its value before them — one
// star-17 table a worker, had the workers kept theirs, is over it.
func TestWarmWorkspaceConcurrentMisses(t *testing.T) {
	const workers = 4
	s := New(Config{Workers: workers})
	defer s.Close()
	qs := make([]*cost.Query, 2*workers)
	for i := range qs {
		qs[i] = genQuery(t, workload.KindStar, 17, int64(3700+i))
	}
	before := liveHeap()
	var wg sync.WaitGroup
	errs := make(chan error, len(qs))
	for _, q := range qs {
		wg.Add(1)
		go func(q *cost.Query) {
			defer wg.Done()
			if _, err := s.Optimize(context.Background(), q); err != nil {
				errs <- err
			}
		}(q)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	after := liveHeap()
	grown := int64(after) - int64(before)
	t.Logf("live heap %d → %d B (%+d) over %d concurrent star-17 misses", before, after, grown, len(qs))
	if bound := int64(warmWorkspaceBytes + 4<<20); grown > bound {
		t.Errorf("live heap grew %d B over %d concurrent star-17 misses, bound %d (one warm workspace + 4 MB)", grown, len(qs), bound)
	}
}

// TestColdSoakPlateaus sends 2 000 cold requests through one service in
// eight rounds of 250 and samples live heap after each. A round is 248
// MusicBrainz walks and cycles from four callers at once, then a star-17
// and a star-18 from one caller, which therefore land on the idle warm
// workspace; the third round also carries the one snowflake-28, whose
// hashed table fits the warm bound too. The service's memory is bounded by
// construction — each worker's workspace at 2^16 slots, the warm one at
// 2^18, a plan cache of 128 entries — so the heap must plateau: the second
// half's highest sample no more than 2 MB over the first half's, every
// sample within that stated bound of the idle service's, and the goroutines
// back at the idle count.
func TestColdSoakPlateaus(t *testing.T) {
	const (
		rounds   = 8
		perRound = 250
		callers  = 4
		workers  = 2
		cacheCap = 128
		planSlot = 16 << 10 // a cached plan of ≤ 28 relations, its key and entry
	)
	s := New(Config{Workers: workers, CacheCapacity: cacheCap})
	defer s.Close()
	optimize := func(q *cost.Query) error {
		res, err := s.Optimize(context.Background(), q)
		if err == nil && res.CacheHit {
			err = fmt.Errorf("a %d-relation request hit the cache: the soak is cold-only", q.N())
		}
		return err
	}
	idleGoroutines := runtime.NumGoroutine()
	idleHeap := liveHeap()
	bound := idleHeap + workers*workerWorkspaceBytes + warmWorkspaceBytes + cacheCap*planSlot

	samples := make([]uint64, 0, rounds)
	for round := 0; round < rounds; round++ {
		seed := int64(36000 + round*perRound)
		var wg sync.WaitGroup
		errs := make(chan error, perRound)
		work := make(chan int)
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					q := genQuery(t, workload.KindCycle, 6+i%13, seed+int64(i))
					if i%2 == 0 {
						q = genQuery(t, workload.KindMB, 6+i%11, seed+int64(i))
					}
					if err := optimize(q); err != nil {
						errs <- err
					}
				}
			}()
		}
		for i := 0; i < perRound-2; i++ {
			work <- i
		}
		close(work)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		large := []*cost.Query{
			genQuery(t, workload.KindStar, 17, seed+perRound-2),
			genQuery(t, workload.KindStar, 18, seed+perRound-1),
		}
		if round == 2 {
			large = append(large, genQuery(t, workload.KindSnowflake, 28, seed))
		}
		for _, q := range large {
			if err := optimize(q); err != nil {
				t.Fatal(err)
			}
		}
		samples = append(samples, liveHeap())
	}

	first, second := slices.Max(samples[:rounds/2]), slices.Max(samples[rounds/2:])
	t.Logf("live heap: idle %d B, samples %v, stated bound %d B", idleHeap, samples, bound)
	if second > first+2<<20 {
		t.Errorf("live heap still growing: second half peaks at %d B, first half at %d B", second, first)
	}
	if peak := max(first, second); peak > bound {
		t.Errorf("live heap peaked at %d B, over the stated bound %d B (idle %d + %d workers × %d + warm %d + %d cached plans × %d)",
			peak, bound, idleHeap, workers, workerWorkspaceBytes, warmWorkspaceBytes, cacheCap, planSlot)
	}
	for i := 0; i < 100 && runtime.NumGoroutine() > idleGoroutines; i++ {
		time.Sleep(time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > idleGoroutines {
		t.Errorf("%d goroutines after the soak, %d when idle", now, idleGoroutines)
	}
}
