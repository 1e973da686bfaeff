package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/graph"
	"repro/internal/workload"
)

func relEq(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func dpccpCost(t *testing.T, q *cost.Query) float64 {
	t.Helper()
	p, _, err := dp.DPCCP(dp.Input{Q: q, M: cost.DefaultModel()})
	if err != nil {
		t.Fatal(err)
	}
	return p.Cost
}

// TestRouterMatchesDPCCPSmall is the acceptance criterion: for graphs of
// at most 12 relations the adaptive router must return plans cost-identical
// to a direct DPCCP call. Graphs detected as cliques or stars are planned
// by CPU-parallel MPDP, every other shape by DPCCP itself.
func TestRouterMatchesDPCCPSmall(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	var mpdp uint64
	for _, kind := range []workload.Kind{
		workload.KindChain, workload.KindCycle, workload.KindStar,
		workload.KindClique, workload.KindSnowflake, workload.KindMB,
	} {
		for n := 4; n <= 12; n += 2 {
			q := genQuery(t, kind, n, int64(100*n))
			res, err := s.Optimize(context.Background(), q)
			if err != nil {
				t.Fatalf("%s/%d: %v", kind, n, err)
			}
			if want := dpccpCost(t, q); !relEq(res.Plan.Cost, want) {
				t.Errorf("%s/%d: service cost %g, DPCCP cost %g", kind, n, res.Plan.Cost, want)
			}
			want := core.AlgDPCCP
			if shape := core.DetectShape(q.G); shape == core.ShapeClique || shape == core.ShapeStar {
				want = core.AlgMPDPParallel // a 4-relation walk may be a star too
				mpdp++
			}
			if res.Algorithm != want {
				t.Errorf("%s/%d: routed to %s, want %s", kind, n, res.Algorithm, want)
			}
			if err := res.Plan.Validate(identity(n)); err != nil {
				t.Errorf("%s/%d: invalid plan: %v", kind, n, err)
			}
		}
	}
	if got := s.Counters().Snapshot().RouteMPDP; got != mpdp {
		t.Errorf("route_mpdp_cpu = %d, want %d", got, mpdp)
	}
}

func TestRouteThresholds(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	tests := []struct {
		kind workload.Kind
		n    int
		want core.Algorithm
		bid  backend.ID
	}{
		{workload.KindChain, 8, core.AlgDPCCP, backend.CPUSeq},
		// In the small band CPU-parallel MPDP beats DPCCP on cliques and
		// stars; DPCCP stays faster on sparse cyclic shapes and walks.
		{workload.KindClique, 12, core.AlgMPDPParallel, backend.CPUParallel},
		{workload.KindStar, 12, core.AlgMPDPParallel, backend.CPUParallel},
		{workload.KindChain, 12, core.AlgDPCCP, backend.CPUSeq},
		{workload.KindCycle, 12, core.AlgDPCCP, backend.CPUSeq},
		{workload.KindMB, 12, core.AlgDPCCP, backend.CPUSeq},
		{workload.KindMB, 20, core.AlgMPDPParallel, backend.CPUParallel},
		{workload.KindChain, 25, core.AlgMPDPParallel, backend.CPUParallel},
		// Beyond the CPU clique cap the GPU band picks cliques up, to its
		// own cap; past that, the heuristics.
		{workload.KindClique, 16, core.AlgMPDPGPU, backend.GPU},
		{workload.KindClique, 20, core.AlgLinDP, backend.Heuristic},
		// The 26..GPULimit band used to be the heuristic fallback;
		// bounded-degree trees and sparse cyclic graphs now stay exact on
		// the simulated GPU.
		{workload.KindCycle, 40, core.AlgMPDPGPU, backend.GPU},
		{workload.KindSnowflake, 30, core.AlgMPDPGPU, backend.GPU},
		// Stars are hub-bombs: a degree-d hub has 2^d connected supersets,
		// so past the CPU band they skip the GPU and go straight to the
		// tree heuristic (the pre-backend behaviour).
		{workload.KindStar, 40, core.AlgIDP2, backend.Heuristic},
		// Past the bitset width exact enumeration is impossible anywhere.
		{workload.KindStar, 70, core.AlgIDP2, backend.Heuristic},
		{workload.KindCycle, 70, core.AlgIDP2, backend.Heuristic},
	}
	for _, tc := range tests {
		q := genQuery(t, tc.kind, tc.n, 5)
		alg, bid, _ := s.Route(q)
		if alg != tc.want || bid != tc.bid {
			t.Errorf("%s/%d: routed to %s on %s, want %s on %s",
				tc.kind, tc.n, alg, bid, tc.want, tc.bid)
		}
	}
}

// TestRouteDenseGeneralCapped: a cyclic general graph with edge density
// beyond DenseEdgeFactor caps the GPU band like a clique — its
// connected-set space explodes the same way — but keeps the exact
// CPU-parallel band it always had below 25 relations.
func TestRouteDenseGeneralCapped(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	// A near-clique: clique minus one edge is still ShapeGeneral but far
	// denser than the ladder's dense-edge factor allows.
	nearClique := func(n int) *cost.Query {
		q := withEdges(genQuery(t, workload.KindClique, n, 3), 0, n-1, false)
		if shape := core.DetectShape(q.G); shape != core.ShapeGeneral {
			t.Fatalf("clique minus an edge detected as %s, want general", shape)
		}
		return q
	}

	// Inside the CPU band, density must not downgrade exactness: the
	// pre-backend router planned these exactly with parallel MPDP.
	n := 18 // two past the GPU clique cap, within the CPU band
	alg, bid, _ := s.Route(nearClique(n))
	if alg != core.AlgMPDPParallel || bid != backend.CPUParallel {
		t.Errorf("dense general graph of %d rels routed to %s on %s, want mpdp-cpu on cpu-parallel",
			n, alg, bid)
	}

	// Past the CPU band, dense graphs skip the GPU band (capped at
	// gpu_clique_limit) and go heuristic.
	alg, bid, _ = s.Route(nearClique(30))
	if alg != core.AlgLinDP || bid != backend.Heuristic {
		t.Errorf("dense general graph of 30 rels routed to %s on %s, want lindp on heuristic",
			alg, bid)
	}

	// A sparse cycle of the same size stays exact on the GPU.
	sparse := genQuery(t, workload.KindCycle, 30, 3)
	alg, bid, _ = s.Route(sparse)
	if alg != core.AlgMPDPGPU || bid != backend.GPU {
		t.Errorf("sparse cycle of 30 rels routed to %s on %s, want mpdp-gpu on gpu", alg, bid)
	}
}

// TestEachBandMovesOneBackend sends one query per router band through the
// service. Each miss moves its band's backend by one routed and one served
// request, and its algorithm's route counter by one, and nothing else.
func TestEachBandMovesOneBackend(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	routeCount := func(snap Snapshot, alg core.Algorithm) uint64 {
		switch alg {
		case core.AlgDPCCP:
			return snap.RouteDPCCP
		case core.AlgMPDPParallel:
			return snap.RouteMPDP
		case core.AlgMPDPGPU:
			return snap.RouteMPDPGPU
		case core.AlgIDP2:
			return snap.RouteIDP2
		case core.AlgLinDP:
			return snap.RouteLinDP
		case core.AlgUnionDP:
			return snap.RouteUnionDP
		}
		t.Fatalf("no route counter for %s", alg)
		return 0
	}
	routed := []core.Algorithm{core.AlgDPCCP, core.AlgMPDPParallel, core.AlgMPDPGPU, core.AlgIDP2, core.AlgLinDP, core.AlgUnionDP}
	for _, tc := range []struct {
		kind workload.Kind
		n    int
		alg  core.Algorithm
		bid  backend.ID
	}{
		{workload.KindChain, 8, core.AlgDPCCP, backend.CPUSeq},
		{workload.KindStar, 14, core.AlgMPDPParallel, backend.CPUParallel},
		{workload.KindChain, 40, core.AlgMPDPGPU, backend.GPU},
		{workload.KindChain, 80, core.AlgIDP2, backend.Heuristic},
		{workload.KindCycle, 80, core.AlgIDP2, backend.Heuristic},
		{workload.KindMB, 56, core.AlgLinDP, backend.Heuristic},
	} {
		q := genQuery(t, tc.kind, tc.n, 7)
		alg, bid, _ := s.Route(q)
		if alg != tc.alg || bid != tc.bid {
			t.Fatalf("%s-%d: routed to %s on %s, want %s on %s", tc.kind, tc.n, alg, bid, tc.alg, tc.bid)
		}
		if of, _ := backend.Of(alg); bid != of {
			t.Errorf("%s-%d: Route names %s, but %s runs on %s", tc.kind, tc.n, bid, alg, of)
		}
		before := s.Counters().Snapshot()
		res, err := s.Optimize(context.Background(), q)
		if err != nil {
			t.Fatalf("%s-%d: %v", tc.kind, tc.n, err)
		}
		if res.CacheHit || res.FellBack || res.Algorithm != alg || res.Backend != bid {
			t.Fatalf("%s-%d: served %s on %s (hit %v, fell back %v), want a %s miss on %s",
				tc.kind, tc.n, res.Algorithm, res.Backend, res.CacheHit, res.FellBack, alg, bid)
		}
		after := s.Counters().Snapshot()
		for _, id := range backend.IDs {
			b, a := before.Backends[string(id)], after.Backends[string(id)]
			var want uint64
			if id == bid {
				want = 1
			}
			if a.Routed-b.Routed != want || a.Served-b.Served != want {
				t.Errorf("%s-%d: %s routed +%d served +%d, want +%d each",
					tc.kind, tc.n, id, a.Routed-b.Routed, a.Served-b.Served, want)
			}
		}
		for _, r := range routed {
			var want uint64
			if r == alg {
				want = 1
			}
			if d := routeCount(after, r) - routeCount(before, r); d != want {
				t.Errorf("%s-%d: route counter of %s moved by %d, want %d", tc.kind, tc.n, r, d, want)
			}
		}
	}
}

func TestWarmCacheHitAndIsomorphicHit(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	q := genQuery(t, workload.KindMB, 11, 9)

	cold, err := s.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Error("first request reported a cache hit")
	}

	warm, err := s.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Error("repeat request missed the cache")
	}
	if !relEq(warm.Plan.Cost, cold.Plan.Cost) {
		t.Errorf("warm cost %g != cold cost %g", warm.Plan.Cost, cold.Plan.Cost)
	}

	// A renamed/reordered isomorphic query must hit too, with the plan
	// remapped into its own relation-index space.
	perm := rand.New(rand.NewSource(2)).Perm(q.N())
	pq := permuteQuery(q, perm)
	iso, err := s.Optimize(context.Background(), pq)
	if err != nil {
		t.Fatal(err)
	}
	if !iso.CacheHit {
		t.Error("isomorphic query missed the cache")
	}
	if !relEq(iso.Plan.Cost, cold.Plan.Cost) {
		t.Errorf("isomorphic hit cost %g != %g", iso.Plan.Cost, cold.Plan.Cost)
	}
	if err := iso.Plan.Validate(identity(pq.N())); err != nil {
		t.Errorf("remapped plan invalid: %v", err)
	}
	if want := dpccpCost(t, pq); !relEq(iso.Plan.Cost, want) {
		t.Errorf("remapped plan cost %g, direct optimization of permuted query %g", iso.Plan.Cost, want)
	}

	snap := s.Counters().Snapshot()
	if snap.Hits != 2 || snap.Misses != 1 {
		t.Errorf("counters: hits=%d misses=%d, want 2/1", snap.Hits, snap.Misses)
	}
}

func TestCoalescingSharesOneOptimization(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	q := genQuery(t, workload.KindMB, 16, 4)

	const callers = 8
	results := make([]*Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Optimize(context.Background(), q)
		}(i)
	}
	wg.Wait()

	var costc float64
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if costc == 0 {
			costc = results[i].Plan.Cost
		} else if !relEq(results[i].Plan.Cost, costc) {
			t.Errorf("caller %d: cost %g != %g", i, results[i].Plan.Cost, costc)
		}
	}
	snap := s.Counters().Snapshot()
	if snap.Misses < 1 {
		t.Error("expected at least one miss")
	}
	if got := snap.Hits + snap.Misses + snap.Coalesced; got != callers {
		t.Errorf("hits+misses+coalesced = %d, want %d", got, callers)
	}
	if optimized := snap.RouteDPCCP + snap.RouteMPDP + snap.RouteIDP2 + snap.RouteUnionDP; optimized >= callers {
		t.Errorf("ran %d optimizations for %d identical concurrent requests", optimized, callers)
	}
}

// TestConcurrentHammer drives a shared service from many goroutines with a
// mix of repeated and isomorphically-renamed queries; with -race this is
// the service's concurrency regression test.
func TestConcurrentHammer(t *testing.T) {
	s := New(Config{CacheCapacity: 64})
	defer s.Close()

	kinds := []workload.Kind{workload.KindChain, workload.KindStar, workload.KindCycle, workload.KindMB}
	type job struct {
		q    *cost.Query
		cost float64
	}
	var jobs []job
	for i, kind := range kinds {
		for _, n := range []int{5, 8, 10} {
			q := genQuery(t, kind, n, int64(i*10+n))
			jobs = append(jobs, job{q, dpccpCost(t, q)})
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 40; i++ {
				j := jobs[rng.Intn(len(jobs))]
				q := j.q
				if rng.Intn(2) == 0 {
					q = permuteQuery(q, rng.Perm(q.N()))
				}
				res, err := s.Optimize(context.Background(), q)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if !relEq(res.Plan.Cost, j.cost) {
					t.Errorf("worker %d: cost %g, want %g", w, res.Plan.Cost, j.cost)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	snap := s.Counters().Snapshot()
	if snap.Requests != workers*40 {
		t.Errorf("requests = %d, want %d", snap.Requests, workers*40)
	}
	if snap.Hits == 0 {
		t.Error("expected cache hits under repetition")
	}
}

func TestFallbackOnTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("timeout fallback burns the budget twice")
	}
	// The router hands a 16-relation near-clique, a dense general graph, to
	// CPU-parallel MPDP with a budget it cannot meet; the service must fall
	// back to LinDP on the heuristic backend and charge the overrun to
	// cpu-parallel.
	s := New(Config{Timeout: 150 * time.Millisecond})
	defer s.Close()
	q := withEdges(genQuery(t, workload.KindClique, 16, 2), 0, 15, false)
	res, err := s.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FellBack {
		t.Error("expected heuristic fallback after exact timeout")
	}
	if res.Algorithm != core.AlgLinDP {
		t.Errorf("fallback used %s, want lindp", res.Algorithm)
	}
	if res.Backend != backend.Heuristic {
		t.Errorf("fallback served by %s, want heuristic", res.Backend)
	}
	snap := s.Counters().Snapshot()
	if snap.Fallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", snap.Fallbacks)
	}
	if got := snap.Backends[string(backend.CPUParallel)].Fallbacks; got != 1 {
		t.Errorf("cpu-parallel fallbacks = %d, want 1", got)
	}
	if err := res.Plan.Validate(identity(16)); err != nil {
		t.Errorf("fallback plan invalid: %v", err)
	}
}

// TestGPUBandServesExactPlans is the service-level acceptance criterion
// of the GPU backend: queries in the 26..GPULimit band — which the
// pre-backend router sent to heuristics — now come back as exact GPU
// plans, cost-identical to a direct CPU enumeration, with the backend
// identity and device work model on the result.
func TestGPUBandServesExactPlans(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	for _, tc := range []struct {
		kind workload.Kind
		n    int
	}{
		// Shapes whose connected-set lattice stays tractable at this size;
		// hub-heavy graphs (stars, MusicBrainz walks) can exceed the memo
		// cap in this band, which the timeout fallback absorbs — see
		// TestFallbackOnTimeout.
		{workload.KindCycle, 40},
		{workload.KindSnowflake, 30},
		{workload.KindChain, 35},
	} {
		q := genQuery(t, tc.kind, tc.n, 1)
		res, err := s.Optimize(context.Background(), q)
		if err != nil {
			t.Fatalf("%s/%d: %v", tc.kind, tc.n, err)
		}
		if res.Algorithm != core.AlgMPDPGPU || res.Backend != backend.GPU {
			t.Errorf("%s/%d: used %s on %s, want mpdp-gpu on gpu", tc.kind, tc.n, res.Algorithm, res.Backend)
		}
		if res.FellBack {
			t.Errorf("%s/%d: fell back to a heuristic", tc.kind, tc.n)
		}
		if res.GPU == nil || res.GPU.Devices != 2 {
			t.Errorf("%s/%d: missing multi-device stats: %+v", tc.kind, tc.n, res.GPU)
		}
		if err := res.Plan.Validate(identity(tc.n)); err != nil {
			t.Errorf("%s/%d: invalid plan: %v", tc.kind, tc.n, err)
		}
		if want := dpccpCost(t, q); !relEq(res.Plan.Cost, want) {
			t.Errorf("%s/%d: GPU-band cost %g, exact CPU cost %g", tc.kind, tc.n, res.Plan.Cost, want)
		}
		// A cache hit keeps the original backend attribution.
		warm, err := s.Optimize(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.CacheHit || warm.Backend != backend.GPU {
			t.Errorf("%s/%d: warm hit backend %s (hit=%v), want gpu", tc.kind, tc.n, warm.Backend, warm.CacheHit)
		}
	}
	snap := s.Counters().Snapshot()
	gpu := snap.Backends[string(backend.GPU)]
	if gpu.Routed != 3 || gpu.Served != 3 || gpu.Hits != 3 {
		t.Errorf("gpu backend counters %+v, want routed=3 served=3 hits=3", gpu)
	}
}

// hubTreeQuery builds an n-relation tree with a degree-(n-5) hub plus a
// short chain tail, so DetectShape reports ShapeTree (not ShapeStar) while
// the hub's ~2^(n-5) connected supersets still overflow the memo cap.
func hubTreeQuery(t *testing.T, n int) *cost.Query {
	t.Helper()
	var cat catalog.Catalog
	for i := 0; i < n; i++ {
		cat.Add(catalog.NewRelation(fmt.Sprintf("r%d", i), 1000, 32))
	}
	g := graph.New(n)
	for i := 1; i <= n-5; i++ {
		g.AddEdge(0, i, 0.001)
	}
	for i := n - 4; i < n; i++ {
		g.AddEdge(i-1, i, 0.001)
	}
	return &cost.Query{Cat: cat, G: g}
}

// TestHubHeavyGPUBandFallsBackWithinBudget: stars are excluded from the
// GPU band outright, but a hub-heavy *tree* still routes there, and its
// connected-set lattice (~2^35 here) overflows the memo cap long before
// enumeration finishes. The enumeration must abort at the deadline (see
// dp.TestConnectedBucketsHonorsDeadline) so the heuristic fallback
// answers within the same order of magnitude as the budget — not hours
// later.
func TestHubHeavyGPUBandFallsBackWithinBudget(t *testing.T) {
	s := New(Config{Timeout: 300 * time.Millisecond})
	defer s.Close()
	q := hubTreeQuery(t, 40)
	if shape := core.DetectShape(q.G); shape != core.ShapeTree {
		t.Fatalf("precondition: hub tree detected as %s, want tree", shape)
	}
	start := time.Now()
	res, err := s.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if alg, bid, _ := s.Route(q); alg != core.AlgMPDPGPU || bid != backend.GPU {
		t.Fatalf("precondition: star/40 routes to %s on %s, want mpdp-gpu on gpu", alg, bid)
	}
	if !res.FellBack || res.Backend != backend.Heuristic {
		t.Errorf("star/40 = %s on %s (fellback=%v), want heuristic fallback",
			res.Algorithm, res.Backend, res.FellBack)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("fallback took %v against a 300ms budget — enumeration did not abort", elapsed)
	}
	if snap := s.Counters().Snapshot(); snap.Backends[string(backend.GPU)].Fallbacks != 1 {
		t.Errorf("gpu fallback counter = %d, want 1", snap.Backends[string(backend.GPU)].Fallbacks)
	}
}

func TestLargeQueriesRouteToHeuristics(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	for _, tc := range []struct {
		kind workload.Kind
		n    int
		want core.Algorithm
	}{
		// Beyond the 64-relation bitset width no exact substrate applies.
		{workload.KindSnowflake, 70, core.AlgIDP2},
		{workload.KindCycle, 70, core.AlgIDP2},
	} {
		q := genQuery(t, tc.kind, tc.n, 1)
		res, err := s.Optimize(context.Background(), q)
		if err != nil {
			t.Fatalf("%s/%d: %v", tc.kind, tc.n, err)
		}
		if res.Algorithm != tc.want || res.Backend != backend.Heuristic {
			t.Errorf("%s/%d: used %s on %s, want %s on heuristic",
				tc.kind, tc.n, res.Algorithm, res.Backend, tc.want)
		}
		if err := res.Plan.Validate(identity(tc.n)); err != nil {
			t.Errorf("%s/%d: invalid plan: %v", tc.kind, tc.n, err)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	s := New(Config{})
	if _, err := s.Optimize(context.Background(), nil); err == nil {
		t.Error("nil query should error")
	}

	// Disconnected graphs carry no cross-product-free plan.
	var cat catalog.Catalog
	cat.Add(catalog.NewRelation("a", 100, 32))
	cat.Add(catalog.NewRelation("b", 100, 32))
	disc := &cost.Query{Cat: cat, G: graph.New(2)}
	if _, err := s.Optimize(context.Background(), disc); !errors.Is(err, dp.ErrDisconnected) {
		t.Errorf("disconnected graph: err = %v, want ErrDisconnected", err)
	}
	if snap := s.Counters().Snapshot(); snap.Errors == 0 {
		t.Error("error counter not incremented")
	}

	s.Close()
	if _, err := s.Optimize(context.Background(), genQuery(t, workload.KindChain, 4, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("after Close: err = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// TestOptimizePreparedSharesOptimizeCache pins the two entry points to one
// path: a plan cached through either is a hit through the other, under the
// same key, and a prepared statement is reusable and shareable as is.
func TestOptimizePreparedSharesOptimizeCache(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	q := genQuery(t, workload.KindCycle, 9, 3)
	p := Prepare(q)
	cold, err := s.OptimizePrepared(context.Background(), p)
	if err != nil || cold.CacheHit {
		t.Fatalf("first prepared request: hit=%v err=%v", cold != nil && cold.CacheHit, err)
	}
	again, err := s.OptimizePrepared(context.Background(), p)
	if err != nil || !again.CacheHit {
		t.Fatalf("prepared replay: hit=%v err=%v", again != nil && again.CacheHit, err)
	}
	plain, err := s.Optimize(context.Background(), q)
	if err != nil || !plain.CacheHit || plain.Key != p.Key || plain.Plan.Cost != cold.Plan.Cost {
		t.Fatalf("Optimize after OptimizePrepared: %+v err=%v, want a hit under %q at cost %v", plain, err, p.Key, cold.Plan.Cost)
	}
	if snap := s.Counters().Snapshot(); snap.Requests != 3 || snap.Hits != 2 || snap.Misses != 1 {
		t.Errorf("counters = %d requests, %d hits, %d misses; want 3, 2, 1", snap.Requests, snap.Hits, snap.Misses)
	}

	for name, bad := range map[string]*Prepared{
		"nil":               nil,
		"no query":          {Fingerprint: p.Fingerprint},
		"foreign perm size": {Query: q, Fingerprint: FingerprintQuery(genQuery(t, workload.KindChain, 4, 1))},
		"foreign key size":  {Query: q, Fingerprint: Fingerprint{Key: FingerprintQuery(genQuery(t, workload.KindChain, 4, 1)).Key, Perm: p.Perm}},
	} {
		if _, err := s.OptimizePrepared(context.Background(), bad); err == nil {
			t.Errorf("%s: OptimizePrepared accepted it", name)
		}
	}
}

// TestWarmCacheSpeedup is the acceptance check behind the throughput
// benchmark: repeated 20-relation queries must be served far faster from
// the cache than by re-optimizing. The benchmark reports the full ratio;
// here a conservative 5x floor keeps the test robust to CI noise (the
// typical gap is 50x+).
func TestWarmCacheSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	s := New(Config{})
	defer s.Close()
	q := genQuery(t, workload.KindMB, 20, 42)

	cold, err := s.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	const warmRuns = 20
	start := time.Now()
	for i := 0; i < warmRuns; i++ {
		warm, err := s.Optimize(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.CacheHit {
			t.Fatal("warm request missed the cache")
		}
	}
	warmAvg := time.Since(start) / warmRuns
	t.Logf("cold=%v warm=%v (%.0fx)", cold.Elapsed, warmAvg, float64(cold.Elapsed)/float64(warmAvg))
	if cold.Elapsed < 5*warmAvg {
		t.Errorf("warm-cache speedup below 5x: cold=%v warm=%v", cold.Elapsed, warmAvg)
	}
}

func TestCountersExpvarString(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if _, err := s.Optimize(context.Background(), genQuery(t, workload.KindChain, 5, 1)); err != nil {
		t.Fatal(err)
	}
	got := s.Counters().String()
	if got == "" || got == "{}" {
		t.Errorf("expvar string empty: %q", got)
	}
}
