package service

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/workload"
)

// TestColdMissLeavesNothingRunning pins what a miss may cost around its
// enumeration, on the query the deleted sub-plan harvest was most expensive
// for (a MusicBrainz-13 window: the smallest the router sends to a level
// driver). When Optimize returns, nothing is still running on the request's
// behalf — a background pass over the finished DP table would show as
// goroutines above the idle service's count, with nothing to wait for — and
// the whole served miss allocates at most half again what dp.MPDP alone
// does on the same query (fingerprints, the remapped plan and the cache
// entry are the rest).
func TestColdMissLeavesNothingRunning(t *testing.T) {
	const misses = 16
	qs := make([]*cost.Query, misses)
	for i := range qs {
		qs[i] = genQuery(t, workload.KindMB, 13, int64(300+i))
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	m := cost.DefaultModel()
	enumerated := allocated(func() {
		for _, q := range qs {
			if _, _, err := dp.MPDP(dp.Input{Q: q, M: m}); err != nil {
				t.Fatal(err)
			}
		}
	})

	s := New(Config{Workers: 2})
	defer s.Close()
	idle := runtime.NumGoroutine()
	served := allocated(func() {
		for i, q := range qs {
			res, err := s.Optimize(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if res.CacheHit {
				t.Fatalf("window %d hit the cache: the walks are not distinct", i)
			}
		}
	})
	// A level worker that has passed its barrier may not have left the
	// scheduler yet; yielding lets it, and is no wait for work to finish.
	for i := 0; i < 100 && runtime.NumGoroutine() > idle; i++ {
		runtime.Gosched()
	}
	if now := runtime.NumGoroutine(); now > idle {
		t.Errorf("%d goroutines after %d cold misses returned, %d when idle", now, misses, idle)
	}
	if served > enumerated+enumerated/2 {
		t.Errorf("%d cold misses allocated %d B served, %d B enumerating: more than 1.5x", misses, served, enumerated)
	}
	t.Logf("%d B per served miss, %d B per enumeration", served/misses, enumerated/misses)
}

// TestColdMissLargeQueryIsItsHeuristic pins what the service may add to a
// large query: on a cycle-600 (route uniondp-mpdp) a served miss takes at
// most twice what core.Optimize(AlgUnionDP) takes on the same query. A miss
// canonicalises the query once, under its real statistics (under a
// millisecond here); a second, statistics-blind labelling — on a cycle all
// symmetry, so individualisation-refinement runs O(n²) — made the served
// miss 9.6x the heuristic. Both sides are floors of five and the threshold
// is far from either (about 1.3x now), so the host's noise cannot flip it.
func TestColdMissLargeQueryIsItsHeuristic(t *testing.T) {
	const runs = 5
	qs := make([]*cost.Query, runs)
	for i := range qs {
		qs[i] = genQuery(t, workload.KindCycle, 600, int64(700+i))
	}
	floor := func(f func(q *cost.Query)) time.Duration {
		best := time.Duration(-1)
		for _, q := range qs {
			start := time.Now()
			f(q)
			if d := time.Since(start); best < 0 || d < best {
				best = d
			}
		}
		return best
	}
	s := New(Config{Workers: 2})
	defer s.Close()
	served := floor(func(q *cost.Query) {
		res, err := s.Optimize(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit || res.Algorithm != core.AlgUnionDP {
			t.Fatalf("cycle-600 served with hit=%v by %s, want a miss routed to %s", res.CacheHit, res.Algorithm, core.AlgUnionDP)
		}
	})
	alone := floor(func(q *cost.Query) {
		if _, err := core.Optimize(context.Background(), q, core.Options{Algorithm: core.AlgUnionDP}); err != nil {
			t.Fatal(err)
		}
	})
	if served > 2*alone {
		t.Errorf("cycle-600 miss served in %v, UnionDP alone %v: more than 2x", served, alone)
	}
	t.Logf("served %v, UnionDP alone %v (%.2fx)", served, alone, float64(served)/float64(alone))
}
