package service

import (
	"context"
	"runtime"
	"testing"

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
// large query: a cycle-600 (route idp2-mpdp) is served by IDP2 after
// exactly one canonical labelling per miss. A miss canonicalises the query
// once, under its real statistics (under a millisecond here); a second,
// statistics-blind labelling — on a cycle all symmetry, so
// individualisation-refinement runs O(n²) — made the served miss 9.6x the
// heuristic. The gate counts labellings rather than timing the miss against
// a bare IDP2 call: the ratio of two wall times moved with whatever else
// ran on the host, and the count is the defect itself.
func TestColdMissLargeQueryIsItsHeuristic(t *testing.T) {
	const runs = 5
	s := New(Config{Workers: 2})
	defer s.Close()
	for i := 0; i < runs; i++ {
		q := genQuery(t, workload.KindCycle, 600, int64(700+i))
		before := labellings.Load()
		res, err := s.Optimize(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit || res.Algorithm != core.AlgIDP2 {
			t.Fatalf("cycle-600 served with hit=%v by %s, want a miss routed to %s", res.CacheHit, res.Algorithm, core.AlgIDP2)
		}
		if n := labellings.Load() - before; n != 1 {
			t.Errorf("cycle-600 miss %d ran %d canonical labellings, want 1", i, n)
		}
	}
}
