package heuristic

import (
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/plan"
	"repro/internal/workload"
)

// TestHeuristicsOnAWorkspaceChangeNoPlan: Options.Workspace is a resource
// handle and nothing else. One workspace, handed to every heuristic that
// runs exact inner DPs, over every large-query family, at one thread and at
// two, never replaced: each plan is the plan of the same call without a
// workspace, bit for bit.
func TestHeuristicsOnAWorkspaceChangeNoPlan(t *testing.T) {
	ws := new(dp.Workspace)
	row := 0
	for _, f := range largeQueryFamilies {
		for _, n := range f.sizes {
			if n > 250 {
				continue // more rounds of the same inner DPs
			}
			q, err := workload.Generate(f.kind, n, rand.New(rand.NewSource(int64(n))))
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range []namedHeuristic{{"IDP2", IDP2}, {"UnionDP", UnionDP}, {"Adaptive", Adaptive}} {
				row++
				opt := Options{Threads: 1 + row%2}
				want, err := h.f(q, opt)
				if err != nil {
					t.Fatalf("%s on %s-%d: %v", h.name, f.kind, n, err)
				}
				opt.Workspace = ws
				got, err := h.f(q, opt)
				if err != nil {
					t.Fatalf("%s on %s-%d, on a workspace: %v", h.name, f.kind, n, err)
				}
				if err := samePlan(got, want); err != nil {
					t.Errorf("%s on %s-%d, %d threads, on a workspace: %v", h.name, f.kind, n, opt.Threads, err)
				}
			}
		}
	}
}

// TestInnerDPsBorrow: a large query is dozens of inner DPs, and from the
// second on they run in the memory of the first. Bytes allocated per call,
// Threads 1:
//
//	                      before    no workspace   ceiling   warm workspace   ceiling
//	IDP2    star-60     8 541 901      1 898 341   3 500 000         49 856   150 000
//	UnionDP cycle-200   1 296 715        189 328     400 000        134 192   350 000
//
// (2 178 658 / 73 640 and 296 232 / 245 640 before the contracted problems,
// GOO's and Recost's nodes and the splice copies came from one run's slabs.)
//
// "No workspace" is what bench/ and every direct caller get — the call's
// private one — so a star-60 builds one star-15 table (1.5 MB direct) and one
// census, not five of each. Each ceiling sits above its measurement by less
// than the one thing that could come back: a second table, or a private
// arena per inner DP (28 KiB each: 5 for the star, 25 for the cycle).
func TestInnerDPsBorrow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four one-second benchmarks")
	}
	gen := func(kind workload.Kind, n int) *cost.Query {
		q, err := workload.Generate(kind, n, rand.New(rand.NewSource(int64(n))))
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	for _, tc := range []struct {
		name        string
		f           func(*cost.Query, Options) (*plan.Node, error)
		q           *cost.Query
		fresh, warm int64
	}{
		{"IDP2/star-60", IDP2, gen(workload.KindStar, 60), 3_500_000, 150_000},
		{"UnionDP/cycle-200", UnionDP, gen(workload.KindCycle, 200), 400_000, 350_000},
	} {
		for _, row := range []struct {
			name    string
			ws      *dp.Workspace
			ceiling int64
		}{{tc.name, nil, tc.fresh}, {tc.name + "/warm", new(dp.Workspace), tc.warm}} {
			opt := Options{Threads: 1, Workspace: row.ws}
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				if _, err := tc.f(tc.q, opt); err != nil { // the call a warm workspace has behind it
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := tc.f(tc.q, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
			if got := res.AllocedBytesPerOp(); got > row.ceiling {
				t.Errorf("%s allocates %d B per call, ceiling %d", row.name, got, row.ceiling)
			} else {
				t.Logf("%s: %d B and %d allocations per call (ceiling %d B)", row.name, got, res.AllocsPerOp(), row.ceiling)
			}
		}
	}
}

// TestIKKBZOrderAllocationBudget: every root of IKKBZOrder linearizes in
// the same flat buffers, so a MusicBrainz-56 allocates a few arrays of 56
// entries per call, where a chain merge per relation per root allocated
// 1.7 MB.
func TestIKKBZOrderAllocationBudget(t *testing.T) {
	q, err := workload.Generate(workload.KindMB, 56, rand.New(rand.NewSource(56)))
	if err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := IKKBZOrder(q, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	const budget = 64 << 10
	if got := res.AllocedBytesPerOp(); got > budget {
		t.Errorf("IKKBZOrder on a MusicBrainz-56 allocates %d B per call, budget %d", got, budget)
	} else {
		t.Logf("%d B and %d allocations per call (budget %d B)", got, res.AllocsPerOp(), budget)
	}
}
