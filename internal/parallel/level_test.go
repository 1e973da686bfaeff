package parallel

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/bitset"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/graph"
	"repro/internal/plan"
)

// shapedQuery puts random statistics on the given join graph.
func shapedQuery(g *graph.Graph, rng *rand.Rand) *cost.Query {
	q := randomQuery(g.N, 0, rng)
	q.G = graph.New(g.N)
	for _, e := range g.Edges {
		q.G.AddEdge(e.A, e.B, math.Pow(10, -1-3*rng.Float64()))
	}
	return q
}

// runBarrier drives the level barrier by hand, as levelParallel does, and
// returns it for inspection together with the folded counters.
func runBarrier(t *testing.T, in dp.Input, evaluate dp.SetEvaluator) (*Levels, dp.Stats) {
	t.Helper()
	prep, err := dp.Prepare(in)
	if err != nil {
		t.Fatal(err)
	}
	buckets, err := dp.ConnectedBuckets(in)
	if err != nil {
		t.Fatal(err)
	}
	levels := NewLevels(in, evaluate, prep.Seed(dp.BucketCount(buckets)), buckets, threads(in))
	stats := dp.Stats{ConnectedSets: uint64(in.Q.N())}
	for size := 2; size <= in.Q.N(); size++ {
		st, err := levels.Run(size)
		if err != nil {
			t.Fatal(err)
		}
		stats.Add(st)
	}
	return levels, stats
}

// TestThinLevelsRunOnTheCaller: a cycle-24 has 24 connected sets on each of
// its levels, a microsecond of work apiece. Four threads must not buy it
// 23 rounds of goroutine start and park: every level runs on the calling
// goroutine, and the counters are the sequential driver's.
func TestThinLevelsRunOnTheCaller(t *testing.T) {
	q := shapedQuery(graph.Cycle(24), rand.New(rand.NewSource(16)))
	in := dp.Input{Q: q, M: cost.DefaultModel(), Threads: 4}
	seqPlan, seq, err := dp.MPDP(in)
	if err != nil {
		t.Fatal(err)
	}
	levels, st := runBarrier(t, in, dp.EvaluateSetMPDP)
	if levels.spawned != 0 {
		t.Errorf("cycle-24 with 4 threads started %d goroutines, want 0", levels.spawned)
	}
	if st != seq {
		t.Errorf("barrier counters %+v, sequential %+v", st, seq)
	}
	parPlan, par, err := MPDP(in)
	if err != nil {
		t.Fatal(err)
	}
	if par != seq || math.Float64bits(parPlan.Cost) != math.Float64bits(seqPlan.Cost) {
		t.Errorf("parallel.MPDP: %+v cost %v, dp.MPDP: %+v cost %v", par, parPlan.Cost, seq, seqPlan.Cost)
	}
}

// TestThickLevelsFanOut is the other side of the threshold: a 20-relation
// tree has levels of thousands of sets (and a hashed table, which
// TestTableLayoutsUnderLevelWorkers' hashed row, a thin cycle, no longer
// puts under concurrent workers), so workers are started, and what they
// count and store is what one goroutine would have — for a bounded number of
// allocations.
func TestThickLevelsFanOut(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	q := shapedQuery(graph.RandomConnected(20, 0, rng), rng)
	in := dp.Input{Q: q, M: cost.DefaultModel(), Threads: 4}
	seqPlan, seq, err := dp.MPDP(in)
	if err != nil {
		t.Fatal(err)
	}
	levels, st := runBarrier(t, in, dp.EvaluateSetMPDPTree)
	if levels.spawned == 0 {
		t.Errorf("no worker started over %d connected sets", seq.ConnectedSets)
	}
	if st != seq {
		t.Errorf("barrier counters %+v, sequential %+v", st, seq)
	}
	parPlan, par, err := MPDP(in)
	if err != nil {
		t.Fatal(err)
	}
	if par != seq || math.Float64bits(parPlan.Cost) != math.Float64bits(seqPlan.Cost) {
		t.Errorf("parallel.MPDP: %+v cost %v, dp.MPDP: %+v cost %v", par, parPlan.Cost, seq, seqPlan.Cost)
	}

	// Fanning out costs a bounded number of allocations: four workers over
	// a clique-15's levels of up to 6 435 sets make 278-280, ten percent on
	// top.
	if testing.Short() {
		return
	}
	in.Q = shapedQuery(graph.Clique(15), rng)
	if got := testing.AllocsPerRun(1, func() {
		if _, _, err := MPDP(in); err != nil {
			t.Fatal(err)
		}
	}); got > 308 {
		t.Errorf("parallel.MPDP on clique-15 makes %.0f allocations per run, ceiling 308", got)
	}
}

// TestCancelledContextStopsThinRun: every level of a chain-64 has far fewer
// candidate pairs than one poll interval, so a deadline checker minted per
// level never looked at the context and a run cancelled before it began
// returned a plan. The checker now lives as long as the run.
func TestCancelledContextStopsThinRun(t *testing.T) {
	q := shapedQuery(graph.Chain(64), rand.New(rand.NewSource(18)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, threads := range []int{1, 4} {
		p, _, err := MPDP(dp.Input{Q: q, M: cost.DefaultModel(), Ctx: ctx, Threads: threads})
		if !errors.Is(err, context.Canceled) || p != nil {
			t.Errorf("threads=%d: plan %v, err %v; want no plan and context.Canceled", threads, p != nil, err)
		}
	}
}

// TestLevelsFailedRunLeavesTheWorkspaceAlone: winner slots and evaluator
// scratch are the workspace's, so a helper goroutine that outlived a failed
// Run would write into memory the owner's next run is using. Run joins its
// helpers before it returns, error or not: a thick level dies on an
// evaluator error, then on a cancellation noticed mid-level, and in both
// cases no evaluation starts after Run has returned and the run that
// follows at once on the same workspace (under the race detector in CI) is
// the sequential one bit for bit.
func TestLevelsFailedRunLeavesTheWorkspaceAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	m := cost.DefaultModel()
	failing := shapedQuery(graph.Star(14), rng) // levels of up to 1 716 sets: every thread gets a share
	next := shapedQuery(graph.Star(13), rng)
	want, wantStats, err := dp.MPDP(dp.Input{Q: next, M: m})
	if err != nil {
		t.Fatal(err)
	}
	ws := new(dp.Workspace)
	boom := errors.New("evaluator failed")
	for _, mode := range []string{"evaluator error", "cancelled mid-level"} {
		ctx, cancel := context.WithCancelCause(context.Background())
		var calls, late atomic.Int64
		var returned atomic.Bool
		evaluate := func(in dp.Input, tab *plan.Table, s bitset.Mask, dl *dp.Deadline, sc *dp.Scratch) (dp.Winner, dp.Stats, error) {
			if returned.Load() {
				late.Add(1)
			}
			if calls.Add(1) == 2000 {
				if mode == "evaluator error" {
					return dp.Winner{}, dp.Stats{}, boom
				}
				cancel(boom)
			}
			return dp.EvaluateSetMPDPTree(in, tab, s, dl, sc)
		}
		in := dp.Input{Q: failing, M: m, Ctx: ctx, Threads: 4, Workspace: ws}
		prep, err := dp.Prepare(in)
		if err != nil {
			t.Fatal(err)
		}
		buckets, err := dp.ConnectedBuckets(in)
		if err != nil {
			t.Fatal(err)
		}
		levels := NewLevels(in, evaluate, prep.Seed(dp.BucketCount(buckets)), buckets, threads(in))
		err = nil
		for size := 2; size <= failing.N() && err == nil; size++ {
			_, err = levels.Run(size)
		}
		returned.Store(true)
		if !errors.Is(err, boom) {
			t.Fatalf("%s: err = %v after %d evaluations, want the injected failure", mode, err, calls.Load())
		}
		if levels.spawned == 0 {
			t.Fatalf("%s: the failed run never left the calling goroutine", mode)
		}

		got, gotStats, err := MPDP(dp.Input{Q: next, M: m, Threads: 4, Workspace: ws})
		if err != nil {
			t.Fatalf("after %s: %v", mode, err)
		}
		if gotStats != wantStats || math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || got.Explain(nil) != want.Explain(nil) {
			t.Errorf("after %s: %+v cost %v, sequential run without a workspace: %+v cost %v", mode, gotStats, got.Cost, wantStats, want.Cost)
		}
		if n := late.Load(); n != 0 {
			t.Errorf("%s: %d evaluations began after Run had returned its error", mode, n)
		}
		cancel(nil)
	}
}

// TestWorkspaceUnderLevelWorkers: every CPU-parallel driver on one workspace,
// layouts and sizes changing under it, against its own run without one.
// PDP and DPE merge in map order, so they are held to cost and counters;
// the level-synchronous drivers to the tree.
func TestWorkspaceUnderLevelWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := cost.DefaultModel()
	ws := new(dp.Workspace)
	for _, g := range []*graph.Graph{graph.Star(12), graph.Cycle(14), graph.Clique(9), graph.RandomConnected(14, 0, rng), graph.Chain(2), graph.Star(13)} {
		q := shapedQuery(g, rng)
		for _, alg := range parallelAlgorithms {
			if alg.name == "DPSubParallel" && g.N > 13 {
				continue // 2^|S| subsets per set: minutes under the detector
			}
			for _, threads := range []int{1, 2} {
				want, wantStats, err := alg.f(dp.Input{Q: q, M: m, Threads: threads})
				if err != nil {
					t.Fatalf("%s on %d relations: %v", alg.name, g.N, err)
				}
				got, gotStats, err := alg.f(dp.Input{Q: q, M: m, Threads: threads, Workspace: ws})
				if err != nil {
					t.Fatalf("%s on %d relations, on a workspace: %v", alg.name, g.N, err)
				}
				levelSync := alg.name == "MPDPParallel" || alg.name == "DPSubParallel"
				if gotStats != wantStats || math.Abs(got.Cost-want.Cost) > 1e-9*math.Max(1, want.Cost) ||
					levelSync && (math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || got.Explain(nil) != want.Explain(nil)) {
					t.Errorf("%s, %d threads, %d relations: on a workspace %+v cost %v, without %+v cost %v",
						alg.name, threads, g.N, gotStats, got.Cost, wantStats, want.Cost)
				}
			}
		}
	}
}
