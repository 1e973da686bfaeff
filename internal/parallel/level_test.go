package parallel

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/graph"
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
// count and store is what one goroutine would have.
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
