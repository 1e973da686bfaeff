package parallel

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/workload"
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

// TestCancelledContextStopsThinRun: every level of a chain-64 has far fewer
// candidate pairs than one poll interval, so a deadline checker minted per
// level never looked at the context and a run cancelled before it began
// returned a plan. The checker now lives as long as the run — and the run
// it stops counts the sets it finished, not the one it was stopped in. A
// chain's level of size k is 65-k sets of k-1 pairs each and its levels are
// thin, evaluated in order on the caller at any worker count, so the
// counters say which set that was: the pairs of the sets counted, plus a
// part of the next one.
func TestCancelledContextStopsThinRun(t *testing.T) {
	q := shapedQuery(graph.Chain(64), rand.New(rand.NewSource(18)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var first dp.Stats
	for i, threads := range []int{1, 2, 4} {
		p, st, err := MPDP(dp.Input{Q: q, M: cost.DefaultModel(), Ctx: ctx, Threads: threads})
		if !errors.Is(err, context.Canceled) || p != nil {
			t.Errorf("threads=%d: plan %v, err %v; want no plan and context.Canceled", threads, p != nil, err)
		}
		if i == 0 {
			first = st
		} else if st != first {
			t.Errorf("threads=%d: counters of the stopped run %+v, with one thread %+v", threads, st, first)
		}
		pairs, size, left := 0, 2, 63
		for finished := int(st.ConnectedSets) - 64; finished > 0; finished-- {
			pairs += size - 1
			if left--; left == 0 {
				size++
				left = 65 - size
			}
		}
		if partial := int(st.Evaluated)/2 - pairs; st.ConnectedSets <= 64 || partial < 0 || partial >= size-1 {
			t.Errorf("threads=%d: %d sets counted hold %d pairs, %d examined: stopped %d pairs into a set of %d",
				threads, st.ConnectedSets-64, pairs, st.Evaluated/2, partial, size-1)
		}
	}
}

// TestWorkspaceUnderLevelWorkers: the CPU-parallel MPDP on one workspace,
// layouts and sizes changing under it, against its own run without one,
// tree for tree.
func TestWorkspaceUnderLevelWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := cost.DefaultModel()
	ws := new(dp.Workspace)
	for _, g := range []*graph.Graph{graph.Star(12), graph.Cycle(14), graph.Clique(9), graph.RandomConnected(14, 0, rng), graph.Chain(2), graph.Star(13)} {
		q := shapedQuery(g, rng)
		for _, threads := range []int{1, 2} {
			want, wantStats, err := MPDP(dp.Input{Q: q, M: m, Threads: threads})
			if err != nil {
				t.Fatalf("%d relations: %v", g.N, err)
			}
			got, gotStats, err := MPDP(dp.Input{Q: q, M: m, Threads: threads, Workspace: ws})
			if err != nil {
				t.Fatalf("%d relations, on a workspace: %v", g.N, err)
			}
			if gotStats != wantStats || math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || got.Explain(nil) != want.Explain(nil) {
				t.Errorf("%d threads, %d relations: on a workspace %+v cost %v, without %+v cost %v",
					threads, g.N, gotStats, got.Cost, wantStats, want.Cost)
			}
		}
	}
}

// TestLevelsInPlaceBitIdentical: workers write their winners into claimed
// slots as they go, so a slot written early or late, by one worker or
// another, must change nothing. At 1, 2, 3, 4 and 8 workers, plans (cost bits
// and explain bytes) and counters are the sequential enumerator's, on hashed
// tables — a snowflake-26 on Algorithm 2, a MusicBrainz-18 on the general
// path — and direct ones (star-16, clique-13).
func TestLevelsInPlaceBitIdentical(t *testing.T) {
	gen := func(kind workload.Kind, n int) *cost.Query {
		q, err := workload.Generate(kind, n, rand.New(rand.NewSource(2500+int64(n))))
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	m := cost.DefaultModel()
	for _, tc := range []struct {
		name string
		q    *cost.Query
	}{
		{"snowflake-26", gen(workload.KindSnowflake, 26)},
		{"musicbrainz-18", gen(workload.KindMB, 18)},
		{"star-16", gen(workload.KindStar, 16)},
		{"clique-13", gen(workload.KindClique, 13)},
	} {
		if tc.name == "musicbrainz-18" && tc.q.G.IsTree() {
			t.Fatalf("%s is a tree: the row no longer reaches the general evaluator", tc.name)
		}
		want, wantStats, err := dp.MPDP(dp.Input{Q: tc.q, M: m})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 4, 8} {
			got, gotStats, err := MPDP(dp.Input{Q: tc.q, M: m, Threads: workers})
			if err != nil {
				t.Fatalf("%s, %d workers: %v", tc.name, workers, err)
			}
			if gotStats != wantStats || math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || got.Explain(nil) != want.Explain(nil) {
				t.Errorf("%s, %d workers: %+v cost %v, sequential %+v cost %v", tc.name, workers, gotStats, got.Cost, wantStats, want.Cost)
			}
		}
	}
}

// TestLevelsPanicOnNoWinner: a connected set of two relations or more always
// has a split, and a claimed slot left unwritten would be read by the next
// level as a plan. An evaluator that returns no winner without an error is
// broken, and the level says so at once, like MustSlot for a missing child.
func TestLevelsPanicOnNoWinner(t *testing.T) {
	q := shapedQuery(graph.Chain(4), rand.New(rand.NewSource(25)))
	in := dp.Input{Q: q, M: cost.DefaultModel()}
	buckets, err := dp.ConnectedBuckets(in)
	if err != nil {
		t.Fatal(err)
	}
	tab := plan.NewTable(4, dp.BucketCount(buckets))
	none := func(dp.Input, *plan.Table, bitset.Mask, *dp.Deadline, *dp.Scratch) (dp.Winner, dp.Stats, error) {
		return dp.Winner{}, dp.Stats{}, nil
	}
	defer func() {
		if recover() == nil {
			t.Error("a level whose evaluator found no winner returned")
		}
	}()
	_, _ = dp.NewLevels(in, none, buckets, 1).Run(tab, 2)
}

// levelHelpers counts the goroutines inside dp.Levels.help, giving one that has
// just been joined a second to get past its last statement, and returns
// their stack headers ("goroutine 7 [chan receive]:").
func levelHelpers(settle time.Duration) (headers []string) {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(settle); ; time.Sleep(time.Millisecond) {
		headers = headers[:0]
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "dp.(*Levels).help(") {
				headers = append(headers, g[:strings.IndexByte(g, '\n')])
			}
		}
		if len(headers) == 0 || time.Now().After(deadline) {
			return headers
		}
	}
}

// TestHelpersJoinedOnEveryPath: helpers live as long as the run, not as long
// as a level, and the driver defers Close. On success, on a deadline that
// expires mid-run and on a context cancelled mid-run, at 1, 2 and 4 workers,
// no helper goroutine outlives the census driver (dp.RunLevels with
// Algorithm 2's evaluator on a tree; the wrapper below only stalls or cancels
// it at its 2 000th set), nor the star lattice MPDP runs on a star, which
// has no evaluator to wrap: its budget passes, or its context is cancelled,
// before it begins, and it stops at its workers' first deadline poll, a few
// levels in. The count has a positive control: the helper of a thick
// barrier at two workers, open, is counted, so a helper the count no longer
// recognises fails the test instead of passing it.
func TestHelpersJoinedOnEveryPath(t *testing.T) {
	q := shapedQuery(graph.Star(14), rand.New(rand.NewSource(26))) // levels of up to 1 716 sets
	m := cost.DefaultModel()
	tree := dp.Input{Q: q, M: m}.ForTree()
	buckets, err := dp.ConnectedBuckets(tree)
	if err != nil {
		t.Fatal(err)
	}
	open := dp.NewLevels(tree, dp.EvaluateSetMPDPTree, buckets, 2)
	alive := 0
	// A helper that has not run yet shows only its go statement's wrapper.
	for deadline := time.Now().Add(time.Second); alive == 0 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		alive = len(levelHelpers(0))
	}
	open.Close()
	if alive < 1 {
		t.Fatalf("a star-14's barrier is open at 2 workers and %d helpers are counted", alive)
	}

	for _, workers := range []int{1, 2, 4} {
		for _, mode := range []string{"success", "deadline", "cancelled"} {
			budget := time.Minute
			if mode == "deadline" {
				budget = 200 * time.Millisecond
			}
			caller, cancel := context.WithCancel(context.Background())
			ctx, stop := context.WithTimeoutCause(caller, budget, dp.ErrTimeout)
			in := dp.Input{Q: q, M: m, Ctx: ctx, Threads: workers}
			var calls atomic.Int64
			evaluate := func(in dp.Input, tab *plan.Table, s bitset.Mask, dl *dp.Deadline, sc *dp.Scratch) (dp.Winner, dp.Stats, error) {
				if calls.Add(1) == 2000 {
					switch mode {
					case "deadline":
						<-in.Ctx.Done() // stall until the budget has run out
					case "cancelled":
						cancel()
					}
				}
				return dp.EvaluateSetMPDPTree(in, tab, s, dl, sc)
			}
			want := map[string]error{"success": nil, "deadline": dp.ErrTimeout, "cancelled": context.Canceled}[mode]
			p, _, err := dp.RunLevels(in.ForTree(), evaluate, threads(in), nil)
			cancel()
			stop()
			if !errors.Is(err, want) || (err == nil) != (p != nil) {
				t.Errorf("%d workers, %s: plan %v, err %v; want %v", workers, mode, p != nil, err, want)
			}
			if left := levelHelpers(time.Second); len(left) != 0 {
				t.Errorf("%d workers, %s: %d helpers outlived the run: %v", workers, mode, len(left), left)
			}
		}
	}

	star := shapedQuery(graph.Star(17), rand.New(rand.NewSource(28)))
	for _, workers := range []int{1, 2, 4} {
		for _, mode := range []string{"success", "deadline", "cancelled"} {
			ctx, cancel := context.WithCancel(context.Background())
			in := dp.Input{Q: star, M: m, Ctx: ctx, Threads: workers}
			var want error
			switch mode {
			case "deadline":
				in.Ctx, want = spentBudget(), dp.ErrTimeout
			case "cancelled":
				want = context.Canceled
				cancel()
			}
			p, st, err := MPDP(in)
			cancel()
			if !errors.Is(err, want) || (err == nil) != (p != nil) || err != nil && st.ConnectedSets <= uint64(star.N()) {
				t.Errorf("star lattice, %d workers, %s: plan %v after %d sets, err %v; want %v", workers, mode, p != nil, st.ConnectedSets, err, want)
			}
			if left := levelHelpers(time.Second); len(left) != 0 {
				t.Errorf("star lattice, %d workers, %s: %d helpers outlived the run: %v", workers, mode, len(left), left)
			}
		}
	}
}
