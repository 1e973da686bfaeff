package parallel

import (
	"context"
	"errors"
	"fmt"
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
	levels := NewLevels(in, evaluate, buckets, threads(in))
	defer levels.Close()
	tab := prep.Seed(dp.BucketCount(buckets))
	stats := dp.Stats{ConnectedSets: uint64(in.Q.N())}
	for size := 2; size <= in.Q.N(); size++ {
		st, err := levels.Run(tab, size)
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
	levels, st := runBarrier(t, in.ForTree(), dp.EvaluateSetMPDPTree)
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
	// a clique-15's levels of up to 6 435 sets make 217, ten percent on top.
	if testing.Short() {
		return
	}
	in.Q = shapedQuery(graph.Clique(15), rng)
	if got := testing.AllocsPerRun(1, func() {
		if _, _, err := MPDP(in); err != nil {
			t.Fatal(err)
		}
	}); got > 239 {
		t.Errorf("parallel.MPDP on clique-15 makes %.0f allocations per run, ceiling 239", got)
	} else {
		t.Logf("parallel.MPDP on clique-15: %.0f allocations per run", got)
	}
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

// TestLevelsFailedRunLeavesTheWorkspaceAlone: evaluator scratch and table
// are the workspace's, so a helper goroutine that outlived a failed Run
// would write into memory the owner's next run is using. Run joins its
// helpers before it returns, error or not: a thick level dies on an
// evaluator error, on a cancellation noticed mid-level and on its deadline,
// and in every case no evaluation starts after Run has returned, the folded
// ConnectedSets are the evaluations that returned without an error — a
// worker that trips counts nothing for the set it tripped in, and its
// siblings stop within the chunk they hold. The failed level leaves sets
// claimed in the table whose slots nobody wrote; the runs that follow at once
// on the same workspace (under the race detector in CI) — another query and
// the very one that failed — are the sequential ones bit for bit.
func TestLevelsFailedRunLeavesTheWorkspaceAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	m := cost.DefaultModel()
	failing := shapedQuery(graph.Star(14), rng) // levels of up to 1 716 sets: every thread gets a share
	next := shapedQuery(graph.Star(13), rng)
	type fresh struct {
		q     *cost.Query
		plan  *plan.Node
		stats dp.Stats
	}
	var after []fresh
	for _, q := range []*cost.Query{next, failing} {
		p, st, err := dp.MPDP(dp.Input{Q: q, M: m})
		if err != nil {
			t.Fatal(err)
		}
		after = append(after, fresh{q, p, st})
	}
	ws := new(dp.Workspace)
	boom := errors.New("evaluator failed")
	for _, workers := range []int{1, 2, 4} {
		for _, mode := range []string{"evaluator error", "cancelled mid-level", "deadline"} {
			ctx, cancel := context.WithCancelCause(context.Background())
			var calls, finished, late atomic.Int64
			var returned atomic.Bool
			evaluate := func(in dp.Input, tab *plan.Table, s bitset.Mask, dl *dp.Deadline, sc *dp.Scratch) (dp.Winner, dp.Stats, error) {
				if returned.Load() {
					late.Add(1)
				}
				if calls.Add(1) == 2000 {
					switch mode {
					case "evaluator error":
						return dp.Winner{}, dp.Stats{}, boom
					case "cancelled mid-level":
						cancel(boom)
					}
				}
				win, st, err := dp.EvaluateSetMPDPTree(in, tab, s, dl, sc)
				if err == nil {
					finished.Add(1)
				}
				return win, st, err
			}
			in := dp.Input{Q: failing, M: m, Ctx: ctx, Threads: workers, Workspace: ws}.ForTree()
			prep, err := dp.Prepare(in)
			if err != nil {
				t.Fatal(err)
			}
			buckets, err := dp.ConnectedBuckets(in)
			if err != nil {
				t.Fatal(err)
			}
			want := boom
			if mode == "deadline" {
				// Past once the census is taken: the level workers' first
				// poll, 8 192 pairs into a worker's share (in the sixth level
				// on one worker), trips it.
				in.Deadline, want = time.Now().Add(-time.Second), dp.ErrTimeout
			}
			levels := NewLevels(in, evaluate, buckets, threads(in))
			tab := prep.Seed(dp.BucketCount(buckets))
			var stats dp.Stats
			err = nil
			for size := 2; size <= failing.N() && err == nil; size++ {
				var st dp.Stats
				st, err = levels.Run(tab, size)
				stats.Add(st)
			}
			returned.Store(true)
			levels.Close()
			what := fmt.Sprintf("%d workers, %s", workers, mode)
			if !errors.Is(err, want) {
				t.Fatalf("%s: err = %v after %d evaluations, want %v", what, err, calls.Load(), want)
			}
			if (levels.spawned == 0) != (workers == 1) {
				t.Fatalf("%s: the failed run started %d goroutines", what, levels.spawned)
			}
			if got, evaluated := stats.ConnectedSets, uint64(finished.Load()); got != evaluated {
				t.Errorf("%s: the failed run counts %d connected sets, %d evaluations finished", what, got, evaluated)
			}

			for _, f := range after {
				got, gotStats, err := MPDP(dp.Input{Q: f.q, M: m, Threads: workers, Workspace: ws})
				if err != nil {
					t.Fatalf("after %s: %v", what, err)
				}
				if gotStats != f.stats || math.Float64bits(got.Cost) != math.Float64bits(f.plan.Cost) || got.Explain(nil) != f.plan.Explain(nil) {
					t.Errorf("after %s, star-%d: %+v cost %v, sequential run without a workspace: %+v cost %v",
						what, f.q.N()-1, gotStats, got.Cost, f.stats, f.plan.Cost)
				}
			}
			if n := late.Load(); n != 0 {
				t.Errorf("%s: %d evaluations began after Run had returned its error", what, n)
			}
			cancel(nil)
		}
	}
}

// TestWorkspaceUnderLevelWorkers: every CPU-parallel driver on one workspace,
// layouts and sizes changing under it, against its own run without one,
// tree for tree.
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
				if gotStats != wantStats || math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || got.Explain(nil) != want.Explain(nil) {
					t.Errorf("%s, %d threads, %d relations: on a workspace %+v cost %v, without %+v cost %v",
						alg.name, threads, g.N, gotStats, got.Cost, wantStats, want.Cost)
				}
			}
		}
	}
}

// TestLevelsHandOutEverySetOnce: each worker owns a contiguous share of the
// level and drains it from its own end while thieves take chunks from the
// far end, so an off-by-one at a chunk's edge, a share's edge or the level's
// end would skip or repeat a set. Levels of every awkward length, at set
// sizes whose chunks are one set, a handful and the pair floor, under 1 to 8
// workers: each set is evaluated exactly once, counted once and its winner
// is in its own slot; and in every share the owner's sets are a prefix and
// the thieves' a suffix. Then, with helpers slowed down, the caller finishes
// its own share first and must steal from theirs.
func TestLevelsHandOutEverySetOnce(t *testing.T) {
	q := shapedQuery(graph.Chain(40), rand.New(rand.NewSource(24)))
	ws := new(dp.Workspace)
	in := dp.Input{Q: q, M: cost.DefaultModel(), Workspace: ws}
	// run drives one level of n sets of the given size and returns which
	// worker evaluated each set, and the level's schedule.
	run := func(workers, size, n int, slow bool) (by []int, active int) {
		owner := map[*dp.Scratch]int{}
		for w := 0; w < workers; w++ {
			owner[ws.Scratch(w)] = w
		}
		hits := make([]atomic.Int32, n)
		who := make([]atomic.Int32, n)
		// Set i is {0} ∪ (i+1)<<1: two relations or more, all distinct.
		evaluate := func(_ dp.Input, _ *plan.Table, s bitset.Mask, _ *dp.Deadline, sc *dp.Scratch) (dp.Winner, dp.Stats, error) {
			hits[s>>1-1].Add(1)
			who[s>>1-1].Store(int32(owner[sc]))
			if slow && owner[sc] != 0 {
				for start := time.Now(); time.Since(start) < 50*time.Microsecond; {
				}
			}
			return dp.Winner{Left: 1, Right: s &^ 1, Cost: float64(s), Found: true}, dp.Stats{Evaluated: 1}, nil
		}
		buckets := make([][]bitset.Mask, size+1)
		for i := 0; i < n; i++ {
			buckets[size] = append(buckets[size], bitset.Mask(i+1)<<1|1)
		}
		tab := plan.NewTable(40, 16)
		levels := NewLevels(in, evaluate, buckets, workers)
		active = 1
		if levels.spawned > 0 {
			active, _ = fanOut(n, size-1, workers)
		}
		st, err := levels.Run(tab, size)
		levels.Close()
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("%d workers, %d sets of size %d", workers, n, size)
		if st.ConnectedSets != uint64(n) || st.Evaluated != uint64(n) || tab.Len() != n {
			t.Errorf("%s: counted %+v, table holds %d", what, st, tab.Len())
		}
		by = make([]int, n)
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("%s: set %d evaluated %d times", what, i, got)
			}
			s := bitset.Mask(i+1)<<1 | 1
			if c, ok := tab.Cost(s); !ok || c != float64(s) {
				t.Fatalf("%s: set %v stored cost %v (%v)", what, s, c, ok)
			}
			by[i] = int(who[i].Load())
		}
		for w := 0; w < active; w++ {
			lo, hi := w*n/active, (w+1)*n/active
			i := lo
			for i < hi && by[i] == w {
				i++
			}
			for ; i < hi; i++ {
				if by[i] == w {
					t.Fatalf("%s: worker %d drew set %d of its share [%d, %d) after a thief took an earlier one", what, w, i, lo, hi)
				}
			}
		}
		return by, active
	}
	for _, workers := range []int{1, 2, 3, 4, 8} {
		for _, size := range []int{2, 3, 9, 40} {
			for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 1000, 4099} {
				run(workers, size, n, false)
			}
		}
	}
	for _, workers := range []int{2, 4} {
		by, active := run(workers, 9, 1000, true)
		if active < 2 {
			t.Fatalf("%d workers: 1000 sets of 8 pairs stayed on one worker", workers)
		}
		stolen := 0
		for _, w := range by[1000/active:] {
			if w == 0 {
				stolen++
			}
		}
		if stolen == 0 {
			t.Errorf("%d workers with slow helpers: the caller stole no set from their shares", workers)
		}
	}
}

// TestLevelsInPlaceBitIdentical: workers write their winners into claimed
// slots as they go, so a slot written early or late, by one worker or
// another, must change nothing. At 1, 2, 3, 4 and 8 workers, plans (cost bits
// and explain bytes) and counters are the sequential enumerator's, on hashed
// tables — a snowflake-26 on Algorithm 2, a MusicBrainz-18 on the general
// path — and direct ones (star-16, clique-13), and the same for the
// level-parallel DPSub against dp.DPSub.
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
		name     string
		q        *cost.Query
		seq, par dp.Func
	}{
		{"MPDP/snowflake-26", gen(workload.KindSnowflake, 26), dp.MPDP, MPDP},
		{"MPDP/musicbrainz-18", gen(workload.KindMB, 18), dp.MPDP, MPDP},
		{"MPDP/star-16", gen(workload.KindStar, 16), dp.MPDP, MPDP},
		{"MPDP/clique-13", gen(workload.KindClique, 13), dp.MPDP, MPDP},
		{"DPSub/star-13", gen(workload.KindStar, 13), dp.DPSub, DPSubParallel},
		{"DPSub/musicbrainz-13", gen(workload.KindMB, 13), dp.DPSub, DPSubParallel},
		{"DPSub/clique-11", gen(workload.KindClique, 11), dp.DPSub, DPSubParallel},
	} {
		if tc.name == "MPDP/musicbrainz-18" && tc.q.G.IsTree() {
			t.Fatalf("%s is a tree: the row no longer reaches the general evaluator", tc.name)
		}
		want, wantStats, err := tc.seq(dp.Input{Q: tc.q, M: m})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 4, 8} {
			got, gotStats, err := tc.par(dp.Input{Q: tc.q, M: m, Threads: workers})
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
	_, _ = NewLevels(in, none, buckets, 1).Run(tab, 2)
}

// TestChunkRule: a level fans out on its pair volume. A worker is brought in
// only with chunkPairs pairs to draw, never beyond the sets or the workers
// there are, and whenever the volume has that many to give; a draw is never
// empty, is the whole level for a lone worker, carries chunkPairs pairs
// where the level has them to give, and leaves every worker at least eight
// draws of a level thick enough. The top levels of a clique-12 — 66 and 12
// sets whose pairs per set the level below says are at least 255 and 511 —
// are shared, which a count of sets kept on one worker.
func TestChunkRule(t *testing.T) {
	for _, pairs := range []int{0, 1, 2, 14, 39, 255, 2047, 1 << 20} {
		for _, sets := range []int{0, 1, 2, 12, 64, 66, 128, 1716, 100000} {
			for _, workers := range []int{1, 2, 4, 8} {
				active, c := fanOut(sets, pairs, workers)
				p := max(pairs, 1)
				what := fmt.Sprintf("%d sets of %d pairs, %d workers", sets, pairs, workers)
				if want := max(min(workers, sets, sets*p/chunkPairs), 1); active != want {
					t.Errorf("%s: %d active, want %d", what, active, want)
				}
				if active == 1 {
					if c < sets || c < 1 {
						t.Errorf("%s: a lone worker draws %d sets", what, c)
					}
					continue
				}
				if active*chunkPairs > sets*p {
					t.Errorf("%s: %d workers share %d pairs", what, active, sets*p)
				}
				if c < 1 || c*p < chunkPairs {
					t.Errorf("%s: a draw of %d sets is %d pairs", what, c, c*p)
				}
				if floor := (chunkPairs + p - 1) / p; c > floor && c*8*active > sets {
					t.Errorf("%s: a draw of %d sets leaves a worker fewer than 8", what, c)
				}
			}
		}
	}
	for _, level := range []struct{ sets, pairs int }{{66, 255}, {12, 511}} {
		if active, c := fanOut(level.sets, level.pairs, 2); active != 2 || c < 1 || c > level.sets/2 {
			t.Errorf("clique-12, %d sets of %d pairs: %d workers drawing %d sets", level.sets, level.pairs, active, c)
		}
	}
}

// levelHelpers counts the goroutines inside Levels.help, giving one that has
// just been joined a second to get past its last statement, and returns
// their stack headers ("goroutine 7 [chan receive]:").
func levelHelpers(settle time.Duration) (headers []string) {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(settle); ; time.Sleep(time.Millisecond) {
		headers = headers[:0]
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "parallel.(*Levels).help(") {
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
// no helper goroutine outlives the parallel driver (MPDP is levelParallel
// with Algorithm 2's evaluator; the wrapper below only stalls or cancels it
// at its 2 000th set).
func TestHelpersJoinedOnEveryPath(t *testing.T) {
	q := shapedQuery(graph.Star(14), rand.New(rand.NewSource(26))) // levels of up to 1 716 sets
	m := cost.DefaultModel()
	for _, workers := range []int{1, 2, 4} {
		for _, mode := range []string{"success", "deadline", "cancelled"} {
			ctx, cancel := context.WithCancel(context.Background())
			in := dp.Input{Q: q, M: m, Ctx: ctx, Threads: workers, Deadline: time.Now().Add(time.Minute)}
			var calls atomic.Int64
			evaluate := func(in dp.Input, tab *plan.Table, s bitset.Mask, dl *dp.Deadline, sc *dp.Scratch) (dp.Winner, dp.Stats, error) {
				if calls.Add(1) == 2000 {
					switch mode {
					case "deadline":
						time.Sleep(time.Until(in.Deadline) + time.Millisecond)
					case "cancelled":
						cancel()
					}
				}
				return dp.EvaluateSetMPDPTree(in, tab, s, dl, sc)
			}
			want := map[string]error{"success": nil, "deadline": dp.ErrTimeout, "cancelled": context.Canceled}[mode]
			if mode == "deadline" {
				in.Deadline = time.Now().Add(200 * time.Millisecond)
			}
			p, _, err := levelParallel(in.ForTree(), evaluate)
			cancel()
			if !errors.Is(err, want) || (err == nil) != (p != nil) {
				t.Errorf("%d workers, %s: plan %v, err %v; want %v", workers, mode, p != nil, err, want)
			}
			if left := levelHelpers(time.Second); len(left) != 0 {
				t.Errorf("%d workers, %s: %d helpers outlived the run: %v", workers, mode, len(left), left)
			}
		}
	}
}

// TestHelpersParkWhenTheCallerStalls: a helper spins for spinBudget between
// levels and then parks, so a caller held up between levels — by a thin
// level, or here by sleeping — does not keep a core busy for nothing. After
// a stall of fifty spin budgets every helper is blocked on its wake channel,
// not runnable. Opening the next level must wake them: the caller's first
// set of it waits until a helper has evaluated one (at one P too, since the
// caller sleeps while it waits). The plan is the sequential enumerator's.
func TestHelpersParkWhenTheCallerStalls(t *testing.T) {
	q := shapedQuery(graph.Star(14), rand.New(rand.NewSource(27)))
	m := cost.DefaultModel()
	want, wantStats, err := dp.MPDP(dp.Input{Q: q, M: m})
	if err != nil {
		t.Fatal(err)
	}
	ws := new(dp.Workspace)
	in := dp.Input{Q: q, M: m, Threads: 4, Workspace: ws}.ForTree()
	prep, err := dp.Prepare(in)
	if err != nil {
		t.Fatal(err)
	}
	buckets, err := dp.ConnectedBuckets(in)
	if err != nil {
		t.Fatal(err)
	}
	var stalled, woken atomic.Bool
	var helped atomic.Int64
	caller := ws.Scratch(0)
	evaluate := func(in dp.Input, tab *plan.Table, s bitset.Mask, dl *dp.Deadline, sc *dp.Scratch) (dp.Winner, dp.Stats, error) {
		if sc != caller {
			helped.Add(1)
		} else if stalled.Load() && !woken.Load() {
			for deadline := time.Now().Add(2 * time.Second); helped.Load() == 0 && time.Now().Before(deadline); {
				time.Sleep(100 * time.Microsecond)
			}
			woken.Store(true)
		}
		return dp.EvaluateSetMPDPTree(in, tab, s, dl, sc)
	}
	levels := NewLevels(in, evaluate, buckets, 4)
	defer levels.Close()
	if levels.spawned != 3 {
		t.Fatalf("star-14 at 4 workers started %d helpers, want 3", levels.spawned)
	}
	tab := prep.Seed(dp.BucketCount(buckets))
	stats := dp.Stats{ConnectedSets: uint64(q.N())}
	for size := 2; size <= q.N(); size++ {
		if size == 7 {
			time.Sleep(50 * spinBudget)
			var headers []string
			for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
				headers = levelHelpers(0)
				parked := 0
				for _, h := range headers {
					if strings.Contains(h, "[chan receive") {
						parked++
					}
				}
				if parked == 3 || time.Now().After(deadline) {
					break
				}
			}
			if len(headers) != 3 {
				t.Fatalf("stalled after level 6: %d helpers alive, want 3: %v", len(headers), headers)
			}
			for _, h := range headers {
				if !strings.Contains(h, "[chan receive") {
					t.Errorf("stalled for %v between levels, a helper is %s", 50*spinBudget, h)
				}
			}
			helped.Store(0)
			stalled.Store(true)
		}
		st, err := levels.Run(tab, size)
		if err != nil {
			t.Fatal(err)
		}
		stats.Add(st)
		if size == 7 && helped.Load() == 0 {
			t.Errorf("no parked helper woke for the level after the stall")
		}
	}
	got, gotStats, err := dp.Finish(in, tab, prep.Leaves, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if gotStats != wantStats || math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || got.Explain(nil) != want.Explain(nil) {
		t.Errorf("after the stall: %+v cost %v, sequential %+v cost %v", gotStats, got.Cost, wantStats, want.Cost)
	}
}
