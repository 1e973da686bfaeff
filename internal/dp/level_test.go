package dp

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
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/workload"
)

// runMPDP is MPDP at the given worker count, as parallel.MPDP runs it.
func runMPDP(in Input, workers int) (*plan.Node, Stats, error) {
	if in.Q.G.IsTree() {
		return RunLevels(in.ForTree(), EvaluateSetMPDPTree, workers, nil)
	}
	return RunLevels(in, EvaluateSetMPDP, workers, nil)
}

// sameRun reports the first difference of a run from the reference run:
// counters, cost bits or Explain text.
func sameRun(got *plan.Node, gotStats Stats, want *plan.Node, wantStats Stats) error {
	switch {
	case gotStats != wantStats:
		return fmt.Errorf("counters %+v, reference %+v", gotStats, wantStats)
	case math.Float64bits(got.Cost) != math.Float64bits(want.Cost):
		return fmt.Errorf("cost %v, reference %v", got.Cost, want.Cost)
	case got.Explain(nil) != want.Explain(nil):
		return fmt.Errorf("plan\n%s\nreference\n%s", got.Explain(nil), want.Explain(nil))
	}
	return nil
}

// runBarrier drives the level barrier by hand, as RunLevels does, and
// returns it for inspection together with the folded counters.
func runBarrier(t *testing.T, in Input, evaluate SetEvaluator, workers int) (*Levels, Stats) {
	t.Helper()
	prep, err := prepare(in)
	if err != nil {
		t.Fatal(err)
	}
	buckets, err := ConnectedBuckets(in)
	if err != nil {
		t.Fatal(err)
	}
	levels := NewLevels(in, evaluate, buckets, workers)
	defer levels.Close()
	tab := prep.seed(BucketCount(buckets))
	stats := Stats{ConnectedSets: uint64(in.Q.N())}
	for size := 2; size <= in.Q.N(); size++ {
		st, err := levels.Run(tab, size)
		if err != nil {
			t.Fatal(err)
		}
		stats.Add(st)
	}
	return levels, stats
}

// TestLevelsMatchReference: the sequential enumerators and the CPU-parallel
// ones run one driver, so comparing them with each other sees nothing of a
// defect they share. At 1, 2, 4 and 8 workers the driver's plans (cost bits
// and Explain text) and counters are those of the plain per-set loop
// (referenceLevels): MPDP through its evaluator choice on trees (Algorithm
// 2) and general graphs (Algorithm 3), Algorithm 3 forced onto a tree, and
// DPSub; on hashed tables (snowflake, MusicBrainz, cycle, random) and direct
// ones (star, clique), thin levels and thick. The package's entry points,
// at one worker, are the same bits.
func TestLevelsMatchReference(t *testing.T) {
	gen := func(kind workload.Kind, n int) *cost.Query {
		q, err := workload.Generate(kind, n, rand.New(rand.NewSource(2500+int64(n))))
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	rng := rand.New(rand.NewSource(12))
	general := func(in Input) (*plan.Node, Stats, error) { return referenceLevels(in, EvaluateSetMPDP) }
	generalAt := func(in Input, w int) (*plan.Node, Stats, error) { return RunLevels(in, EvaluateSetMPDP, w, nil) }
	dpsub := func(in Input) (*plan.Node, Stats, error) { return referenceLevels(in, EvaluateSetDPSub) }
	dpsubAt := func(in Input, w int) (*plan.Node, Stats, error) { return RunLevels(in, EvaluateSetDPSub, w, nil) }
	m := cost.DefaultModel()
	for _, tc := range []struct {
		name  string
		q     *cost.Query
		entry Func // the package's sequential entry point
		ref   Func
		run   func(Input, int) (*plan.Node, Stats, error)
	}{
		{"MPDP/snowflake-20", gen(workload.KindSnowflake, 20), MPDP, referenceMPDP, runMPDP},
		{"MPDP/musicbrainz-18", gen(workload.KindMB, 18), MPDP, referenceMPDP, runMPDP},
		{"MPDP/star-14", gen(workload.KindStar, 14), MPDP, referenceMPDP, runMPDP},
		{"MPDP/clique-12", gen(workload.KindClique, 12), MPDP, referenceMPDP, runMPDP},
		{"MPDP/cycle-14", topoQuery(graph.Cycle(14), rng), MPDP, referenceMPDP, runMPDP},
		{"MPDP/random-12", randomQuery(12, 5, rng), MPDP, referenceMPDP, runMPDP},
		{"MPDPGeneral/star-12", gen(workload.KindStar, 12), MPDPGeneral, general, generalAt},
		{"DPSub/star-12", gen(workload.KindStar, 12), DPSub, dpsub, dpsubAt},
		{"DPSub/musicbrainz-12", gen(workload.KindMB, 12), DPSub, dpsub, dpsubAt},
		{"DPSub/clique-10", gen(workload.KindClique, 10), DPSub, dpsub, dpsubAt},
	} {
		if tc.name == "MPDP/musicbrainz-18" && tc.q.G.IsTree() {
			t.Fatalf("%s is a tree: the row no longer reaches the general evaluator", tc.name)
		}
		in := Input{Q: tc.q, M: m}
		want, wantStats, err := tc.ref(in)
		if err != nil {
			t.Fatal(err)
		}
		got, gotStats, err := tc.entry(in)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameRun(got, gotStats, want, wantStats); d != nil {
			t.Errorf("%s: %v", tc.name, d)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			got, gotStats, err := tc.run(in, workers)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", tc.name, workers, err)
			}
			if d := sameRun(got, gotStats, want, wantStats); d != nil {
				t.Errorf("%s, %d workers: %v", tc.name, workers, d)
			}
		}
	}
}

// TestThinLevelsRunOnTheCaller: a cycle-24 has 24 connected sets on each of
// its levels, a microsecond of work apiece. Four or eight workers must not
// buy it 23 rounds of goroutine start and park: every level runs on the
// calling goroutine, and plans and counters are the reference loop's.
func TestThinLevelsRunOnTheCaller(t *testing.T) {
	q := topoQuery(graph.Cycle(24), rand.New(rand.NewSource(16)))
	in := Input{Q: q, M: cost.DefaultModel()}
	want, wantStats, err := referenceMPDP(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		levels, st := runBarrier(t, in, EvaluateSetMPDP, workers)
		if levels.spawned != 0 {
			t.Errorf("cycle-24 with %d workers started %d goroutines, want 0", workers, levels.spawned)
		}
		if st != wantStats {
			t.Errorf("%d workers: barrier counters %+v, reference %+v", workers, st, wantStats)
		}
		got, gotStats, err := runMPDP(in, workers)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameRun(got, gotStats, want, wantStats); d != nil {
			t.Errorf("MPDP at %d workers: %v", workers, d)
		}
	}
}

// TestThickLevelsFanOut is the other side of the threshold: a 20-relation
// tree has levels of thousands of sets (and a hashed table), so workers are
// started whenever there is more than one, and what they count and store is
// what the reference loop does on one goroutine — for a bounded number of
// allocations.
func TestThickLevelsFanOut(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	q := topoQuery(graph.RandomConnected(20, 0, rng), rng)
	in := Input{Q: q, M: cost.DefaultModel()}
	want, wantStats, err := referenceMPDP(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		levels, st := runBarrier(t, in.ForTree(), EvaluateSetMPDPTree, workers)
		if (levels.spawned == 0) != (workers == 1) {
			t.Errorf("%d workers over %d connected sets started %d goroutines", workers, wantStats.ConnectedSets, levels.spawned)
		}
		if st != wantStats {
			t.Errorf("%d workers: barrier counters %+v, reference %+v", workers, st, wantStats)
		}
		got, gotStats, err := runMPDP(in, workers)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameRun(got, gotStats, want, wantStats); d != nil {
			t.Errorf("MPDP at %d workers: %v", workers, d)
		}
	}

	// Fanning out costs a bounded number of allocations: four workers over
	// a clique-15's levels of up to 6 435 sets make 217, ten percent on top.
	if testing.Short() {
		return
	}
	in.Q = topoQuery(graph.Clique(15), rng)
	if got := testing.AllocsPerRun(1, func() {
		if _, _, err := runMPDP(in, 4); err != nil {
			t.Fatal(err)
		}
	}); got > 239 {
		t.Errorf("MPDP at 4 workers on clique-15 makes %.0f allocations per run, ceiling 239", got)
	} else {
		t.Logf("MPDP at 4 workers on clique-15: %.0f allocations per run", got)
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
// the very one that failed — are the reference loop's bit for bit.
func TestLevelsFailedRunLeavesTheWorkspaceAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	m := cost.DefaultModel()
	failing := topoQuery(graph.Star(14), rng) // levels of up to 1 716 sets: every thread gets a share
	next := topoQuery(graph.Star(13), rng)
	type fresh struct {
		q     *cost.Query
		plan  *plan.Node
		stats Stats
	}
	var after []fresh
	for _, q := range []*cost.Query{next, failing} {
		p, st, err := referenceMPDP(Input{Q: q, M: m})
		if err != nil {
			t.Fatal(err)
		}
		after = append(after, fresh{q, p, st})
	}
	ws := new(Workspace)
	boom := errors.New("evaluator failed")
	for _, workers := range []int{1, 2, 4} {
		for _, mode := range []string{"evaluator error", "cancelled mid-level", "deadline"} {
			ctx, cancel := context.WithCancelCause(context.Background())
			var calls, finished, late atomic.Int64
			var returned atomic.Bool
			evaluate := func(in Input, tab *plan.Table, s bitset.Mask, dl *Deadline, sc *Scratch) (Winner, Stats, error) {
				if returned.Load() {
					late.Add(1)
				}
				if calls.Add(1) == 2000 {
					switch mode {
					case "evaluator error":
						return Winner{}, Stats{}, boom
					case "cancelled mid-level":
						cancel(boom)
					}
				}
				win, st, err := EvaluateSetMPDPTree(in, tab, s, dl, sc)
				if err == nil {
					finished.Add(1)
				}
				return win, st, err
			}
			in := Input{Q: failing, M: m, Ctx: ctx, Workspace: ws}.ForTree()
			prep, err := prepare(in)
			if err != nil {
				t.Fatal(err)
			}
			buckets, err := ConnectedBuckets(in)
			if err != nil {
				t.Fatal(err)
			}
			want := boom
			if mode == "deadline" {
				// Past once the census is taken: the level workers' first
				// poll, 8 192 pairs into a worker's share (in the sixth level
				// on one worker), trips it.
				in.Ctx, want = spentBudget(), ErrTimeout
			}
			levels := NewLevels(in, evaluate, buckets, workers)
			tab := prep.seed(BucketCount(buckets))
			var stats Stats
			err = nil
			for size := 2; size <= failing.N() && err == nil; size++ {
				var st Stats
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
				got, gotStats, err := runMPDP(Input{Q: f.q, M: m, Workspace: ws}, workers)
				if err != nil {
					t.Fatalf("after %s: %v", what, err)
				}
				if d := sameRun(got, gotStats, f.plan, f.stats); d != nil {
					t.Errorf("after %s, star-%d, against the reference without a workspace: %v", what, f.q.N()-1, d)
				}
			}
			if n := late.Load(); n != 0 {
				t.Errorf("%s: %d evaluations began after Run had returned its error", what, n)
			}
			cancel(nil)
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
	q := topoQuery(graph.Chain(40), rand.New(rand.NewSource(24)))
	ws := new(Workspace)
	in := Input{Q: q, M: cost.DefaultModel(), Workspace: ws}
	// run drives one level of n sets of the given size and returns which
	// worker evaluated each set, and the level's schedule.
	run := func(workers, size, n int, slow bool) (by []int, active int) {
		owner := map[*Scratch]int{}
		for w := 0; w < workers; w++ {
			owner[ws.Scratch(w)] = w
		}
		hits := make([]atomic.Int32, n)
		who := make([]atomic.Int32, n)
		// Set i is {0} ∪ (i+1)<<1: two relations or more, all distinct.
		evaluate := func(_ Input, _ *plan.Table, s bitset.Mask, _ *Deadline, sc *Scratch) (Winner, Stats, error) {
			hits[s>>1-1].Add(1)
			who[s>>1-1].Store(int32(owner[sc]))
			if slow && owner[sc] != 0 {
				for start := time.Now(); time.Since(start) < 50*time.Microsecond; {
				}
			}
			return Winner{Left: 1, Right: s &^ 1, Cost: float64(s), Found: true}, Stats{Evaluated: 1}, nil
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
			if strings.Contains(g, "dp.(*Levels).help(") {
				headers = append(headers, g[:strings.IndexByte(g, '\n')])
			}
		}
		if len(headers) == 0 || time.Now().After(deadline) {
			return headers
		}
	}
}

// TestHelpersParkWhenTheCallerStalls: a helper spins for spinBudget between
// levels and then parks, so a caller held up between levels — by a thin
// level, or here by sleeping — does not keep a core busy for nothing. After
// a stall of fifty spin budgets every helper is blocked on its wake channel,
// not runnable. Opening the next level must wake them: the caller's first
// set of it waits until a helper has evaluated one (at one P too, since the
// caller sleeps while it waits). The plan is the reference loop's.
func TestHelpersParkWhenTheCallerStalls(t *testing.T) {
	q := topoQuery(graph.Star(14), rand.New(rand.NewSource(27)))
	m := cost.DefaultModel()
	want, wantStats, err := referenceMPDP(Input{Q: q, M: m})
	if err != nil {
		t.Fatal(err)
	}
	ws := new(Workspace)
	in := Input{Q: q, M: m, Workspace: ws}.ForTree()
	prep, err := prepare(in)
	if err != nil {
		t.Fatal(err)
	}
	buckets, err := ConnectedBuckets(in)
	if err != nil {
		t.Fatal(err)
	}
	var stalled, woken atomic.Bool
	var helped atomic.Int64
	caller := ws.Scratch(0)
	evaluate := func(in Input, tab *plan.Table, s bitset.Mask, dl *Deadline, sc *Scratch) (Winner, Stats, error) {
		if sc != caller {
			helped.Add(1)
		} else if stalled.Load() && !woken.Load() {
			for deadline := time.Now().Add(2 * time.Second); helped.Load() == 0 && time.Now().Before(deadline); {
				time.Sleep(100 * time.Microsecond)
			}
			woken.Store(true)
		}
		return EvaluateSetMPDPTree(in, tab, s, dl, sc)
	}
	levels := NewLevels(in, evaluate, buckets, 4)
	defer levels.Close()
	if levels.spawned != 3 {
		t.Fatalf("star-14 at 4 workers started %d helpers, want 3", levels.spawned)
	}
	tab := prep.seed(BucketCount(buckets))
	stats := Stats{ConnectedSets: uint64(q.N())}
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
	got, gotStats, err := finish(in, tab, prep.leaves, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if d := sameRun(got, gotStats, want, wantStats); d != nil {
		t.Errorf("after the stall: %v", d)
	}
}
