package dp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/bitset"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/plan"
)

// sameTree reports the first difference between two plans, floats compared
// bit for bit.
func sameTree(got, want *plan.Node) error {
	if got.Set != want.Set || got.Op != want.Op || got.RelID != want.RelID || got.IsLeaf() != want.IsLeaf() ||
		math.Float64bits(got.Rows) != math.Float64bits(want.Rows) || math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		return fmt.Errorf("node %v (op %v rel %d rows %v cost %v), want %v (op %v rel %d rows %v cost %v)",
			got.Set, got.Op, got.RelID, got.Rows, got.Cost, want.Set, want.Op, want.RelID, want.Rows, want.Cost)
	}
	if got.IsLeaf() {
		return nil
	}
	if err := sameTree(got.Left, want.Left); err != nil {
		return err
	}
	return sameTree(got.Right, want.Right)
}

// checkAgainstFresh runs every sequential enumerator on q twice, without a
// workspace and on ws, and wants the same trees and counters.
func checkAgainstFresh(t *testing.T, label string, q *cost.Query, ws *Workspace) {
	t.Helper()
	fresh := Input{Q: q, M: cost.DefaultModel()}
	borrowed := fresh
	borrowed.Workspace = ws
	for _, alg := range allAlgorithms {
		want, wantStats, err := alg.f(fresh)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, alg.name, err)
		}
		got, gotStats, err := alg.f(borrowed)
		if err != nil {
			t.Fatalf("%s: %s on a workspace: %v", label, alg.name, err)
		}
		if err := sameTree(got, want); err != nil {
			t.Errorf("%s: %s on a workspace: %v", label, alg.name, err)
		}
		if gotStats != wantStats {
			t.Errorf("%s: %s on a workspace counts %+v, without %+v", label, alg.name, gotStats, wantStats)
		}
	}
}

// TestWorkspaceRunsMatchFresh: one workspace, never replaced, under every
// sequential enumerator on random graphs whose sizes go up and down, so
// each run finds the table, census, scratch and arena the previous one
// left, in whatever layout that one needed. Every result must be what the
// run returns without a workspace, bit for bit.
func TestWorkspaceRunsMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	ws := new(Workspace)
	for i := 0; i < 40; i++ {
		n := 1 + rng.Intn(11)
		q := randomQuery(n, rng.Intn(n+1), rng)
		checkAgainstFresh(t, fmt.Sprintf("query %d (n=%d)", i, n), q, ws)
	}
	for _, g := range []*graph.Graph{graph.Star(14), graph.Cycle(14), graph.Clique(9), graph.Chain(3)} {
		checkAgainstFresh(t, fmt.Sprintf("%d relations, %d edges", g.N, len(g.Edges)), topoQuery(g, rng), ws)
	}
}

// TestWorkspaceSurvivesAbortedRun: a run that dies in the middle of a level
// — budget or cancellation — leaves a half-written table, a full census and
// a scratch in mid-walk behind. The next run on that workspace must not
// see any of it.
func TestWorkspaceSurvivesAbortedRun(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	big := topoQuery(graph.Clique(13), rng)
	next := []*cost.Query{topoQuery(graph.Clique(8), rng), randomQuery(12, 6, rng), topoQuery(graph.Star(13), rng)}
	ws := new(Workspace)

	// Cancelled mid-level, at a set of the evaluator's choosing.
	for i, alg := range []SetEvaluator{EvaluateSetMPDP, EvaluateSetDPSub} {
		ctx, cancel := context.WithCancelCause(context.Background())
		stop := errors.New("stop here")
		sets := 0
		_, st, err := RunLevels(Input{Q: big, M: cost.DefaultModel(), Ctx: ctx, Workspace: ws},
			func(in Input, tab *plan.Table, s bitset.Mask, dl *Deadline, sc *Scratch) (Winner, Stats, error) {
				if sets++; sets == 3000 {
					cancel(stop)
					return Winner{}, Stats{}, context.Cause(ctx)
				}
				return alg(in, tab, s, dl, sc)
			}, 1, nil)
		if !errors.Is(err, stop) || st.ConnectedSets == 0 {
			t.Fatalf("evaluator %d: err = %v after %d sets, want the cancellation mid-run", i, err, st.ConnectedSets)
		}
		checkAgainstFresh(t, fmt.Sprintf("after cancelled run %d", i), next[i], ws)
	}

	// Out of budget wherever the clock says: every enumerator, table
	// growth and the census walk included.
	for _, alg := range allAlgorithms {
		ctx, cancel := context.WithTimeoutCause(context.Background(), 2*time.Millisecond, ErrTimeout)
		in := Input{Q: big, M: cost.DefaultModel(), Ctx: ctx, Workspace: ws}
		_, _, err := alg.f(in)
		cancel()
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("%s: err = %v, want ErrTimeout (a clique-13 does not finish in 2 ms)", alg.name, err)
		}
		checkAgainstFresh(t, "after "+alg.name+" ran out of budget", next[2], ws)
	}
}

// retainedBytes is an upper bound on what w keeps alive once its next run
// has begun: a table never holds more than its slot capacity in any of its
// arrays (8 B cost, 40 B cold record and, hashed, an 8 B key per slot; a
// presence bit when direct), the star lattice holds 26 B of lanes per set,
// and the arena is rewound to one chunk of 512 nodes (plan.Arena.Reset;
// TestArenaResetRecyclesChunks holds it to that).
func (w *Workspace) retainedBytes() int {
	slots := w.tab.Cap()
	return slots*(8+40+8) + slots/8 +
		censusCap(w.census)*8 +
		cap(w.spider.cost)*starLaneBytes +
		512*int(unsafe.Sizeof(plan.Node{}))
}

// starLaneBytes is what the star lattice keeps per set: cost, rows and
// log-rows, the split and the operator.
const starLaneBytes = 8 + 8 + 8 + 1 + 1

// retainBytes is retainedBytes of a workspace at the retention bound.
const retainBytes = retainSlots*(8+40+8) + retainSlots/8 +
	retainSlots*8 +
	retainSlots*starLaneBytes +
	512*int(unsafe.Sizeof(plan.Node{}))

// TestWorkspaceRetentionBound: a run larger than the retention bound gets
// the memory it needs and the workspace has let go of it when the run
// returns, so a worker that served one star-17 on the census path does not
// sit on a 6 MB table until its next request. A run that dies before finish
// keeps what it had until the next run begins, which is when anyone could
// use it again. (MPDP takes a star to the lattice, whose lanes of a star-17
// fit the bound: TestStarLatticeWorkspace.)
func TestWorkspaceRetentionBound(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ws := new(Workspace)
	small := topoQuery(graph.Star(10), rng)
	checkAgainstFresh(t, "before", small, ws)
	if got := ws.retainedBytes(); got > retainBytes {
		t.Fatalf("a star-10 leaves %d B retained, bound %d", got, retainBytes)
	}

	big := Input{Q: topoQuery(graph.Star(17), rng), M: cost.DefaultModel()} // 2^16 + 16 sets
	want, st, err := MPDPTree(big)
	if err != nil {
		t.Fatal(err)
	}
	if st.ConnectedSets <= retainSlots {
		t.Fatalf("a star-17 has %d connected sets, within the retention bound: the test needs a larger query", st.ConnectedSets)
	}
	big.Workspace = ws
	got, _, err := MPDPTree(big)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameTree(got, want); err != nil {
		t.Errorf("star-17 on a workspace: %v", err)
	}
	if got := ws.retainedBytes(); got > retainBytes {
		t.Errorf("%d B retained when a star-17 has returned, bound %d", got, retainBytes)
	}

	// The same run, stopped two thirds in: its table and census stay until
	// the next run begins.
	ctx, cancel := context.WithCancel(context.Background())
	big.Ctx = ctx
	sets := 0
	_, _, err = RunLevels(big.ForTree(), func(in Input, tab *plan.Table, s bitset.Mask, dl *Deadline, sc *Scratch) (Winner, Stats, error) {
		if sets++; sets == 40000 {
			cancel()
			return Winner{}, Stats{}, context.Cause(ctx)
		}
		return EvaluateSetMPDPTree(in, tab, s, dl, sc)
	}, 1, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the cancellation", err)
	}
	over := ws.retainedBytes()
	if over <= retainBytes {
		t.Fatalf("an aborted star-17 left only %d B: the test no longer exceeds the bound %d", over, retainBytes)
	}
	checkAgainstFresh(t, "after", small, ws)
	if got := ws.retainedBytes(); got > retainBytes {
		t.Errorf("%d B retained after the run that followed an aborted star-17 (%d B right after it), bound %d", got, over, retainBytes)
	} else {
		t.Logf("retained: %d B after an aborted star-17, %d B once the next run began (bound %d)", over, got, retainBytes)
	}
}

// warmRetainBytes is retainedBytes of a warm workspace at its bound.
const warmRetainBytes = warmRetainSlots*(8+40+8) + warmRetainSlots/8 +
	warmRetainSlots*8 +
	512*int(unsafe.Sizeof(plan.Node{}))

// runBytes runs f on in and returns its plan and the bytes it allocated.
func runBytes(t *testing.T, f Func, in Input) (*plan.Node, uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	best, _, err := f(in)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return best, after.TotalAlloc - before.TotalAlloc
}

// TestWarmWorkspaceKeepsStar17: a warm workspace keeps a star-17's table
// (2^17 direct slots) and census when the census path (MPDPTree) has built
// its tree, so the next star-17, under other statistics, allocates its base
// plans and little else; a plain workspace lets both go
// (TestWorkspaceRetentionBound) and the next one allocates them again. The
// star lattice's lanes follow the same rule: TestStarLatticeWorkspace.
func TestWarmWorkspaceKeepsStar17(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	m := cost.DefaultModel()
	warm, plain := NewWarmWorkspace(), new(Workspace)
	var warmBytes, plainBytes uint64
	for round := 0; round < 3; round++ {
		q := topoQuery(graph.Star(17), rng)
		want, _, err := MPDPTree(Input{Q: q, M: m})
		if err != nil {
			t.Fatal(err)
		}
		for _, ws := range []*Workspace{warm, plain} {
			got, bytes := runBytes(t, MPDPTree, Input{Q: q, M: m, Workspace: ws})
			if err := sameTree(got, want); err != nil {
				t.Fatalf("round %d, warm=%v: %v", round, ws.warm, err)
			}
			if ws == warm {
				warmBytes = bytes
			} else {
				plainBytes = bytes
			}
		}
		if slots, masks := warm.tab.Cap(), censusCap(warm.census); slots <= retainSlots || masks <= retainSlots {
			t.Fatalf("round %d: the warm workspace kept %d slots and %d census masks of a star-17, want both above %d", round, slots, masks, retainSlots)
		}
		if got := warm.retainedBytes(); got > warmRetainBytes {
			t.Fatalf("round %d: the warm workspace keeps %d B, bound %d", round, got, warmRetainBytes)
		}
	}
	t.Logf("a star-17 after the first: %d B on a warm workspace, %d B on a plain one", warmBytes, plainBytes)
	if warmBytes > 64<<10 {
		t.Errorf("a star-17 on a warm workspace that ran one before allocated %d B, want ≤ 64 KB", warmBytes)
	}
	if plainBytes < 4<<20 {
		t.Errorf("a star-17 on a plain workspace allocated only %d B: the test no longer sees the table regrow", plainBytes)
	}
}

// TestWarmWorkspaceDropsStar19: a star-19 on the census path (MPDPTree)
// direct-addresses 2^19 slots, past the warm bound; the warm workspace lets
// its table and census go at finish, as a plain one does past retainSlots.
func TestWarmWorkspaceDropsStar19(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	in := Input{Q: topoQuery(graph.Star(19), rng), M: cost.DefaultModel()}
	want, st, err := MPDPTree(in)
	if err != nil {
		t.Fatal(err)
	}
	if st.ConnectedSets <= warmRetainSlots {
		t.Fatalf("a star-19 has %d connected sets, within the warm bound: the test needs a larger query", st.ConnectedSets)
	}
	in.Workspace = NewWarmWorkspace()
	got, _, err := MPDPTree(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameTree(got, want); err != nil {
		t.Errorf("star-19 on a warm workspace: %v", err)
	}
	if got := in.Workspace.retainedBytes(); got > warmRetainBytes {
		t.Errorf("%d B retained when a star-19 has returned, warm bound %d", got, warmRetainBytes)
	}
}

// TestWarmWorkspaceAfterCancelledRun: a star-17 cancelled two thirds in
// leaves a half-written table the warm workspace keeps, since it fits the
// bound. The runs that follow on it — the same join graph under other
// statistics, and smaller queries under every sequential enumerator — must
// be bit-identical to runs on fresh memory.
func TestWarmWorkspaceAfterCancelledRun(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	m := cost.DefaultModel()
	ws := NewWarmWorkspace()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sets := 0
	_, _, err := RunLevels(Input{Q: topoQuery(graph.Star(17), rng), M: m, Ctx: ctx, Workspace: ws}.ForTree(),
		func(in Input, tab *plan.Table, s bitset.Mask, dl *Deadline, sc *Scratch) (Winner, Stats, error) {
			if sets++; sets == 40000 {
				cancel()
				return Winner{}, Stats{}, context.Cause(ctx)
			}
			return EvaluateSetMPDPTree(in, tab, s, dl, sc)
		}, 1, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the cancellation", err)
	}

	next := Input{Q: topoQuery(graph.Star(17), rng), M: m}
	want, wantStats, err := MPDP(next)
	if err != nil {
		t.Fatal(err)
	}
	next.Workspace = ws
	got, gotStats, err := MPDP(next)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameTree(got, want); err != nil {
		t.Errorf("star-17 after a cancelled one: %v", err)
	}
	if gotStats != wantStats {
		t.Errorf("star-17 after a cancelled one counts %+v, fresh %+v", gotStats, wantStats)
	}
	if ws.tab.Cap() <= retainSlots {
		t.Fatalf("the warm workspace kept %d slots: the following runs no longer find a large dirty table", ws.tab.Cap())
	}
	for _, q := range []*cost.Query{topoQuery(graph.Star(13), rng), topoQuery(graph.Clique(9), rng), randomQuery(12, 6, rng)} {
		checkAgainstFresh(t, fmt.Sprintf("%d relations after a cancelled star-17", q.N()), q, ws)
	}
}
