package dp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
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
		_, st, err := runLevels(Input{Q: big, M: cost.DefaultModel(), Ctx: ctx, Workspace: ws},
			func(in Input, tab *plan.Table, s bitset.Mask, dl *Deadline, sc *Scratch) (Winner, Stats, error) {
				if sets++; sets == 3000 {
					cancel(stop)
					return Winner{}, Stats{}, context.Cause(ctx)
				}
				return alg(in, tab, s, dl, sc)
			})
		if !errors.Is(err, stop) || st.ConnectedSets == 0 {
			t.Fatalf("evaluator %d: err = %v after %d sets, want the cancellation mid-run", i, err, st.ConnectedSets)
		}
		checkAgainstFresh(t, fmt.Sprintf("after cancelled run %d", i), next[i], ws)
	}

	// Out of budget wherever the clock says: every enumerator, table
	// growth and the census walk included.
	for _, alg := range allAlgorithms {
		in := Input{Q: big, M: cost.DefaultModel(), Deadline: time.Now().Add(2 * time.Millisecond), Workspace: ws}
		if _, _, err := alg.f(in); !errors.Is(err, ErrTimeout) {
			t.Fatalf("%s: err = %v, want ErrTimeout (a clique-13 does not finish in 2 ms)", alg.name, err)
		}
		checkAgainstFresh(t, "after "+alg.name+" ran out of budget", next[2], ws)
	}
}

// retainedBytes is an upper bound on what w keeps alive once its next run
// has begun: a table never holds more than its slot capacity in any of its
// arrays (8 B cost, 40 B cold record and, hashed, an 8 B key per slot; a
// presence bit when direct), and the arena is rewound to one chunk of 512
// nodes (plan.Arena.Reset; TestArenaResetRecyclesChunks holds it to that).
func (w *Workspace) retainedBytes() int {
	slots := w.tab.Cap()
	return slots*(8+40+8) + slots/8 +
		censusCap(w.census)*8 +
		512*int(unsafe.Sizeof(plan.Node{}))
}

// retainBytes is retainedBytes of a workspace at the retention bound.
const retainBytes = retainSlots*(8+40+8) + retainSlots/8 +
	retainSlots*8 +
	512*int(unsafe.Sizeof(plan.Node{}))

// TestWorkspaceRetentionBound: a run larger than the retention bound gets
// the memory it needs and the workspace has let go of it when the run
// returns, so a worker that served one star-17 does not sit on a 6 MB table
// until its next request. A run that dies before Finish keeps what it had
// until the next run begins, which is when anyone could use it again.
func TestWorkspaceRetentionBound(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ws := new(Workspace)
	small := topoQuery(graph.Star(10), rng)
	checkAgainstFresh(t, "before", small, ws)
	if got := ws.retainedBytes(); got > retainBytes {
		t.Fatalf("a star-10 leaves %d B retained, bound %d", got, retainBytes)
	}

	big := Input{Q: topoQuery(graph.Star(17), rng), M: cost.DefaultModel()} // 2^16 + 16 sets
	want, st, err := MPDP(big)
	if err != nil {
		t.Fatal(err)
	}
	if st.ConnectedSets <= retainSlots {
		t.Fatalf("a star-17 has %d connected sets, within the retention bound: the test needs a larger query", st.ConnectedSets)
	}
	big.Workspace = ws
	got, _, err := MPDP(big)
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
	_, _, err = runLevels(big.ForTree(), func(in Input, tab *plan.Table, s bitset.Mask, dl *Deadline, sc *Scratch) (Winner, Stats, error) {
		if sets++; sets == 40000 {
			cancel()
			return Winner{}, Stats{}, context.Cause(ctx)
		}
		return EvaluateSetMPDPTree(in, tab, s, dl, sc)
	})
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
