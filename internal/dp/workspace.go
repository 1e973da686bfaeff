package dp

import (
	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/plan"
)

// Workspace is the memory one enumeration borrows instead of allocating:
// the DP table's arrays, the connected-set census and the frame stack of the
// walk that fills it, the per-worker evaluator scratch, Algorithm 2's edge
// index and the arena of the returned plan tree.
// Whoever runs enumerations one after another — a service worker, a
// heuristic that calls the exact DP once per sub-problem — owns one and
// hands it to every run through Input.Workspace; the second run then
// allocates its base plans and little else.
//
// A run is everything between one driver's Prepare and its return. What a
// run hands back aliases the workspace — the plan tree its arena, the
// buckets of ConnectedBuckets its census — and stays valid until the
// workspace's next run begins, so an owner copies what it keeps (the
// heuristics splice, the service remaps). One run at a time: concurrent
// runs need a workspace each.
//
// No result depends on it. A recycled table is slot for slot the fresh one
// (plan.Table.Reset), the census is rewritten before it is read, and the
// scratch restarts per set, so a run on a dirty workspace is bit-identical
// to a run without one. The owner is explicit rather than a sync.Pool so
// that what a run allocates repeats exactly and does not depend on when the
// collector last emptied a pool.
//
// The zero value is ready to use, and every method takes a nil receiver to
// mean "no workspace": fresh memory, exactly what the run allocated before
// workspaces existed.
type Workspace struct {
	tab        plan.Table
	census     [][]bitset.Mask
	censusWalk csgWalk
	scratch    []*Scratch
	cuts       []graph.TreeCut
	nodes      plan.Arena
}

// retainSlots bounds what a workspace keeps between runs: at most this many
// table slots and census masks (a level's winners take no memory of their
// own: the level workers write them into the table's slots). 2^16 slots is
// every table a k ≤ 16 inner DP or an exact query of at most 16 relations
// can build — a star-16 direct-addresses exactly that many, 2.6 MB of
// lanes, a hashed one 3.1 MB, the census 0.5 MB. A run that needs more
// lasts tens of milliseconds, allocates as it did without a workspace, and
// lets go of it as soon as its tree is built (trim): uncapped, six service
// workers that had each seen one star-18 pinned 12.6 MB apiece (peak heap
// 67 → 199 MB on the exact-dense workload), and dropping it only when the
// worker's next request arrived still read 127. A constant, not a knob: no
// caller has a reason to pick another.
const retainSlots = 1 << 16

// begin starts a run: the arena is rewound (to one chunk: plan.Arena.Reset)
// — the previous run's tree dies here — and whatever a run that never
// reached Finish left above the retention bound is dropped.
func (w *Workspace) begin() {
	if w == nil {
		return
	}
	w.trim()
	w.nodes.Reset()
}

// trim drops what exceeds the retention bound. Finish calls it once the
// tree is built, when table and census are dead.
func (w *Workspace) trim() {
	if w == nil {
		return
	}
	if w.tab.Cap() > retainSlots {
		w.tab = plan.Table{}
	}
	if censusCap(w.census) > retainSlots {
		w.census = nil
	}
}

func censusCap(buckets [][]bitset.Mask) int {
	total := 0
	for _, b := range buckets[:cap(buckets)] {
		total += cap(b)
	}
	return total
}

// table returns an empty table over n relations sized for hint sets.
func (w *Workspace) table(n, hint int) *plan.Table {
	if w == nil {
		return plan.NewTable(n, hint)
	}
	w.tab.Reset(n, hint)
	return &w.tab
}

// buckets returns n+1 empty census buckets that keep the capacity earlier
// runs grew them to.
func (w *Workspace) buckets(n int) [][]bitset.Mask {
	if w == nil {
		return make([][]bitset.Mask, n+1)
	}
	if cap(w.census) <= n {
		grown := make([][]bitset.Mask, n+1)
		copy(grown, w.census[:cap(w.census)])
		w.census = grown
	}
	w.census = w.census[:n+1]
	for i := range w.census {
		w.census[i] = w.census[i][:0]
	}
	return w.census
}

// walk returns the walk the census is collected by.
func (w *Workspace) walk() *csgWalk {
	if w == nil {
		return new(csgWalk)
	}
	return &w.censusWalk
}

// Scratch returns the evaluator scratch of the run's worker-th worker.
// Fetch it before the worker starts: the call itself is not concurrent.
func (w *Workspace) Scratch(worker int) *Scratch {
	if w == nil {
		return new(Scratch)
	}
	for len(w.scratch) <= worker {
		w.scratch = append(w.scratch, new(Scratch))
	}
	return w.scratch[worker]
}

// treeCuts returns Algorithm 2's edge index of the tree g.
func (w *Workspace) treeCuts(g *graph.Graph) []graph.TreeCut {
	if w == nil {
		return g.TreeCuts(nil)
	}
	w.cuts = g.TreeCuts(w.cuts[:0])
	return w.cuts
}

// arena returns the arena the run's plan tree is materialized from.
func (w *Workspace) arena() *plan.Arena {
	if w == nil {
		return plan.NewArena()
	}
	return &w.nodes
}
