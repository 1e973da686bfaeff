package heuristic

import (
	"repro/internal/cost"
	"repro/internal/plan"
)

// wnode is IDP2's working join tree: leaves reference units (base scans or
// materialized temporaries); inner nodes mirror the current plan shape.
type wnode struct {
	left, right *wnode
	parent      *wnode
	unit        int // valid when leaf (left == right == nil)
	cost, rows  float64
	leaves      int
}

func (w *wnode) isLeaf() bool { return w.left == nil && w.right == nil }

// IDP2 is the second iterative-DP variant [17], with the paper's twist of
// §4.1.1: the inner exact algorithm is MPDP, which allows a much larger k
// than CPU-bound IDP2 for the same time budget. It first builds a tentative
// plan with GOO, then repeatedly re-optimizes the most expensive subtree of
// at most k units with the exact algorithm, replacing it by a temporary
// table, until the whole query has been re-optimized.
func IDP2(q *cost.Query, opt Options) (*plan.Node, error) {
	opt = opt.withWorkspace()
	m := opt.model()
	k := opt.k()
	if k < 2 {
		k = 2
	}

	// Step 1: tentative plan (GOO, as in the paper's evaluation).
	initial, err := GOO(q, opt)
	if err != nil {
		return nil, err
	}

	// Units: initially the base relations, whose plans are GOO's scans, then
	// one temporary per window. unitOf names the unit holding each base
	// relation; a unit's relations are a list threaded through nextRel,
	// from firstRel to lastRel.
	n := q.N()
	units := make([]*plan.Node, n, 2*n)
	unitOf := make([]int32, n)
	nextRel := make([]int32, n)
	firstRel := make([]int32, n, 2*n)
	lastRel := make([]int32, n, 2*n)
	for i := range unitOf {
		unitOf[i], nextRel[i], firstRel[i], lastRel[i] = int32(i), -1, int32(i), int32(i)
	}

	// Convert the GOO plan into a working tree over unit ids.
	wnodes := make([]wnode, 0, 2*n-1)
	var convert func(p *plan.Node) *wnode
	convert = func(p *plan.Node) *wnode {
		wnodes = append(wnodes, wnode{cost: p.Cost, rows: p.Rows, leaves: 1})
		w := &wnodes[len(wnodes)-1]
		if p.IsLeaf() {
			w.unit = p.RelID
			units[p.RelID] = p
			return w
		}
		w.left, w.right = convert(p.Left), convert(p.Right)
		w.left.parent, w.right.parent = w, w
		w.leaves = w.left.leaves + w.right.leaves
		return w
	}
	root := convert(initial)

	ct := newContractor(q)
	var unitIDs []int
	refreshed := false
	for !root.isLeaf() {
		if opt.expired() {
			// Acceptable-any-time property of IDP2 (§4.1): fall back to the
			// current tree by materializing it as-is.
			return Recost(q, m, expandTree(root, units)), nil
		}
		// Select the most costly subtree with 2..k leaves.
		pick := costliestWindow(root, k, nil)
		if pick == nil {
			// Every subtree exceeds k: optimize an arbitrary deepest join
			// pair to guarantee progress.
			pick = deepestSmallJoin(root)
		}
		unitIDs = gatherUnits(pick, unitIDs[:0])
		opt2, _, err := opt.inner()(ct.problem(units, unitIDs, unitOf), opt)
		if err != nil {
			return nil, err
		}

		// Materialize as a new unit (temporary table) holding the window's
		// relations, and replace the subtree by a leaf referencing it.
		id := int32(len(units))
		units = append(units, opt2)
		first, last := firstRel[unitIDs[0]], lastRel[unitIDs[0]]
		for _, u := range unitIDs[1:] {
			nextRel[last] = firstRel[u]
			last = lastRel[u]
		}
		firstRel, lastRel = append(firstRel, first), append(lastRel, last)
		for r := first; r >= 0; r = nextRel[r] {
			unitOf[r] = id
		}
		pick.left, pick.right = nil, nil
		pick.unit = int(id)
		pick.cost = opt2.Cost
		pick.rows = opt2.Rows
		pick.leaves = 1
		if refreshed {
			// Only the window's ancestors change: every other join already
			// holds what refreshTree would compute for it again.
			for w := pick.parent; w != nil; w = w.parent {
				w.cost = w.left.cost + w.right.cost + joinWork(w)
				w.leaves = w.left.leaves + w.right.leaves
			}
		} else {
			refreshTree(root) // GOO's costs become the ranking's
			refreshed = true
		}
	}
	return Recost(q, m, expandTree(root, units)), nil
}

// costliestWindow returns the most costly subtree of w with 2..k leaves,
// the first in preorder among equals, or pick when none beats it.
func costliestWindow(w *wnode, k int, pick *wnode) *wnode {
	if w == nil || w.isLeaf() {
		return pick
	}
	if w.leaves <= k && (pick == nil || w.cost > pick.cost) {
		pick = w
	}
	return costliestWindow(w.right, k, costliestWindow(w.left, k, pick))
}

// gatherUnits appends the unit ids under w, left to right.
func gatherUnits(w *wnode, ids []int) []int {
	if w.isLeaf() {
		return append(ids, w.unit)
	}
	return gatherUnits(w.right, gatherUnits(w.left, ids))
}

// deepestSmallJoin returns a deepest inner node joining two leaves (which
// always has 2 leaves and is therefore optimizable for any k >= 2).
func deepestSmallJoin(root *wnode) *wnode {
	var pick *wnode
	var walk func(w *wnode)
	walk = func(w *wnode) {
		if w == nil || w.isLeaf() {
			return
		}
		if w.left.isLeaf() && w.right.isLeaf() {
			pick = w
		}
		walk(w.left)
		walk(w.right)
	}
	walk(root)
	return pick
}

// refreshTree recomputes leaf counts and cumulative costs after a subtree
// replacement: a join's cumulative cost is its children's plus joinWork, an
// estimate of its own work from its (unchanged) cardinality. These costs
// only rank subtrees for the next pick; the final plan is fully re-costed
// by Recost.
func refreshTree(w *wnode) (cost float64, leaves int) {
	if w.isLeaf() {
		return w.cost, 1
	}
	lc, ln := refreshTree(w.left)
	rc, rn := refreshTree(w.right)
	w.cost = lc + rc + joinWork(w)
	w.leaves = ln + rn
	return w.cost, w.leaves
}

// joinWork estimates the node's own (non-child) cost from its cardinality;
// used only for subtree selection, never for final plan costs.
func joinWork(w *wnode) float64 {
	return w.rows * 0.01
}

// expandTree converts a working tree back into a plan over the unit plans.
func expandTree(w *wnode, units []*plan.Node) *plan.Node {
	if w.isLeaf() {
		return units[w.unit]
	}
	l := expandTree(w.left, units)
	r := expandTree(w.right, units)
	return &plan.Node{Left: l, Right: r, Op: plan.OpHashJoin, Rows: w.rows, Cost: w.cost}
}
