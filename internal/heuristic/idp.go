package heuristic

import (
	"repro/internal/bitset"
	"repro/internal/cost"
	"repro/internal/plan"
)

// wnode is IDP2's working join tree: leaves reference units (base scans or
// materialized temporaries); inner nodes mirror the current plan shape.
type wnode struct {
	left, right *wnode
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

	// Units: initially the base relations.
	units, sets := baseScans(q, m)

	// Convert the GOO plan into a working tree over unit ids.
	var convert func(p *plan.Node) *wnode
	convert = func(p *plan.Node) *wnode {
		if p.IsLeaf() {
			return &wnode{unit: p.RelID, cost: p.Cost, rows: p.Rows, leaves: 1}
		}
		l, r := convert(p.Left), convert(p.Right)
		return &wnode{left: l, right: r, cost: p.Cost, rows: p.Rows, leaves: l.leaves + r.leaves}
	}
	root := convert(initial)

	for !root.isLeaf() {
		if opt.expired() {
			// Acceptable-any-time property of IDP2 (§4.1): fall back to the
			// current tree by materializing it as-is.
			return Recost(q, m, expandTree(root, units)), nil
		}
		// Select the most costly subtree with 2..k leaves.
		var pick *wnode
		var walk func(w *wnode)
		walk = func(w *wnode) {
			if w == nil || w.isLeaf() {
				return
			}
			if w.leaves <= k && (pick == nil || w.cost > pick.cost) {
				pick = w
			}
			walk(w.left)
			walk(w.right)
		}
		walk(root)
		if pick == nil {
			// Every subtree exceeds k: optimize an arbitrary deepest join
			// pair to guarantee progress.
			pick = deepestSmallJoin(root)
		}

		// Gather the unit ids under the picked subtree.
		var unitIDs []int
		var gather func(w *wnode)
		gather = func(w *wnode) {
			if w.isLeaf() {
				unitIDs = append(unitIDs, w.unit)
				return
			}
			gather(w.left)
			gather(w.right)
		}
		gather(pick)

		subGroups := make([]*plan.Node, len(unitIDs))
		subSets := make([]bitset.Set, len(unitIDs))
		for i, id := range unitIDs {
			subGroups[i] = units[id]
			subSets[i] = sets[id]
		}
		c := newContractedProblem(q, subGroups, subSets)
		opt2, _, err := opt.inner()(c, opt)
		if err != nil {
			return nil, err
		}

		// Materialize as a new unit (temporary table) and replace the
		// subtree by a leaf referencing it.
		mergedSet := bitset.NewSet(q.N())
		for _, s := range subSets {
			mergedSet.UnionWith(s)
		}
		units = append(units, opt2)
		sets = append(sets, mergedSet)
		pick.left, pick.right = nil, nil
		pick.unit = len(units) - 1
		pick.cost = opt2.Cost
		pick.rows = opt2.Rows
		pick.leaves = 1
		refreshTree(root)
	}
	return Recost(q, m, expandTree(root, units)), nil
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
