package dp

import (
	"repro/internal/bitset"
	"repro/internal/plan"
)

// bestWin tracks the winning join candidate of a per-set evaluation by
// value: the DP inner loops evaluate millions of losing candidates, and the
// winner is recorded as a (left, right) split in the table — never as an
// allocated plan node. It embeds plan.Winner so evaluators return it
// directly.
type bestWin struct {
	plan.Winner
}

// offer records the candidate split if it beats the current winner.
//
//mpdp:hotpath
func (b *bestWin) offer(l, r bitset.Mask, op plan.Op, rows, cost float64) {
	if !b.Found || cost < b.Cost {
		b.Left, b.Right, b.Op, b.Rows, b.Cost, b.Found = l, r, op, rows, cost, true
	}
}

// hopeless reports whether a candidate orientation provably cannot beat the
// current winner, from the two children's stored costs alone — before any
// selectivity or operator costing, and before the children's entries are
// even fetched (the evaluators read the table's cost lane, call this, and
// view only the survivors): its cost is at least childBound, and ties never
// replace the incumbent, so pruning at bound >= best leaves the winning plan
// bit-identical.
//
//mpdp:hotpath
func (b *bestWin) hopeless(lCost, rCost float64, rLeaf bool) bool {
	return b.Found && childBound(lCost, rCost, rLeaf) >= b.Cost
}

// childBound is a lower bound on the cost of joining children of costs lCost
// and rCost: every join operator's total cost is at least lCost + rCost —
// except the index nested loop, which omits the right child's cost but
// exists only for leaf right sides (rLeaf: Table.IsLeaf), so the bound
// degrades to lCost alone there. All remaining cost terms are non-negative
// (cardinalities and cost constants are non-negative).
//
//mpdp:hotpath
func childBound(lCost, rCost float64, rLeaf bool) float64 {
	if rLeaf {
		return lCost
	}
	return lCost + rCost
}
