package heuristic

import (
	"math"

	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/parallel"
	"repro/internal/plan"
)

// LinDP is the linearized DP of Neumann & Radke [26]: it takes the best
// IKKBZ left-deep order and runs an O(n³) interval dynamic program over it,
// recovering bushy plans within the linearization. Cross products remain
// excluded: a split is only considered when the two intervals are joined by
// at least one edge.
func LinDP(q *cost.Query, opt Options) (*plan.Node, error) {
	order, err := IKKBZOrder(q, opt)
	if err != nil {
		return nil, err
	}
	return linDPOverOrder(q, opt, order, nil)
}

// linCell is the interval DP's entry for the relations at positions i..j
// of the order: their join cardinality, and the cheapest plan's cost, operator
// and split. won is k+1 when the plan joins i..k with k+1..j, -(k+1) when it
// joins them the other way round, and 0 when no split joins the interval
// without a cross product (and for single relations, which are leaves).
type linCell struct {
	rows, cost float64
	lg         float64 // log2(max(rows, 2)), the merge join's term
	won        int32
	op         plan.Op
}

// linDPOverOrder runs the interval DP over an explicit relation order. It
// keeps one flat triangle of cells and the leaf plans, and materializes only
// the winning joins, once, at the end: candidates are costed from the
// cells' scalars through the same cost.Model.JoinCostCore a node-built
// candidate would be.
func linDPOverOrder(q *cost.Query, opt Options, order []int, leaves []*plan.Node) (*plan.Node, error) {
	m := opt.model()
	nn := len(order)
	if nn == 0 {
		return nil, errNoPlan
	}
	leaf := make([]*plan.Node, nn)
	for p, v := range order {
		if leaves != nil && leaves[v] != nil {
			leaf[p] = leaves[v]
		} else {
			leaf[p] = m.Scan(q, v)
		}
	}
	pos := make([]int32, q.N())
	for i := range pos {
		pos[i] = -1
	}
	for p, v := range order {
		pos[v] = int32(p)
	}
	// at(i, j) indexes the triangle 0 <= i <= j < nn row by row.
	at := func(i, j int) int { return i*nn - i*(i-1)/2 + j - i }
	cells := make([]linCell, nn*(nn+1)/2)
	// reach[at(i, k)] is the lowest position past k that some relation at
	// i..k has an edge to (nn when none): i..k and k+1..j are joined by an
	// edge exactly when it is at most j.
	reach := make([]int32, len(cells))
	// lgi[p] is log2(rows + 2) of the leaf at p, the index nested loop's
	// term, where that leaf has a usable index; indexed[p] says whether.
	lgi := make([]float64, nn)
	indexed := make([]bool, nn)

	// Interval cardinalities, grown one relation at a time in the order
	// and with the selectivity product q.SelBetweenSets forms.
	for i := 0; i < nn; i++ {
		c := &cells[at(i, i)]
		c.rows, c.cost = leaf[i].Rows, leaf[i].Cost
		if leaf[i].IsLeaf() && q.Cat.Rels[leaf[i].RelID].HasPKIndex {
			indexed[i], lgi[i] = true, math.Log2(leaf[i].Rows+2)
		}
		for j := i + 1; j < nn; j++ {
			v := order[j]
			sel := 1.0
			sels := q.G.NeighborSels(v)
			for e, w := range q.G.Neighbors(v) {
				if p := int(pos[w]); p >= i && p < j {
					sel *= sels[e]
				}
			}
			cells[at(i, j)].rows = cells[at(i, j-1)].rows * leaf[j].Rows * sel
		}
	}
	if !m.DisableMerge {
		for x := range cells {
			cells[x].lg = math.Log2(plan.AtLeast(cells[x].rows, 2))
		}
	}
	for k := 0; k < nn; k++ {
		low := int32(nn)
		for i := k; i >= 0; i-- {
			for _, w := range q.G.Neighbors(order[i]) {
				if p := pos[w]; int(p) > k && p < low {
					low = p
				}
			}
			reach[at(i, k)] = low
		}
	}

	for length := 2; length <= nn; length++ {
		if err := opt.expiredErr(); err != nil {
			return nil, err
		}
		for i := 0; i+length-1 < nn; i++ {
			j := i + length - 1
			ij := &cells[at(i, j)]
			found := false
			for k := i; k < j; k++ {
				l, r := &cells[at(i, k)], &cells[at(k+1, j)]
				if (k > i && l.won == 0) || (k+1 < j && r.won == 0) || int(reach[at(i, k)]) > j {
					continue
				}
				var rLgi, lLgi float64
				if k+1 == j {
					rLgi = lgi[j]
				}
				if k == i {
					lLgi = lgi[i]
				}
				op, c := m.JoinCostCore(l.rows, l.cost, l.lg, r.rows, r.cost, r.lg, rLgi, ij.rows, k+1 == j && indexed[j])
				if !found || c < ij.cost {
					ij.cost, ij.op, ij.won, found = c, op, int32(k+1), true
				}
				op, c = m.JoinCostCore(r.rows, r.cost, r.lg, l.rows, l.cost, l.lg, lLgi, ij.rows, k == i && indexed[i])
				if c < ij.cost {
					ij.cost, ij.op, ij.won = c, op, -int32(k+1)
				}
			}
		}
	}
	if nn > 1 && cells[at(0, nn-1)].won == 0 {
		return nil, errNoPlan
	}

	joins := make([]plan.Node, 0, nn-1)
	var build func(i, j int) *plan.Node
	build = func(i, j int) *plan.Node {
		if i == j {
			return leaf[i]
		}
		c := &cells[at(i, j)]
		k := int(c.won)
		if k < 0 {
			k = -k
		}
		l, r := build(i, k-1), build(k, j)
		if c.won < 0 {
			l, r = r, l
		}
		joins = append(joins, plan.Node{Set: l.Set.Union(r.Set), Left: l, Right: r, Op: c.op, Rows: c.rows, Cost: c.cost})
		return &joins[len(joins)-1]
	}
	return build(0, nn-1), nil
}

// innerLinDP is the innerDP that the adaptive baseline uses on contracted
// sub-problems: IKKBZ linearization + interval DP over the local query.
func innerLinDP(c *contractedProblem, opt Options) (*plan.Node, dp.Stats, error) {
	localOpt := opt
	localOpt.innerDP = nil
	order, err := IKKBZOrder(c.local, localOpt)
	if err != nil {
		return nil, dp.Stats{}, err
	}
	p, err := linDPOverOrder(c.local, localOpt, order, c.leafWrappers())
	if err != nil {
		return nil, dp.Stats{}, err
	}
	return c.splice(p), dp.Stats{}, nil
}

// Adaptive is the full adaptive optimizer of Neumann & Radke [26] — the
// "LinDP" baseline of the paper's Tables 1 and 2: exact DP below 14
// relations, linearized DP between 14 and 100, and IDP2 with the linearized
// DP as the inner algorithm above 100.
func Adaptive(q *cost.Query, opt Options) (*plan.Node, error) {
	n := q.N()
	switch {
	case n < 14:
		p, _, err := parallel.MPDP(dp.Input{
			Q: q, M: opt.model(), Ctx: opt.Ctx, Threads: opt.Threads,
			Workspace: opt.Workspace,
		})
		return p, err
	case n <= 100:
		return LinDP(q, opt)
	default:
		idpOpt := opt
		idpOpt.innerDP = innerLinDP
		if idpOpt.K == 0 {
			idpOpt.K = 100
		}
		return IDP2(q, idpOpt)
	}
}
