package heuristic

import (
	"repro/internal/bitset"
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

// linDPOverOrder runs the interval DP over an explicit relation order.
func linDPOverOrder(q *cost.Query, opt Options, order []int, leaves []*plan.Node) (*plan.Node, error) {
	m := opt.model()
	nn := len(order)
	if nn == 0 {
		return nil, errNoPlan
	}
	leaf := func(i int) *plan.Node {
		if leaves != nil && leaves[i] != nil {
			return leaves[i]
		}
		return m.Scan(q, i)
	}

	// Interval footprints and cardinalities: rows[i][j] is the join
	// cardinality of relations order[i..j], computed incrementally.
	sets := make([][]bitset.Set, nn)
	rows := make([][]float64, nn)
	for i := 0; i < nn; i++ {
		sets[i] = make([]bitset.Set, nn)
		rows[i] = make([]float64, nn)
		s := bitset.SetOf(q.N(), order[i])
		sets[i][i] = s.Clone()
		rows[i][i] = leaf(order[i]).Rows
		for j := i + 1; j < nn; j++ {
			v := order[j]
			single := bitset.SetOf(q.N(), v)
			rows[i][j] = rows[i][j-1] * leaf(v).Rows * q.SelBetweenSets(s, single)
			s.Add(v)
			sets[i][j] = s.Clone()
		}
	}

	hasEdgeBetween := func(a, b bitset.Set) bool {
		connected := false
		a.ForEach(func(v int) {
			if connected {
				return
			}
			for _, w := range q.G.Neighbors(v) {
				if b.Has(w) {
					connected = true
					return
				}
			}
		})
		return connected
	}

	table := make([][]*plan.Node, nn)
	for i := range table {
		table[i] = make([]*plan.Node, nn)
		table[i][i] = leaf(order[i])
	}
	for length := 2; length <= nn; length++ {
		if err := opt.expiredErr(); err != nil {
			return nil, err
		}
		for i := 0; i+length-1 < nn; i++ {
			j := i + length - 1
			var best *plan.Node
			for k := i; k < j; k++ {
				l, r := table[i][k], table[k+1][j]
				if l == nil || r == nil {
					continue
				}
				if !hasEdgeBetween(sets[i][k], sets[k+1][j]) {
					continue
				}
				cand := m.JoinWithRows(q, l, r, rows[i][j])
				if best == nil || cand.Cost < best.Cost {
					best = cand
				}
				cand = m.JoinWithRows(q, r, l, rows[i][j])
				if cand.Cost < best.Cost {
					best = cand
				}
			}
			table[i][j] = best
		}
	}
	if table[0][nn-1] == nil {
		return nil, errNoPlan
	}
	return table[0][nn-1], nil
}

// innerLinDP is the InnerDP that the adaptive baseline uses on contracted
// sub-problems: IKKBZ linearization + interval DP over the local query.
func innerLinDP(c *contractedProblem, opt Options) (*plan.Node, dp.Stats, error) {
	localOpt := opt
	localOpt.Inner = nil
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
			Q: q, M: opt.model(), Ctx: opt.Ctx, Deadline: opt.Deadline, Threads: opt.Threads,
			Workspace: opt.Workspace,
		})
		return p, err
	case n <= 100:
		return LinDP(q, opt)
	default:
		idpOpt := opt
		idpOpt.Inner = innerLinDP
		if idpOpt.K == 0 {
			idpOpt.K = 100
		}
		return IDP2(q, idpOpt)
	}
}
