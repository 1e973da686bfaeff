package cost

import (
	"math"

	"repro/internal/plan"
)

// Model holds the cost constants, mirroring PostgreSQL's planner GUCs.
// The zero value is unusable; use DefaultModel.
type Model struct {
	SeqPageCost       float64
	RandomPageCost    float64
	CPUTupleCost      float64
	CPUIndexTupleCost float64
	CPUOperatorCost   float64

	// DisableNestLoop / DisableMerge let ablation benchmarks restrict the
	// operator space (a simpler cost function, cf. Meister & Saake [22],
	// "cost-function complexity matters").
	DisableNestLoop bool
	DisableMerge    bool
}

// DefaultModel returns PostgreSQL 12's default cost constants.
func DefaultModel() *Model {
	return &Model{
		SeqPageCost:       1.0,
		RandomPageCost:    4.0,
		CPUTupleCost:      0.01,
		CPUIndexTupleCost: 0.005,
		CPUOperatorCost:   0.0025,
	}
}

// Scan returns the plan node for a sequential scan of relation i.
func (m *Model) Scan(q *Query, i int) *plan.Node {
	rel := q.Cat.Rels[i]
	return &plan.Node{
		Set:   1 << uint(i),
		RelID: i,
		Op:    plan.OpScan,
		Rows:  rel.Rows,
		Cost:  rel.Pages*m.SeqPageCost + rel.Rows*m.CPUTupleCost,
	}
}

// JoinCost computes the cheapest operator for joining l and r producing
// outRows tuples, given whether the right input is a base relation with a
// usable PK index (enables index nested loop). It returns the operator and
// the total cost including both children.
func (m *Model) JoinCost(l, r *plan.Node, outRows float64, rightIndexed bool) (plan.Op, float64) {
	return m.joinCostVals(l.Rows, l.Cost, r.Rows, r.Cost, outRows, rightIndexed && r.IsLeaf())
}

// joinCostVals is the scalar core of JoinCost over (rows, cost) values
// instead of plan nodes: it computes the log2 terms the operators need and
// delegates to the shared arithmetic, so the node-based and Entry-based
// costing paths cannot drift apart.
func (m *Model) joinCostVals(lRows, lCost, rRows, rCost, outRows float64, indexNL bool) (plan.Op, float64) {
	var lLg, rLg, rLgi float64
	if !m.DisableMerge {
		lLg = math.Log2(plan.AtLeast(lRows, 2))
		rLg = math.Log2(plan.AtLeast(rRows, 2))
	}
	if indexNL {
		rLgi = math.Log2(rRows + 2)
	}
	return m.JoinCostCore(lRows, lCost, lLg, rRows, rCost, rLg, rLgi, outRows, indexNL)
}

// JoinCostCore is the single operator-costing body shared by the node path
// (logs computed per call), the Entry path and the MPDP and DPCCP loops,
// which read the scalars straight from their DP table slots (logs memoized
// in the table — the same math.Log2 bits either way). lLg/rLg are
// log2(max(rows, 2)) and are read only when merge joins are enabled; rLgi is
// log2(rRows + 2) and is read only when indexNL is set.
func (m *Model) JoinCostCore(lRows, lCost, lLg, rRows, rCost, rLg, rLgi, outRows float64, indexNL bool) (plan.Op, float64) {
	childCost := lCost + rCost

	// Hash join: build on the smaller input, probe with the larger.
	buildRows, probeRows := rRows, lRows
	if buildRows > probeRows {
		buildRows, probeRows = probeRows, buildRows
	}
	hash := childCost +
		buildRows*(m.CPUOperatorCost+m.CPUTupleCost) + // build phase
		probeRows*m.CPUOperatorCost + // probe phase
		outRows*m.CPUTupleCost
	bestOp, bestCost := plan.OpHashJoin, hash

	if !m.DisableNestLoop {
		// Materialized nested loop: rescan the (cheaper-to-rescan) inner.
		rescan := rRows * m.CPUOperatorCost
		nl := childCost + lRows*rescan + outRows*m.CPUTupleCost
		if nl < bestCost {
			bestOp, bestCost = plan.OpNestLoop, nl
		}
		if indexNL {
			// Index nested loop into the inner PK index.
			lookups := rLgi * m.CPUIndexTupleCost * 4
			perMatch := m.RandomPageCost / 2
			matched := outRows / plan.AtLeast(lRows, 1)
			inl := lCost + lRows*(lookups+matched*perMatch) + outRows*m.CPUTupleCost
			if inl < bestCost {
				bestOp, bestCost = plan.OpIndexNestLoop, inl
			}
		}
	}

	if !m.DisableMerge {
		sortL := plan.AtLeast(lRows, 2) * lLg * m.CPUOperatorCost * 2
		sortR := plan.AtLeast(rRows, 2) * rLg * m.CPUOperatorCost * 2
		merge := childCost + sortL + sortR +
			(lRows+rRows)*m.CPUOperatorCost + outRows*m.CPUTupleCost
		if merge < bestCost {
			bestOp, bestCost = plan.OpMergeJoin, merge
		}
	}

	return bestOp, bestCost
}

// JoinEvalEntry costs l ⋈ r over DP table entries: the cheapest operator,
// output cardinality and total cost from the (set, rows, cost, leaf) views
// alone, allocation-free and bit-identical to the node-based path
// (JoinWithRows at the same cardinality). The entries' memoized log2 terms
// (computed once per stored sub-plan) feed the same shared arithmetic the
// node path uses. DPSize and DPSub call it once per candidate pair.
func (m *Model) JoinEvalEntry(q *Query, l, r plan.Entry) (plan.Op, float64, float64) {
	outRows := l.Rows * r.Rows * q.SelBetween(l.Set, r.Set)
	indexNL := r.Leaf && q.Cat.Rels[r.RelID].HasPKIndex
	op, cost := m.JoinCostCore(l.Rows, l.Cost, l.LogRows, r.Rows, r.Cost, r.LogRows, r.LogIdx, outRows, indexNL)
	return op, outRows, cost
}

// JoinWithRows builds the best join node over l and r, producing outRows
// tuples: the node path of the heuristic layer, which knows the output
// cardinality of its joins on graphs too large for Mask sets.
func (m *Model) JoinWithRows(q *Query, l, r *plan.Node, outRows float64) *plan.Node {
	n := new(plan.Node)
	m.JoinInto(n, q, l, r, outRows)
	return n
}

// JoinInto is JoinWithRows writing the join into dst, a node the caller
// owns: a heuristic that knows how many joins it builds allocates them
// together.
func (m *Model) JoinInto(dst *plan.Node, q *Query, l, r *plan.Node, outRows float64) {
	rightIndexed := r.IsLeaf() && q.Cat.Rels[r.RelID].HasPKIndex
	op, cost := m.JoinCost(l, r, outRows, rightIndexed)
	*dst = plan.Node{
		Set:   l.Set.Union(r.Set),
		Left:  l,
		Right: r,
		Op:    op,
		Rows:  outRows,
		Cost:  cost,
	}
}

// Cout returns the Cout cost of a plan: the sum of intermediate result
// sizes. IKKBZ and LinDP rank relations with Cout, exactly as in the paper
// (§7.3, "It uses the Cout cost function").
func Cout(n *plan.Node) float64 {
	if n == nil || n.IsLeaf() {
		return 0
	}
	return n.Rows + Cout(n.Left) + Cout(n.Right)
}
