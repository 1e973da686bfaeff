package heuristic

import (
	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/plan"
)

// contractedProblem is a sub-problem over composite units: each unit is an
// already-planned subtree (a base relation scan or a materialized temporary
// table) covering a set of base relations. IDP2's temp tables and UnionDP's
// composite nodes are both expressed this way. It lives in its run's
// contractor and is valid until the contractor builds the next one.
type contractedProblem struct {
	groups []*plan.Node // unit plans (joined as leaves by the inner DP)
	local  *cost.Query  // contracted query: one relation per unit
	ct     *contractor
}

// contractor is the memory one heuristic run builds its contracted
// sub-problems in. An inner DP keeps nothing of its input past its return,
// so the contracted query, its graph and catalog and the leaf wrappers are
// rebuilt in place for every sub-problem, and the copies splice makes come
// from one slab: a run makes n - 1 of them in all, however it groups them.
type contractor struct {
	q       *cost.Query
	local   cost.Query
	localOf []int32 // unit id -> index in the problem being built, else -1
	cp      contractedProblem
	wraps   []plan.Node
	leaves  []*plan.Node
	spliced nodeSlab
}

func newContractor(q *cost.Query) *contractor {
	ct := &contractor{q: q, local: cost.Query{G: graph.New(0)}, spliced: make(nodeSlab, 0, max(q.N()-1, 1))}
	ct.cp.ct, ct.cp.local = ct, &ct.local
	return ct
}

// problem builds the contracted query over the units ids name, in that
// order: one local relation per unit whose cardinality is the unit plan's
// output, and one local edge per pair of units connected by at least one
// base edge, with the product of the crossing base selectivities taken in
// q.G.Edges order. units[id] is unit id's plan, and unitOf maps every base
// relation to the id of the unit holding it, or -1.
func (ct *contractor) problem(units []*plan.Node, ids []int, unitOf []int32) *contractedProblem {
	q, n := ct.q, len(ids)
	for len(ct.localOf) < len(units) {
		ct.localOf = append(ct.localOf, -1)
	}
	groups := ct.cp.groups[:0]
	for li, id := range ids {
		ct.localOf[id] = int32(li)
		groups = append(groups, units[id])
	}
	ct.cp.groups = groups
	lg := ct.local.G
	lg.Reset(n)
	for _, e := range q.G.Edges {
		ua, ub := unitOf[e.A], unitOf[e.B]
		if ua < 0 || ub < 0 || ua == ub {
			continue
		}
		if la, lb := ct.localOf[ua], ct.localOf[ub]; la >= 0 && lb >= 0 {
			lg.AddEdge(int(la), int(lb), e.Sel) // parallel edges multiply selectivities
		}
	}
	for _, id := range ids {
		ct.localOf[id] = -1
	}
	// Unnamed: nothing reads a unit's name, and a name per unit per inner
	// DP is a formatted string each.
	rels := ct.local.Cat.Rels[:0]
	for _, g := range groups {
		r := catalog.Relation{Rows: g.Rows, Pages: g.Rows / 100, Width: 64}
		// A unit that is a plain base-relation scan keeps its index; a
		// materialized temporary has none.
		if g.IsLeaf() && g.Op == plan.OpScan && g.RelID >= 0 {
			r.HasPKIndex = q.Cat.Rels[g.RelID].HasPKIndex
		}
		rels = append(rels, r)
	}
	ct.local.Cat.Rels = rels
	return &ct.cp
}

// leafWrappers returns the synthetic leaf nodes handed to the inner DP:
// leaf i stands for unit i, carrying its cardinality and cumulative cost.
func (c *contractedProblem) leafWrappers() []*plan.Node {
	ct := c.ct
	ct.wraps, ct.leaves = ct.wraps[:0], ct.leaves[:0]
	for i, g := range c.groups {
		ct.wraps = append(ct.wraps, plan.Node{RelID: i, Rows: g.Rows, Cost: g.Cost})
	}
	for i := range ct.wraps {
		ct.leaves = append(ct.leaves, &ct.wraps[i])
	}
	return ct.leaves
}

// splice replaces the wrapper leaves of an inner-DP plan by the unit plans
// they stand for. Every interior node is copied, which is also what detaches
// the result from the inner DP's workspace. A plan over disjoint relation
// sets is a tree — no node is reached twice — so the copy is a plain
// recursion.
func (c *contractedProblem) splice(n *plan.Node) *plan.Node {
	if n.IsLeaf() {
		return c.groups[n.RelID]
	}
	cp := c.ct.spliced.next()
	*cp = *n
	cp.Left = c.splice(n.Left)
	cp.Right = c.splice(n.Right)
	return cp
}

// nodeSlab hands out plan nodes from slices made ahead, so that a run that
// knows how many nodes it builds allocates them together. Nodes handed out
// stay where they are: a full slab is replaced, not grown.
type nodeSlab []plan.Node

func (s *nodeSlab) next() *plan.Node {
	if len(*s) == cap(*s) {
		*s = make(nodeSlab, 0, max(cap(*s), 16))
	}
	*s = (*s)[:len(*s)+1]
	return &(*s)[len(*s)-1]
}

// innerMPDP is the default innerDP: the paper's MPDP (CPU-parallel, at
// Options.Threads workers) on the contracted query.
func innerMPDP(c *contractedProblem, opt Options) (*plan.Node, dp.Stats, error) {
	in := dp.Input{
		Q:         c.local,
		M:         opt.model(),
		Leaves:    c.leafWrappers(),
		Ctx:       opt.Ctx,
		Threads:   opt.Threads,
		Workspace: opt.Workspace,
	}
	p, st, err := parallel.MPDP(in)
	if err != nil {
		return nil, st, err
	}
	return c.splice(p), st, nil
}

// Recost recomputes every join of a heuristic plan bottom-up with the cost
// model, returning a tree with consistent Rows/Cost (heuristic construction
// may have replaced subtrees, leaving stale ancestor costs). Leaves are kept
// as-is; the joins are new, made together.
//
// A join's cardinality takes the selectivity product q.SelBetweenSets forms
// between its two sides' relations: over the relations of the side with
// fewer (the left on a tie) in ascending id, each one's edges in adjacency
// order. The relations under a node are a run of its leaves in preorder, so
// whether a relation is on a side is two comparisons, and only the edges
// that cross are put in id order.
func Recost(q *cost.Query, m *cost.Model, n *plan.Node) *plan.Node {
	rc := recoster{q: q, m: m, at: make([]int32, q.N())}
	for i := range rc.at {
		rc.at[i] = -1
	}
	inner := n.Size() - 1
	rc.rels = make([]int32, 0, inner+1)
	rc.joins = make(nodeSlab, 0, max(inner, 1))
	return rc.rec(n)
}

// recoster is Recost's state: rels lists the relations of the leaves seen
// so far in preorder and at is each relation's index in it.
type recoster struct {
	q     *cost.Query
	m     *cost.Model
	at    []int32
	rels  []int32
	cross []crossEdge
	joins nodeSlab
}

// crossEdge is one edge between the two sides of a join: its end on the
// smaller side and its selectivity.
type crossEdge struct {
	v   int32
	sel float64
}

// rec recosts nd's subtree.
func (rc *recoster) rec(nd *plan.Node) *plan.Node {
	lo := len(rc.rels)
	if nd.IsLeaf() {
		if nd.RelID >= 0 {
			rc.at[nd.RelID] = int32(lo)
			rc.rels = append(rc.rels, int32(nd.RelID))
		}
		return nd
	}
	l := rc.rec(nd.Left)
	mid := len(rc.rels)
	r := rc.rec(nd.Right)
	hi := len(rc.rels)
	// The side walked is the one with fewer relations; the other is the
	// range [olo, ohi) of rels.
	wlo, whi, olo, ohi := lo, mid, mid, hi
	if hi-mid < mid-lo {
		wlo, whi, olo, ohi = mid, hi, lo, mid
	}
	cross := rc.cross[:0]
	for _, v := range rc.rels[wlo:whi] {
		sels := rc.q.G.NeighborSels(int(v))
		for j, w := range rc.q.G.Neighbors(int(v)) {
			if p := int(rc.at[w]); p >= olo && p < ohi {
				cross = append(cross, crossEdge{v, sels[j]})
			}
		}
	}
	// Stable by relation id: a relation's edges keep their adjacency order.
	for i := 1; i < len(cross); i++ {
		for j := i; j > 0 && cross[j].v < cross[j-1].v; j-- {
			cross[j], cross[j-1] = cross[j-1], cross[j]
		}
	}
	sel := 1.0
	for _, c := range cross {
		sel *= c.sel
	}
	rc.cross = cross
	out := rc.joins.next()
	rc.m.JoinInto(out, rc.q, l, r, l.Rows*r.Rows*sel)
	return out
}

// unitOwners maps every base relation of q to the index of the unit whose
// footprint holds it, or -1 when the units do not cover it.
func unitOwners(q *cost.Query, sets []bitset.Set) []int32 {
	owner := make([]int32, q.N())
	for i := range owner {
		owner[i] = -1
	}
	for gi, s := range sets {
		s.ForEach(func(v int) { owner[v] = int32(gi) })
	}
	return owner
}

// baseScans builds the initial units: one scan per base relation, the
// scans in one allocation and the sets in another.
func baseScans(q *cost.Query, m *cost.Model) ([]*plan.Node, []bitset.Set) {
	n := q.N()
	scans := make([]plan.Node, n)
	groups := make([]*plan.Node, n)
	sets := bitset.NewSets(n, n)
	for i := 0; i < n; i++ {
		scans[i] = *m.Scan(q, i)
		groups[i] = &scans[i]
		sets[i].Add(i)
	}
	return groups, sets
}
