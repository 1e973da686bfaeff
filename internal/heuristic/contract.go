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
// composite nodes are both expressed this way.
type contractedProblem struct {
	q      *cost.Query  // the base query
	groups []*plan.Node // unit plans (joined as leaves by the inner DP)
	sets   []bitset.Set // base-relation footprint of each unit
	local  *cost.Query  // contracted query: one relation per unit
}

// newContractedProblem builds the contracted query: one local relation per
// unit whose cardinality is the unit plan's output, and one local edge per
// pair of units connected by at least one base edge, with the product of the
// crossing base selectivities.
func newContractedProblem(q *cost.Query, groups []*plan.Node, sets []bitset.Set) *contractedProblem {
	n := len(groups)
	owner := unitOwners(q, sets)
	lg := graph.New(n)
	for _, e := range q.G.Edges {
		ga, gb := owner[e.A], owner[e.B]
		if ga < 0 || gb < 0 || ga == gb {
			continue
		}
		lg.AddEdge(int(ga), int(gb), e.Sel) // parallel edges multiply selectivities
	}
	// Unnamed: nothing reads a unit's name, and a name per unit per inner
	// DP is a formatted string each.
	cat := catalog.Catalog{Rels: make([]catalog.Relation, n)}
	for gi, g := range groups {
		r := &cat.Rels[gi]
		r.Rows, r.Pages, r.Width = g.Rows, g.Rows/100, 64
		// A unit that is a plain base-relation scan keeps its index; a
		// materialized temporary has none.
		if g.IsLeaf() && g.Op == plan.OpScan && g.RelID >= 0 {
			r.HasPKIndex = q.Cat.Rels[g.RelID].HasPKIndex
		}
	}
	return &contractedProblem{
		q:      q,
		groups: groups,
		sets:   sets,
		local:  &cost.Query{Cat: cat, G: lg},
	}
}

// leafWrappers builds the synthetic leaf nodes handed to the inner DP: leaf
// i stands for unit i, carrying its cardinality and cumulative cost.
func (c *contractedProblem) leafWrappers() []*plan.Node {
	leaves := make([]*plan.Node, len(c.groups))
	for i, g := range c.groups {
		leaves[i] = &plan.Node{RelID: i, Rows: g.Rows, Cost: g.Cost}
	}
	return leaves
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
	cp := *n
	cp.Left = c.splice(n.Left)
	cp.Right = c.splice(n.Right)
	return &cp
}

// innerMPDP is the default InnerDP: the paper's MPDP (CPU-parallel) on the
// contracted query.
func innerMPDP(c *contractedProblem, opt Options) (*plan.Node, dp.Stats, error) {
	in := dp.Input{
		Q:         c.local,
		M:         opt.model(),
		Leaves:    c.leafWrappers(),
		Ctx:       opt.Ctx,
		Deadline:  opt.Deadline,
		Threads:   opt.Threads,
		Workspace: opt.Workspace,
	}
	var (
		p   *plan.Node
		st  dp.Stats
		err error
	)
	if opt.Threads == 1 {
		p, st, err = dp.MPDP(in)
	} else {
		p, st, err = parallel.MPDP(in)
	}
	if err != nil {
		return nil, st, err
	}
	return c.splice(p), st, nil
}

// Recost recomputes every join of a heuristic plan bottom-up with the cost
// model, returning a tree with consistent Rows/Cost (heuristic construction
// may have replaced subtrees, leaving stale ancestor costs). Leaves are kept
// as-is. The relation footprints are rebuilt from the leaves.
func Recost(q *cost.Query, m *cost.Model, n *plan.Node) *plan.Node {
	type res struct {
		node *plan.Node
		set  bitset.Set
	}
	var rec func(*plan.Node) res
	rec = func(nd *plan.Node) res {
		if nd.IsLeaf() {
			s := bitset.NewSet(q.N())
			if nd.RelID >= 0 {
				s.Add(nd.RelID)
			}
			return res{node: nd, set: s}
		}
		l := rec(nd.Left)
		r := rec(nd.Right)
		rows := l.node.Rows * r.node.Rows * q.SelBetweenSets(l.set, r.set)
		out := m.JoinWithRows(q, l.node, r.node, rows)
		return res{node: out, set: l.set.Union(r.set)}
	}
	return rec(n).node
}

// connectedUnits reports whether, in the base graph, the union of the given
// unit footprints induces a connected contracted graph (treating each unit
// as internally connected).
func connectedUnits(q *cost.Query, sets []bitset.Set) bool {
	if len(sets) == 0 {
		return false
	}
	uf := graph.NewUnionFind(len(sets))
	owner := unitOwners(q, sets)
	for _, e := range q.G.Edges {
		ga, gb := owner[e.A], owner[e.B]
		if ga >= 0 && gb >= 0 && ga != gb {
			uf.Union(int(ga), int(gb))
		}
	}
	root := uf.Find(0)
	for i := 1; i < len(sets); i++ {
		if uf.Find(i) != root {
			return false
		}
	}
	return true
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

// baseScans builds the initial units: one scan per base relation.
func baseScans(q *cost.Query, m *cost.Model) ([]*plan.Node, []bitset.Set) {
	n := q.N()
	groups := make([]*plan.Node, n)
	sets := make([]bitset.Set, n)
	for i := 0; i < n; i++ {
		groups[i] = m.Scan(q, i)
		sets[i] = bitset.SetOf(n, i)
	}
	return groups, sets
}
