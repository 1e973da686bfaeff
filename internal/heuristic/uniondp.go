package heuristic

import (
	"sort"

	"repro/internal/bitset"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/plan"
)

// UnionDP is the paper's novel graph-partitioning heuristic (§4.2,
// Algorithm 4): it partitions the join graph into connected partitions of at
// most k relations using a union-find sweep that unions cheap/small edges
// first (leaving expensive cut edges for late in the plan), solves each
// partition optimally with MPDP, collapses every partition into a composite
// node, and recurses on the contracted graph until it fits a single MPDP
// call. The recursion lets it scale to thousands of relations.
func UnionDP(q *cost.Query, opt Options) (*plan.Node, error) {
	opt = opt.withWorkspace()
	m := opt.model()
	groups, sets := baseScans(q, m)
	p, err := unionDPRec(q, opt, newContractor(q), groups, sets)
	if err != nil {
		return nil, err
	}
	return Recost(q, m, p), nil
}

// unionDPRec is one level of Algorithm 4 over the current composite units.
func unionDPRec(q *cost.Query, opt Options, ct *contractor, groups []*plan.Node, sets []bitset.Set) (*plan.Node, error) {
	k := opt.k()
	if k < 2 {
		k = 2
	}
	if err := opt.expiredErr(); err != nil {
		return nil, err
	}
	owner := unitOwners(q, sets)
	// Line 1: small enough — hand the whole problem to MPDP.
	if len(groups) <= k {
		all := make([]int, len(groups))
		for i := range all {
			all[i] = i
		}
		p, _, err := opt.inner()(ct.problem(groups, all, owner), opt)
		return p, err
	}

	parts := partitionUnits(q, opt, groups, sets, owner, k)

	// Lines 15-18: optimize each partition with MPDP, build composites.
	var newGroups []*plan.Node
	var newSets []bitset.Set
	for _, members := range parts {
		if err := opt.expiredErr(); err != nil {
			return nil, err
		}
		if len(members) == 1 {
			newGroups = append(newGroups, groups[members[0]])
			newSets = append(newSets, sets[members[0]])
			continue
		}
		merged := bitset.NewSet(q.N())
		for _, gi := range members {
			merged.UnionWith(sets[gi])
		}
		p, _, err := opt.inner()(ct.problem(groups, members, owner), opt)
		if err != nil {
			return nil, err
		}
		newGroups = append(newGroups, p)
		newSets = append(newSets, merged)
	}
	if len(newGroups) >= len(groups) {
		// No union was possible: the contracted graph cannot shrink, which
		// only happens on disconnected inputs.
		return nil, ErrDisconnected
	}
	// Line 20: recurse on the contracted graph G'.
	return unionDPRec(q, opt, ct, newGroups, newSets)
}

// partitionUnits is the partition phase (lines 5-14): edges are taken in
// ascending (combined partition size, edge weight) order — weights are the
// cost of joining the two endpoint units (line 6) so expensive joins become
// cut edges — and endpoints are unioned while the merged partition stays
// within k. owner maps each base relation to its unit. Returns the
// partition as lists of unit indices.
func partitionUnits(q *cost.Query, opt Options, groups []*plan.Node, sets []bitset.Set, owner []int32, k int) [][]int {
	m := opt.model()
	n := len(groups)
	type cEdge struct {
		a, b   int
		weight float64
	}
	seen := map[[2]int]*cEdge{}
	var edges []*cEdge
	for _, e := range q.G.Edges {
		ga, gb := int(owner[e.A]), int(owner[e.B])
		if ga < 0 || gb < 0 || ga == gb {
			continue
		}
		key := [2]int{ga, gb}
		if ga > gb {
			key = [2]int{gb, ga}
		}
		if seen[key] != nil {
			continue
		}
		// Edge weight: cost of joining the relations across the edge,
		// assigned by the cost model (assignEdgeWeights, line 6).
		ua, ub := groups[ga], groups[gb]
		rows := ua.Rows * ub.Rows * q.SelBetweenSets(sets[ga], sets[gb])
		j := m.JoinWithRows(q, ua, ub, rows)
		ce := &cEdge{a: key[0], b: key[1], weight: j.Cost - ua.Cost - ub.Cost}
		seen[key] = ce
		edges = append(edges, ce)
	}
	// Single traversal in increasing (combined partition size, weight)
	// order (Alg. 4, lines 8-13). Before any union every edge's size sum is
	// 2, so the traversal order reduces to ascending weight — a Kruskal
	// sweep with the k-cap. Expensive edges are visited last and usually
	// find their endpoints' partitions already full, which is exactly how
	// costly joins become cut edges pushed to the top of the plan (§4.2,
	// requirement 2).
	sort.Slice(edges, func(i, j int) bool { return edges[i].weight < edges[j].weight })
	uf := graph.NewUnionFind(n)
	for _, e := range edges {
		if uf.Same(e.a, e.b) {
			continue
		}
		if uf.Size(e.a)+uf.Size(e.b) <= k {
			uf.Union(e.a, e.b)
		}
	}
	var parts [][]int
	for _, members := range uf.Groups() {
		parts = append(parts, members)
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i][0] < parts[j][0] })
	return parts
}
