package heuristic

import (
	"math"
	"sort"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/plan"
)

// IKKBZ implements the polynomial-time left-deep optimizer of Ibaraki &
// Kameda / Krishnamurthy, Boral & Zaniolo [14, 18]: for every choice of
// root it linearizes the (spanning tree of the) join graph by ascending
// rank with chain normalization, and returns the cheapest left-deep plan
// over the best linearization. Ranks use the Cout cost function, exactly as
// in the paper's baseline (§7.3); the returned plan is costed with the real
// model.
func IKKBZ(q *cost.Query, opt Options) (*plan.Node, error) {
	order, err := IKKBZOrder(q, opt)
	if err != nil {
		return nil, err
	}
	if len(order) == 0 {
		return nil, errNoPlan
	}
	return leftDeepPlan(q, opt.model(), order), nil
}

// IKKBZOrder returns the best IKKBZ linearization of the query: a
// permutation of relation ids in join order. LinDP consumes this directly.
//
// Every root reuses the same flat buffers: the spanning tree, the BFS and
// the chains live in arrays of n entries made once per call, so a call
// allocates O(n) however many roots it tries.
func IKKBZOrder(q *cost.Query, opt Options) ([]int, error) {
	n := q.N()
	if n == 0 {
		return nil, errNoPlan
	}
	if n == 1 {
		return []int{0}, nil
	}
	z, err := newIKKBZ(q)
	if err != nil {
		return nil, err
	}
	bestCout := math.Inf(1)
	order, best := make([]int, n), make([]int, n)
	found := false
	for root := 0; root < n; root++ {
		if err := opt.expiredErr(); err != nil {
			if found {
				return best, nil // degrade gracefully with what we have
			}
			return nil, err
		}
		z.linearize(root, order)
		if c := coutOfOrder(q, order, z.pos); c < bestCout {
			bestCout = c
			order, best = best, order
			found = true
		}
	}
	if !found {
		return nil, nil
	}
	return best, nil
}

// ikkbz is the state IKKBZOrder's roots share. The spanning tree is held as
// adjacency arrays (adj[adjAt[v]:adjAt[v+1]] lists v's tree neighbours in
// the order graph.AddEdge would give them). A chain is a doubly linked list
// of items, and an item, a run of relations with the classic T and C
// aggregates under Cout — T(S1 S2) = T(S1)·T(S2), C(S1 S2) = C(S1) +
// T(S1)·C(S2) — is named by its first relation, so every per-item and
// per-relation field is an array indexed by relation.
type ikkbz struct {
	q      *cost.Query
	adjAt  []int32
	adj    []int32
	adjSel []float64

	parent    []int32   // BFS tree parent; -1 at the root, -2 unreached
	parentSel []float64 // selectivity of the edge to the parent
	bfs       []int32   // BFS order
	cursor    []int32   // one per child chain being merged

	t, c       []float64 // item aggregates
	last       []int32   // last relation of the item
	nextRel    []int32   // next relation of the same item, -1 after its last
	next, prev []int32   // item list links, -1 at either end
	chain      []int32   // first item of the chain of v's subtree, -1 if empty

	pos []int32 // position of each relation in the order being costed
}

func newIKKBZ(q *cost.Query) (*ikkbz, error) {
	n := q.N()
	edges, err := spanningEdges(q)
	if err != nil {
		return nil, err
	}
	z := &ikkbz{
		q: q, adjAt: make([]int32, n+1), adj: make([]int32, 2*(n-1)), adjSel: make([]float64, 2*(n-1)),
		parent: make([]int32, n), parentSel: make([]float64, n), bfs: make([]int32, 0, n),
		cursor: make([]int32, 0, n), t: make([]float64, n), c: make([]float64, n),
		last: make([]int32, n), nextRel: make([]int32, n), next: make([]int32, n), prev: make([]int32, n),
		chain: make([]int32, n), pos: make([]int32, n),
	}
	for _, e := range edges {
		z.adjAt[e.A+1]++
		z.adjAt[e.B+1]++
	}
	for v := 0; v < n; v++ {
		z.adjAt[v+1] += z.adjAt[v]
	}
	fill := z.pos[:n] // borrowed as the fill cursor until the first order is costed
	copy(fill, z.adjAt[:n])
	for _, e := range edges {
		z.adj[fill[e.A]], z.adjSel[fill[e.A]] = int32(e.B), e.Sel
		fill[e.A]++
		z.adj[fill[e.B]], z.adjSel[fill[e.B]] = int32(e.A), e.Sel
		fill[e.B]++
	}
	return z, nil
}

// spanningEdges returns the edges of a minimum spanning tree of the join
// graph under ascending edge selectivity (the most selective predicates are
// kept, as in Neumann & Radke's adaptive optimizer), in the order they were
// chosen. A tree graph is its own spanning tree.
func spanningEdges(q *cost.Query) ([]graph.Edge, error) {
	g := q.G
	if g.IsTree() {
		return g.Edges, nil
	}
	edges := make([]graph.Edge, len(g.Edges))
	copy(edges, g.Edges)
	sort.Slice(edges, func(i, j int) bool { return edges[i].Sel < edges[j].Sel })
	uf := graph.NewUnionFind(g.N)
	kept := edges[:0]
	for _, e := range edges {
		if uf.Same(e.A, e.B) {
			continue
		}
		uf.Union(e.A, e.B)
		kept = append(kept, e)
		if len(kept) == g.N-1 {
			break
		}
	}
	if len(kept) != g.N-1 {
		return nil, ErrDisconnected
	}
	return kept, nil
}

func (z *ikkbz) rank(it int32) float64 {
	if z.c[it] == 0 {
		return 0
	}
	return (z.t[it] - 1) / z.c[it]
}

// linearize writes the IKKBZ order for one root into order: children chains
// are computed bottom-up, merged by ascending rank, and normalized by
// compounding rank inversions.
func (z *ikkbz) linearize(root int, order []int) {
	for i := range z.parent {
		z.parent[i] = -2
	}
	z.parent[root] = -1
	bfs := append(z.bfs[:0], int32(root))
	for h := 0; h < len(bfs); h++ {
		v := bfs[h]
		for j := z.adjAt[v]; j < z.adjAt[v+1]; j++ {
			if w := z.adj[j]; z.parent[w] == -2 {
				z.parent[w], z.parentSel[w] = v, z.adjSel[j]
				bfs = append(bfs, w)
			}
		}
	}
	// Children before parents.
	for i := len(bfs) - 1; i >= 0; i-- {
		v := bfs[i]
		head := z.mergeChildren(v)
		if int(v) == root {
			z.chain[v] = head
			continue
		}
		t := z.parentSel[v] * z.q.Rows(int(v))
		z.t[v], z.c[v], z.last[v], z.nextRel[v] = t, t, v, -1
		z.next[v], z.prev[v] = head, -1
		if head >= 0 {
			z.prev[head] = v
		}
		z.chain[v] = v
		z.normalize(v)
	}
	order[0] = root
	k := 1
	for it := z.chain[root]; it >= 0; it = z.next[it] {
		for r := it; r >= 0; r = z.nextRel[r] {
			order[k] = int(r)
			k++
		}
	}
}

// mergeChildren merges the rank-sorted chains of v's children, taken in
// neighbour order, into one rank-sorted chain (precedence within each chain
// is preserved; on equal ranks the earlier child's item goes first) and
// returns its first item, or -1 when v has no children.
func (z *ikkbz) mergeChildren(v int32) int32 {
	cur := z.cursor[:0]
	for j := z.adjAt[v]; j < z.adjAt[v+1]; j++ {
		if w := z.adj[j]; z.parent[w] == v {
			cur = append(cur, z.chain[w])
		}
	}
	head, tail := int32(-1), int32(-1)
	for {
		best := -1
		for ci, it := range cur {
			if it < 0 {
				continue
			}
			if best < 0 || z.rank(it) < z.rank(cur[best]) {
				best = ci
			}
		}
		if best < 0 {
			return head
		}
		it := cur[best]
		cur[best] = z.next[it]
		if tail >= 0 {
			z.next[tail] = it
		} else {
			head = it
		}
		z.prev[it], z.next[it] = tail, -1
		tail = it
	}
}

// normalize compounds adjacent rank inversions of the chain starting at
// item head until ranks are non-decreasing, preserving precedence order:
// an inverted pair becomes one item, and the scan steps back one item to
// recheck the pair the merge created.
func (z *ikkbz) normalize(head int32) {
	it := head
	for z.next[it] >= 0 {
		nx := z.next[it]
		if !(z.rank(it) > z.rank(nx)) {
			it = nx
			continue
		}
		z.t[it], z.c[it] = z.t[it]*z.t[nx], z.c[it]+z.t[it]*z.c[nx]
		z.nextRel[z.last[it]] = nx
		z.last[it] = z.last[nx]
		z.next[it] = z.next[nx]
		if z.next[nx] >= 0 {
			z.prev[z.next[nx]] = it
		}
		if z.prev[it] >= 0 {
			it = z.prev[it]
		}
	}
}

// prefixSel is the product of the selectivities of the edges joining v to
// the relations before position k of an order whose positions pos holds,
// multiplied in v's adjacency order — the product q.SelBetweenSets forms
// between the prefix and {v}.
func prefixSel(q *cost.Query, pos []int32, v, k int) float64 {
	sel := 1.0
	sels := q.G.NeighborSels(v)
	for j, w := range q.G.Neighbors(v) {
		if int(pos[w]) < k {
			sel *= sels[j]
		}
	}
	return sel
}

// coutOfOrder evaluates the Cout cost of a left-deep order: the sum of all
// intermediate result sizes under the full join graph's selectivities. pos
// is scratch of q.N() entries.
func coutOfOrder(q *cost.Query, order []int, pos []int32) float64 {
	for k, v := range order {
		pos[v] = int32(k)
	}
	rows := q.Rows(order[0])
	total := 0.0
	for k := 1; k < len(order); k++ {
		v := order[k]
		rows = rows * q.Rows(v) * prefixSel(q, pos, v, k)
		total += rows
	}
	return total
}

// leftDeepPlan builds the left-deep plan following order, costed with the
// real model.
func leftDeepPlan(q *cost.Query, m *cost.Model, order []int) *plan.Node {
	pos := make([]int32, q.N())
	for k, v := range order {
		pos[v] = int32(k)
	}
	cur := m.Scan(q, order[0])
	for k := 1; k < len(order); k++ {
		v := order[k]
		r := m.Scan(q, v)
		rows := cur.Rows * r.Rows * prefixSel(q, pos, v, k)
		cur = m.JoinWithRows(q, cur, r, rows)
	}
	return cur
}
