package heuristic

import (
	"repro/internal/cost"
	"repro/internal/plan"
)

// gooEdge is one live edge of GOO's contracted graph: units a < b are joined
// by at least one base edge.
type gooEdge struct {
	a, b  int     // unit ids; a unit keeps the lower id of the two it merged
	first int     // lowest q.G.Edges index crossing the pair: the tie-break
	rows  float64 // cardinality of joining the two units as they stand
	pos   int     // index in the heap, -1 once the edge is gone
}

// gooHeap orders the live contracted edges by join cardinality, equal
// cardinalities by base-edge order — the edge a scan of q.G.Edges for the
// strictly smallest result meets first. Its sifts are container/heap's,
// comparison for comparison, on the concrete type: through heap.Interface
// they were half of GOO's time.
type gooHeap []*gooEdge

func (h gooHeap) less(i, j int) bool {
	if h[i].rows != h[j].rows {
		return h[i].rows < h[j].rows
	}
	return h[i].first < h[j].first
}

func (h gooHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}

func (h gooHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i, len(h))
	}
}

func (h gooHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func (h gooHeap) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

func (h gooHeap) fix(i int) {
	if !h.down(i, len(h)) {
		h.up(i)
	}
}

// remove takes out the edge at i and returns the heap one shorter; heap.Pop
// is remove(0).
func (h gooHeap) remove(i int) gooHeap {
	n := len(h) - 1
	if n != i {
		h.swap(i, n)
		if !h.down(i, n) {
			h.up(i)
		}
	}
	h[n].pos = -1
	return h[:n]
}

// GOO is Greedy Operator Ordering (Fegaras [8]): starting from one unit per
// base relation, it repeatedly joins the edge-connected pair of units whose
// join output is smallest, until a single plan remains. It scales to
// thousands of relations, at the price of plan quality (Tables 1 and 2). It
// also serves as the initial-plan heuristic of IDP2, exactly as in the
// paper's experiments (§7.3).
//
// The contracted graph is kept, not rebuilt: every unit lists its live
// edges, every edge caches its join cardinality, and a merge re-estimates
// only the edges at the merged unit. That is O(E log E) for the heap plus
// one selectivity product per edge at each merged unit, where rebuilding
// costs one per live edge per merge.
func GOO(q *cost.Query, opt Options) (*plan.Node, error) {
	m := opt.model()
	n := q.N()
	if n == 0 {
		return nil, errNoPlan
	}
	nodes, sets := baseScans(q, m)
	joins := make(nodeSlab, 0, n-1)
	estimate := func(e *gooEdge) {
		e.rows = nodes[e.a].Rows * nodes[e.b].Rows * q.SelBetweenSets(sets[e.a], sets[e.b])
	}
	// Every unit's edge list starts as a full-capacity window of one
	// array, so a list outgrowing its relation's degree moves out.
	deg := make([]int, n+1)
	for _, be := range q.G.Edges {
		deg[be.A+1]++
		deg[be.B+1]++
	}
	for v := 0; v < n; v++ {
		deg[v+1] += deg[v]
	}
	lists := make([]*gooEdge, 2*len(q.G.Edges))
	adj := make([][]*gooEdge, n)
	for v := range adj {
		adj[v] = lists[deg[v]:deg[v]:deg[v+1]]
	}
	edges := make([]gooEdge, len(q.G.Edges))
	h := make(gooHeap, len(edges))
	for i, be := range q.G.Edges { // A < B, no parallel edges (graph.AddEdge)
		e := &edges[i]
		*e = gooEdge{a: be.A, b: be.B, first: i, pos: i}
		estimate(e)
		h[i] = e
		adj[e.a] = append(adj[e.a], e)
		adj[e.b] = append(adj[e.b], e)
	}
	h.init()

	// fused[x] is the edge already kept between the unit being merged and
	// unit x; all nil between merges.
	fused := make([]*gooEdge, n)
	for live := n; live > 1; live-- {
		if err := opt.expiredErr(); err != nil {
			return nil, err
		}
		if len(h) == 0 {
			return nil, ErrDisconnected
		}
		e := h[0]
		h = h.remove(0)
		a, b := e.a, e.b
		// Keep the smaller input on the right (build side preference).
		l, r := nodes[a], nodes[b]
		if l.Rows < r.Rows {
			l, r = r, l
		}
		j := joins.next()
		m.JoinInto(j, q, l, r, e.rows)
		nodes[a], nodes[b] = j, nil
		sets[a].UnionWith(sets[b])

		// b's edges become a's, the shorter list appended to the longer.
		// Edges to a common neighbour fuse into one; the popped edge and
		// edges fused away earlier are still listed, and drop out here.
		long, short := adj[a], adj[b]
		if len(long) < len(short) {
			long, short = short, long
		}
		long = append(long, short...)
		adj[b] = nil
		kept := long[:0]
		for _, ce := range long {
			if ce.pos < 0 {
				continue
			}
			x := ce.a
			if x == a || x == b {
				x = ce.b
			}
			if prev := fused[x]; prev != nil {
				h = h.remove(ce.pos)
				if ce.first < prev.first {
					prev.first = ce.first
					h.fix(prev.pos)
				}
				continue
			}
			fused[x] = ce
			ce.a, ce.b = min(a, x), max(a, x)
			kept = append(kept, ce)
		}
		for _, ce := range kept {
			fused[ce.a], fused[ce.b] = nil, nil
			estimate(ce)
			h.fix(ce.pos)
		}
		adj[a] = kept
	}
	return nodes[0], nil // a merged unit keeps the lower id
}
