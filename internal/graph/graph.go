// Package graph implements the join-graph machinery the optimizers are built
// on: G(R, E) with relations as vertices and inner-join predicates as edges
// (§2.1), subset connectivity tests, the grow function (§3.2.1), biconnected
// components / blocks via Hopcroft–Tarjan (§2.4) with the side of each block
// vertex, and a union-find used by the UnionDP partition phase (§4.2).
//
// Two vertex-set representations are supported: bitset.Mask for graphs of at
// most 64 vertices (the exact-DP fast path) and bitset.Set for the large
// graphs (1000+ relations) handled by the heuristic layer.
package graph

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/bitset"
)

// Edge is an undirected join edge between relations A and B annotated with
// the selectivity of the corresponding join predicate.
type Edge struct {
	A, B int
	Sel  float64
}

// Graph is an undirected join graph over vertices 0..N-1.
type Graph struct {
	N     int
	Edges []Edge

	adjList [][]int
	selList [][]float64        // selList[v][j] is the selectivity of (v, adjList[v][j])
	adjMask []bitset.Mask      // valid only when N <= 64
	selAt   map[uint64]float64 // keyed by edgeKey

	// adjSet is the adjacency as dynamic sets, built on first use under
	// adjOnce: a finished graph is shared read-only between goroutines (one
	// compiled query serves concurrent requests), and the first
	// IsTree/ConnectedSet on a graph of more than 64 vertices may come from
	// several of them at once.
	adjOnce sync.Once
	adjSet  []bitset.Set
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	return &Graph{
		N:       n,
		adjList: make([][]int, n),
		selList: make([][]float64, n),
		adjMask: makeAdjMask(n),
		selAt:   make(map[uint64]float64),
	}
}

// Reset empties g to n vertices and no edges and keeps its memory, so that
// a caller building one short-lived graph after another (a heuristic's
// contracted sub-problems) allocates them once. Nothing may read the graph
// it was before.
func (g *Graph) Reset(n int) {
	g.N = n
	g.Edges = g.Edges[:0]
	if cap(g.adjList) < n {
		g.adjList, g.selList = make([][]int, n), make([][]float64, n)
	}
	g.adjList, g.selList = g.adjList[:n], g.selList[:n]
	for v := range g.adjList {
		g.adjList[v], g.selList[v] = g.adjList[v][:0], g.selList[v][:0]
	}
	if n <= 64 && cap(g.adjMask) >= n {
		g.adjMask = g.adjMask[:n]
		clear(g.adjMask)
	} else {
		g.adjMask = makeAdjMask(n)
	}
	if g.selAt == nil {
		g.selAt = make(map[uint64]float64)
	}
	clear(g.selAt)
	g.adjSet, g.adjOnce = nil, sync.Once{}
}

func makeAdjMask(n int) []bitset.Mask {
	if n > 64 {
		return nil
	}
	return make([]bitset.Mask, n)
}

// AddEdge inserts the undirected edge (a, b) with join selectivity sel.
// Parallel edges are merged by multiplying selectivities (conjunctive
// predicates between the same pair of relations).
func (g *Graph) AddEdge(a, b int, sel float64) {
	if a == b {
		panic(fmt.Sprintf("graph: self edge on vertex %d", a))
	}
	if a > b {
		a, b = b, a
	}
	if old, ok := g.selAt[edgeKey(a, b)]; ok {
		g.selAt[edgeKey(a, b)] = old * sel
		for i := range g.Edges {
			if g.Edges[i].A == a && g.Edges[i].B == b {
				g.Edges[i].Sel *= sel
			}
		}
		for i, w := range g.adjList[a] {
			if w == b {
				g.selList[a][i] *= sel
			}
		}
		for i, w := range g.adjList[b] {
			if w == a {
				g.selList[b][i] *= sel
			}
		}
		return
	}
	g.selAt[edgeKey(a, b)] = sel
	g.Edges = append(g.Edges, Edge{A: a, B: b, Sel: sel})
	g.adjList[a] = append(g.adjList[a], b)
	g.adjList[b] = append(g.adjList[b], a)
	g.selList[a] = append(g.selList[a], sel)
	g.selList[b] = append(g.selList[b], sel)
	if g.adjMask != nil {
		g.adjMask[a] = g.adjMask[a].Add(b)
		g.adjMask[b] = g.adjMask[b].Add(a)
	}
	if g.adjSet != nil {
		// Building is not concurrent with reading: drop the derived sets.
		g.adjSet, g.adjOnce = nil, sync.Once{}
	}
}

// edgeKey is the selAt key of the edge a < b: one word, which a map hashes
// on its fast path.
func edgeKey(a, b int) uint64 { return uint64(a)<<32 | uint64(uint32(b)) }

// HasEdge reports whether (a, b) is an edge.
func (g *Graph) HasEdge(a, b int) bool {
	if a > b {
		a, b = b, a
	}
	_, ok := g.selAt[edgeKey(a, b)]
	return ok
}

// EdgeSel returns the selectivity of edge (a, b), or 1 if absent.
func (g *Graph) EdgeSel(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	if s, ok := g.selAt[edgeKey(a, b)]; ok {
		return s
	}
	return 1
}

// Neighbors returns the adjacency list of v. The caller must not modify it.
func (g *Graph) Neighbors(v int) []int { return g.adjList[v] }

// NeighborSels returns the selectivities of v's edges, in the order of
// Neighbors(v). The caller must not modify it.
func (g *Graph) NeighborSels(v int) []float64 { return g.selList[v] }

// AdjMask returns the neighbourhood of v as a Mask. Valid only for N <= 64.
func (g *Graph) AdjMask(v int) bitset.Mask { return g.adjMask[v] }

// NeighborhoodOf returns the union of neighbourhoods of the vertices of s,
// excluding s itself. Valid only for N <= 64. This is on the per-pair DP
// hot path, so the bit scan is inlined instead of going through ForEach.
func (g *Graph) NeighborhoodOf(s bitset.Mask) bitset.Mask {
	var nb bitset.Mask
	for m := uint64(s); m != 0; m &= m - 1 {
		nb |= g.adjMask[bits.TrailingZeros64(m)]
	}
	return nb.Diff(s)
}

// CrossSel multiplies the selectivities of every edge crossing from l to r,
// walking the smaller side's adjacency in list order (the same order and
// arithmetic as the selAt map lookups it replaces, so estimates stay
// bit-identical — but without a map probe per edge on the DP hot path).
func (g *Graph) CrossSel(l, r bitset.Mask) float64 {
	sel := 1.0
	if r.Count() < l.Count() {
		l, r = r, l
	}
	for m := uint64(l); m != 0; m &= m - 1 {
		v := bits.TrailingZeros64(m)
		sels := g.selList[v]
		for j, w := range g.adjList[v] {
			if r.Has(w) {
				sel *= sels[j]
			}
		}
	}
	return sel
}

// ConnectedTo reports whether some edge joins a vertex of l to a vertex of r.
// Valid only for N <= 64.
func (g *Graph) ConnectedTo(l, r bitset.Mask) bool {
	return !g.NeighborhoodOf(l).Disjoint(r)
}

// Grow implements the grow function of §3.2.1 on Mask sets: starting from
// src, it repeatedly adds every vertex of restrict adjacent to the current
// frontier and returns all vertices of restrict reachable from src.
// src must be a subset of restrict. Valid only for N <= 64.
func (g *Graph) Grow(src, restrict bitset.Mask) bitset.Mask {
	reach := src
	frontier := src
	for !frontier.Empty() {
		var next bitset.Mask
		for m := uint64(frontier); m != 0; m &= m - 1 {
			next |= g.adjMask[bits.TrailingZeros64(m)]
		}
		next = next.Intersect(restrict).Diff(reach)
		reach = reach.Union(next)
		frontier = next
	}
	return reach
}

// Connected reports whether the subgraph induced by s is connected
// (the empty set and singletons are connected). Valid only for N <= 64.
func (g *Graph) Connected(s bitset.Mask) bool {
	if s.Empty() {
		return true
	}
	return g.Grow(s.LowestBit(), s) == s
}

// ConnectedComponents returns the connected components of the subgraph
// induced by s. Valid only for N <= 64.
func (g *Graph) ConnectedComponents(s bitset.Mask) []bitset.Mask {
	var comps []bitset.Mask
	for !s.Empty() {
		c := g.Grow(s.LowestBit(), s)
		comps = append(comps, c)
		s = s.Diff(c)
	}
	return comps
}

// ensureAdjSet builds the dynamic-set adjacency on demand, once.
func (g *Graph) ensureAdjSet() {
	g.adjOnce.Do(func() {
		adj := make([]bitset.Set, g.N)
		for v := 0; v < g.N; v++ {
			s := bitset.NewSet(g.N)
			for _, w := range g.adjList[v] {
				s.Add(w)
			}
			adj[v] = s
		}
		g.adjSet = adj
	})
}

// GrowSet is Grow for dynamic sets (graphs of any size).
func (g *Graph) GrowSet(src, restrict bitset.Set) bitset.Set {
	g.ensureAdjSet()
	reach := src.Clone()
	frontier := src.Clone()
	for !frontier.Empty() {
		next := bitset.NewSet(g.N)
		frontier.ForEach(func(v int) { next.UnionWith(g.adjSet[v]) })
		next.IntersectWith(restrict)
		next.DiffWith(reach)
		reach.UnionWith(next)
		frontier = next
	}
	return reach
}

// ConnectedSet reports whether the subgraph induced by s is connected,
// for graphs of any size.
func (g *Graph) ConnectedSet(s bitset.Set) bool {
	lo := s.Lowest()
	if lo < 0 {
		return true
	}
	return g.GrowSet(bitset.SetOf(g.N, lo), s).Equal(s)
}

// Subgraph extracts the subgraph induced by the given global vertex ids and
// returns it together with the local→global vertex mapping. Edge
// selectivities are preserved. The ids order defines local indices.
func (g *Graph) Subgraph(ids []int) (*Graph, []int) {
	local := make(map[int]int, len(ids))
	for li, gi := range ids {
		local[gi] = li
	}
	sub := New(len(ids))
	for _, e := range g.Edges {
		la, okA := local[e.A]
		lb, okB := local[e.B]
		if okA && okB {
			sub.AddEdge(la, lb, e.Sel)
		}
	}
	toGlobal := make([]int, len(ids))
	copy(toGlobal, ids)
	return sub, toGlobal
}

// IsTree reports whether the whole graph is connected and acyclic.
func (g *Graph) IsTree() bool {
	if g.N == 0 {
		return true
	}
	if len(g.Edges) != g.N-1 {
		return false
	}
	if g.N <= 64 {
		return g.Connected(bitset.Full(g.N))
	}
	full := bitset.NewSet(g.N)
	for v := 0; v < g.N; v++ {
		full.Add(v)
	}
	return g.ConnectedSet(full)
}
