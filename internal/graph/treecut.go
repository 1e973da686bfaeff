package graph

import (
	"math/bits"
	"slices"

	"repro/internal/bitset"
)

// TreeCut is one edge of a tree join graph as Algorithm 2 reads it. In a
// tree, removing an edge from a connected vertex set S that holds both its
// ends leaves exactly two connected sides, and which side a vertex falls on
// does not depend on S: it is on the child's side when it lies in the
// child's subtree of the rooted tree, and on the parent's otherwise. The
// grow walk from one end over S (§3.2.1) therefore collapses to one AND,
// and since that edge is the only one crossing the cut, the selectivity
// product over the cut is 1.0 · Sel — Sel to the bit.
type TreeCut struct {
	// Ends holds the edge's two endpoints: the edge lies in S iff
	// S ∩ Ends == Ends.
	Ends bitset.Mask
	// ASide selects Edge.A's side: for a connected S ⊇ Ends, S ∩ ASide is
	// Grow(Single(A), S.Remove(B)) and the rest of S is B's side. It is A's
	// subtree when A is the child, and the complement of B's (over all 64
	// bits) when B is.
	ASide bitset.Mask
	// Sel is the edge's selectivity, CrossSel of the two sides.
	Sel float64
}

// TreeCuts appends the cuts of g's edges to buf, one per edge in g.Edges
// order, and returns it. g must be a tree (IsTree) of at most 64 vertices;
// anything else is a caller's bug and panics. The result is a snapshot:
// build it per run and share it read-only, do not cache it on the graph.
func (g *Graph) TreeCuts(buf []TreeCut) []TreeCut {
	if g.N > 64 || len(g.Edges) != g.N-1 {
		panic("graph: TreeCuts needs a tree of at most 64 vertices")
	}
	// Root at 0: parent pointers and a breadth-first order from one sweep,
	// subtree masks by folding that order backwards (children first).
	var parent, order [64]int8
	var sub [64]bitset.Mask
	seen, top := bitset.Single(0), 1
	parent[0] = -1
	for i := 0; i < top; i++ {
		v := int(order[i])
		for m := uint64(g.adjMask[v].Diff(seen)); m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			parent[w], order[top] = int8(v), int8(w)
			top++
		}
		seen |= g.adjMask[v]
	}
	if top != g.N {
		panic("graph: TreeCuts needs a connected graph")
	}
	for i := top - 1; i >= 0; i-- {
		v := int(order[i])
		sub[v] |= bitset.Single(v)
		if p := parent[v]; p >= 0 {
			sub[p] |= sub[v]
		}
	}
	buf = slices.Grow(buf, len(g.Edges))
	for _, e := range g.Edges {
		side := sub[e.A]
		if int(parent[e.A]) != e.B {
			side = ^sub[e.B]
		}
		buf = append(buf, TreeCut{Ends: bitset.Single(e.A) | bitset.Single(e.B), ASide: side, Sel: e.Sel})
	}
	return buf
}
