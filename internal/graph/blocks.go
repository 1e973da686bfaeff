package graph

import (
	"math/bits"

	"repro/internal/bitset"
)

// BlockScratch holds the DFS state and the answers of FindBlocksInto: the
// blocks of the last set it was given, and for each block the two things
// Algorithm 3 reads off a block pair — which vertices of the set hang from
// each block vertex (Side) and, for a bridge, its edge's selectivity
// (BridgeSel). Everything is a fixed-size array over the at most 64
// vertices of a Mask graph, so a call writes only what it uses and never
// grows anything. The zero value is ready to use; each worker needs its own.
type BlockScratch struct {
	blocks [64]bitset.Mask
	// Per block: the vertex its DFS child hangs from (the one block vertex
	// outside the child's subtree) and that vertex's side, the set minus
	// the child's subtree.
	top     [64]uint8
	topSide [64]bitset.Mask
	// Per vertex x: the vertices of the set that reach the rest of x's
	// parent block only through x (x included), and the selectivity of the
	// tree edge the DFS entered x by.
	hang [64]bitset.Mask
	sel  [64]float64

	disc, low [64]int8
	stack     [64]blockFrame
}

// blockFrame is one vertex on the DFS stack: the vertices visited before it
// (so its subtree is what is visited since), its DFS parent and the index
// of the next adjacency-list entry to try.
type blockFrame struct {
	before          bitset.Mask
	v, parent, next int32
}

// FindBlocks returns the biconnected components (blocks, §2.4) of the
// subgraph induced by s, each as a Mask of the vertices it spans. A bridge
// edge forms a 2-vertex block; isolated vertices of the induced subgraph
// form no block. s must induce a graph of at most 64 vertices.
func (g *Graph) FindBlocks(s bitset.Mask) []bitset.Mask {
	var sc BlockScratch
	return append([]bitset.Mask(nil), g.FindBlocksInto(s, &sc)...)
}

// FindBlocksInto is FindBlocks with caller-supplied scratch; the returned
// slice aliases sc and, like Side and BridgeSel, answers for s only until
// the next call with the same scratch.
//
// It is Hopcroft–Tarjan's DFS [12] on masks. Roots are taken lowest first
// and neighbours in adjacency-list order; a child c of p whose subtree
// reaches no higher than p closes a block when c is finished. That block is
// p and the vertices of c's subtree not yet claimed by a block closed
// inside it, so the vertices still open stand in for the edge stack.
// MPDP (Alg. 3, line 4) calls this once per connected set S.
//
//mpdp:hotpath
func (g *Graph) FindBlocksInto(s bitset.Mask, sc *BlockScratch) []bitset.Mask {
	if s.Count() < 2 {
		return nil
	}
	var visited, open bitset.Mask
	var t int8
	nb := 0
	for roots := s; !roots.Empty(); roots = s.Diff(visited) {
		r := roots.Lowest()
		first, before := nb, visited
		visited, open = visited.Add(r), open.Add(r)
		sc.disc[r], sc.low[r], t = t, t, t+1
		sc.hang[r] = bitset.Single(r)
		sc.stack[0] = blockFrame{before: before, v: int32(r), parent: -1}
		for depth := 1; depth > 0; {
			f := &sc.stack[depth-1]
			v := int(f.v)
			adj := g.adjList[v]
			descended := false
			for f.next < int32(len(adj)) {
				w := adj[f.next]
				f.next++
				if !s.Has(w) || int32(w) == f.parent {
					continue
				}
				if visited.Has(w) {
					// A back edge, or the far end of one already seen.
					if sc.disc[w] < sc.low[v] {
						sc.low[v] = sc.disc[w]
					}
					continue
				}
				sc.stack[depth] = blockFrame{before: visited, v: int32(w), parent: int32(v)}
				visited, open = visited.Add(w), open.Add(w)
				sc.disc[w], sc.low[w], t = t, t, t+1
				sc.hang[w], sc.sel[w] = bitset.Single(w), g.selList[v][f.next-1]
				depth++
				descended = true
				break
			}
			if descended {
				continue
			}
			// v is finished: its subtree is everything visited since.
			depth--
			if depth == 0 {
				break
			}
			sub := visited.Diff(f.before)
			p := int(f.parent)
			if sc.low[v] < sc.low[p] {
				sc.low[p] = sc.low[v]
			}
			if sc.low[v] < sc.disc[p] {
				continue // v's subtree reaches above p: p's parent block goes on
			}
			sc.blocks[nb] = open.Intersect(sub).Add(p)
			sc.top[nb], sc.topSide[nb] = uint8(p), s.Diff(sub)
			sc.hang[p] |= sub
			open = open.Diff(sub)
			nb++
		}
		if comp := visited.Diff(before); comp != s {
			// s is not connected: a top's side stays in its component.
			for i := first; i < nb; i++ {
				sc.topSide[i] &= comp
			}
		}
	}
	return sc.blocks[:nb]
}

// Side returns the vertices of the set last passed to FindBlocksInto that
// stay joined to lb, a subset of its i-th block B, once B∖lb is removed —
// Grow(lb, S∖(B∖lb)), the set-level side of the block pair (lb, B∖lb)
// (Alg. 3, lines 17–18) — from what the DFS recorded instead of a sweep.
//
//mpdp:hotpath
func (sc *BlockScratch) Side(i int, lb bitset.Mask) bitset.Mask {
	var side bitset.Mask
	if t := int(sc.top[i]); lb.Has(t) {
		side, lb = sc.topSide[i], lb.Remove(t)
	}
	for m := uint64(lb); m != 0; m &= m - 1 {
		side |= sc.hang[bits.TrailingZeros64(m)]
	}
	return side
}

// BridgeSel returns the selectivity of the edge of the i-th block, a bridge
// of the set last passed to FindBlocksInto, read off the adjacency list the
// DFS crossed it by: the same bits EdgeSel returns for its two ends.
//
//mpdp:hotpath
func (sc *BlockScratch) BridgeSel(i int) float64 {
	return sc.sel[sc.blocks[i].Remove(int(sc.top[i])).Lowest()]
}
