package dp

import (
	"repro/internal/bitset"
	"repro/internal/graph"
)

// This file implements the Moerkotte–Neumann connected-subgraph enumeration
// [24] used three times: DPCCP consumes csg-cmp pairs directly
// (enumerateCsgRec, enumerateCmp); the vertex-based algorithms (DPSub,
// MPDP) and Counters collect the connected sets S_i of each size without
// touching the C(n,i) disconnected ones; and MPDP's per-set evaluator walks
// the connected subsets of each block the same way instead of unranking all
// 2^|B| of them. The last two share one iterative walk (csgWalk). The GPU
// model accounts for the unrank+filter cost of what the CPU skips
// separately; see internal/gpusim.

// enumerateCsgRec grows s by every non-empty subset of its neighbourhood
// outside the exclusion set x, emitting each grown set and recursing. It
// returns false as soon as emit does, unwinding the whole recursion.
//
//mpdp:hotpath
func enumerateCsgRec(g *graph.Graph, s, x bitset.Mask, emit func(bitset.Mask) bool) bool {
	nb := g.NeighborhoodOf(s).Diff(x)
	if nb.Empty() {
		return true
	}
	for sub := nb.LowestBit(); !sub.Empty(); sub = sub.NextSubset(nb) {
		if !emit(s.Union(sub)) {
			return false
		}
	}
	for sub := nb.LowestBit(); !sub.Empty(); sub = sub.NextSubset(nb) {
		if !enumerateCsgRec(g, s.Union(sub), x.Union(nb), emit) {
			return false
		}
	}
	return true
}

// csgWalk is EnumerateCsg/EnumerateCsgRec of [24] confined to a vertex
// subset and turned inside out: an explicit stack replaces the recursion and
// next replaces the emit callback, so the census and the MPDP evaluator walk
// connected subsets from their own loops without a closure or an
// allocation. Start vertices are taken highest first, each excluding every
// smaller-numbered vertex, and a set is handed out before its extensions
// (pre-order) instead of after all its siblings; the collection is that of
// [24], each connected subset of within exactly once. The census buckets by
// size and the levels read a finished table, so neither depends on the
// order; the evaluator's tie rule does, and preorderLess reproduces it.
type csgWalk struct {
	g      *graph.Graph
	within bitset.Mask // the vertex subset the walk is confined to
	roots  bitset.Mask // start vertices not yet taken, highest first
	depth  int
	// One frame per set under extension. A child strictly contains its
	// parent and the last set has no frame, so one frame per vertex of the
	// graph covers every walk; allocated on the first walk and kept.
	stack []csgFrame
}

// csgFrame extends the connected set s by the non-empty subsets of nb.
type csgFrame struct {
	s   bitset.Mask
	adj bitset.Mask // every neighbour of s (members of s may appear too)
	nb  bitset.Mask // neighbourhood of s inside within, outside the exclusion set
	x   bitset.Mask // exclusion set handed to the children: the frame's own ∪ nb
	sub bitset.Mask // the subset of nb handed out last
}

// start points the walk at the connected subsets of the subgraph of g
// induced by within.
func (w *csgWalk) start(g *graph.Graph, within bitset.Mask) {
	if len(w.stack) < g.N {
		w.stack = make([]csgFrame, g.N)
	}
	w.g, w.within, w.roots, w.depth = g, within, within, 0
}

// startHalf points the walk at the connected subsets of the subgraph induced
// by within that lack within's lowest vertex v0: the walk of start without
// its last root, so exactly one side of every bipartition of within.
func (w *csgWalk) startHalf(g *graph.Graph, within bitset.Mask) {
	w.start(g, within)
	w.roots = within.Diff(within.LowestBit())
}

// preorderLess reports whether the walk of start(g, block) hands out a
// before b, for two distinct connected subsets of block that both hold its
// lowest vertex v0 — both under root v0, which the walk takes last. It
// retraces the frames from {v0} the way push opens them: at each frame the
// two sets take their parts of the frame's nb, and the first frame where the
// parts differ decides. A set that takes nothing there is the frame's own
// set, handed out before every extension; otherwise NextSubset counts
// upward, so the numerically smaller part comes first.
func preorderLess(g *graph.Graph, block, a, b bitset.Mask) bool {
	v0 := block.Lowest()
	adj, x := g.AdjMask(v0), bitset.Full(v0+1)
	for {
		nb := adj.Intersect(block.Diff(x))
		pa, pb := a.Intersect(nb), b.Intersect(nb)
		if pa != pb {
			return pa.Empty() || (!pb.Empty() && pa < pb)
		}
		if pa.Empty() {
			return false // a == b
		}
		adj, x = adj.Union(g.NeighborhoodOf(pa)), x.Union(nb)
	}
}

// next returns the next connected subset, or the empty set once the walk is
// exhausted.
//
//mpdp:hotpath
func (w *csgWalk) next() bitset.Mask {
	g := w.g
	for w.depth > 0 {
		f := &w.stack[w.depth-1]
		f.sub = f.sub.NextSubset(f.nb)
		if f.sub.Empty() {
			w.depth--
			continue
		}
		// Once the exclusion set covers within, no extension of this
		// frame's sets can grow: in a clique that is every frame, and the
		// walk degenerates to the plain subset loop.
		if open := w.within.Diff(f.x); !open.Empty() {
			w.push(f.s.Union(f.sub), f.adj.Union(g.NeighborhoodOf(f.sub)), f.x, open)
		}
		return f.s.Union(f.sub)
	}
	if w.roots.Empty() {
		return 0
	}
	v := w.roots.Highest()
	w.roots = w.roots.Remove(v)
	x := bitset.Full(v + 1)
	w.push(bitset.Single(v), g.AdjMask(v), x, w.within.Diff(x))
	return bitset.Single(v)
}

// push opens a frame for s when it has a neighbour among the open vertices
// (within minus the exclusion set x).
//
//mpdp:hotpath
func (w *csgWalk) push(s, adj, x, open bitset.Mask) {
	nb := adj.Intersect(open)
	if nb.Empty() {
		return
	}
	w.stack[w.depth] = csgFrame{s: s, adj: adj, nb: nb, x: x.Union(nb)}
	w.depth++
}

// connectedSetsBySize buckets every connected subset of g by cardinality:
// result[i] holds the connected sets of size i (result[0] is empty). This
// is the "S_i" collection of Algorithms 1–3, collected into ws's census
// buckets by ws's walk. On a star or a clique the walk never pushes a frame
// below a root, so the census is a plain subset loop. The deadline is polled
// once per set; a nil return signals expiry.
func connectedSetsBySize(g *graph.Graph, dl *Deadline, ws *Workspace) [][]bitset.Mask {
	buckets := ws.buckets(g.N)
	w := ws.walk()
	w.start(g, bitset.Full(g.N))
	total := 0
	for s := w.next(); !s.Empty(); s = w.next() {
		if total++; dl.Expired() || total > maxConnectedSets {
			return nil
		}
		c := s.Count()
		buckets[c] = append(buckets[c], s)
	}
	return buckets
}

// maxConnectedSets bounds how many connected sets the enumeration will
// materialize (512 MiB of masks). Queries beyond it cannot finish within
// any realistic time budget anyway, so the overflow is reported as a
// timeout instead of exhausting memory first.
const maxConnectedSets = 64 << 20

// enumerateCmp calls emit for every complement csg of s1: connected sets s2
// disjoint from s1, connected to s1, with the canonical ordering of [24]
// guaranteeing each unordered csg-cmp pair is produced exactly once across
// the full EnumerateCsg × EnumerateCmp sweep.
//
//mpdp:hotpath
func enumerateCmp(g *graph.Graph, s1 bitset.Mask, emit func(s2 bitset.Mask) bool) bool {
	x := bitset.Full(s1.Lowest() + 1).Union(s1)
	nb := g.NeighborhoodOf(s1).Diff(x)
	if nb.Empty() {
		return true
	}
	// Descending vertex order over the neighbourhood, iterated in place —
	// this runs once per csg of every query, so it must not allocate (the
	// old Elements() slice was the hot path's last per-pair allocation).
	for rest := nb; !rest.Empty(); {
		v := rest.Highest()
		rest = rest.Remove(v)
		s2 := bitset.Single(v)
		if !emit(s2) {
			return false
		}
		// B_v ∩ nb: smaller-or-equal neighbourhood vertices are excluded
		// from the recursion so each complement is generated once.
		bv := bitset.Full(v + 1).Intersect(nb)
		if !enumerateCsgRec(g, s2, x.Union(bv), emit) {
			return false
		}
	}
	return true
}

// ccpPairs invokes emit(s1, s2) for every csg-cmp pair of the query graph,
// each unordered pair exactly once. It returns false if the deadline
// expired, aborting the enumeration at the next (sparse) deadline poll
// rather than walking the remaining pairs.
func ccpPairs(g *graph.Graph, dl *Deadline, emit func(s1, s2 bitset.Mask)) bool {
	n := g.N
	expired := false
	for v := n - 1; v >= 0 && !expired; v-- {
		s1 := bitset.Single(v)
		sub := func(s bitset.Mask) bool {
			if dl.Expired() {
				expired = true
				return false
			}
			return enumerateCmp(g, s, func(s2 bitset.Mask) bool {
				if dl.Expired() {
					expired = true
					return false
				}
				emit(s, s2)
				return true
			})
		}
		if !sub(s1) {
			break
		}
		if !enumerateCsgRec(g, s1, bitset.Full(v+1), sub) {
			break
		}
	}
	return !expired
}
