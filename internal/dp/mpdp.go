package dp

import (
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/plan"
)

// MPDPTree is Algorithm 2: the tree-join-graph specialisation of MPDP. For a
// connected set S inducing a tree, the CCP pairs of S are exactly the
// bipartitions produced by removing each of its |S|-1 edges, so they are
// enumerated directly with no CCP checking at all and EvaluatedCounter
// meets the CCPCounter lower bound (Theorem 3).
func MPDPTree(in Input) (*plan.Node, Stats, error) {
	return runLevels(in.ForTree(), EvaluateSetMPDPTree)
}

// MPDP is the paper's general algorithm (Algorithm 3): a hybrid of vertex-
// and edge-based enumeration. For each connected set S it finds the
// biconnected components (blocks) of the induced subgraph; the expensive
// exhaustive subset enumeration is confined to each block (vertex-based),
// and each block-level CCP pair (lb, rb) is expanded to the unique CCP pair
// of S via the grow function (edge-based along the cut edges). Per-set work
// drops from O(2^|S|) to O(B · 2^maxBlock) while the level-synchronous
// structure keeps DPSub's parallelizability.
//
// When the whole join graph is a tree, MPDP dispatches to MPDPTree.
func MPDP(in Input) (*plan.Node, Stats, error) {
	if in.Q.G.IsTree() {
		return MPDPTree(in)
	}
	return MPDPGeneral(in)
}

// MPDPGeneral runs Algorithm 3 regardless of graph shape. Exported so tests
// and benches can exercise the block machinery on trees too.
func MPDPGeneral(in Input) (*plan.Node, Stats, error) {
	return runLevels(in, EvaluateSetMPDP)
}

// runLevels is the sequential level-by-level driver shared by the DPSub and
// MPDP family: enumerate connected sets bucketed by size, then evaluate each
// set of each level with the supplied evaluator. The table is pre-sized from
// the census so it never rehashes, and the single evaluator scratch is
// reused across every set of the run (and, on a workspace, across runs).
func runLevels(in Input, evaluate SetEvaluator) (*plan.Node, Stats, error) {
	var stats Stats
	prep, err := Prepare(in)
	if err != nil {
		return nil, stats, err
	}
	n := in.Q.N()
	dl := in.NewDeadline()
	buckets := connectedSetsBySize(in.Q.G, dl, in.Workspace)
	if buckets == nil {
		return nil, stats, dl.Err()
	}
	tab := prep.Seed(BucketCount(buckets))
	stats.ConnectedSets = uint64(n)

	sc := in.Workspace.Scratch(0)
	for size := 2; size <= n; size++ {
		for _, s := range buckets[size] {
			win, st, err := evaluate(in, tab, s, dl, sc)
			stats.Add(st)
			if err != nil {
				return nil, stats, err
			}
			stats.ConnectedSets++
			if win.Found {
				tab.Put(s, win)
			}
		}
	}
	return Finish(in, tab, prep.Leaves, &stats)
}

// EvaluateSetMPDP performs the per-set body of Algorithm 3 (lines 4-23):
// block discovery, block-level CCP enumeration, expansion along the cut
// vertices and join costing. It is shared by the sequential, CPU-parallel
// and GPU-model variants so their plans agree exactly.
//
// Line 4 runs Hopcroft–Tarjan only on a set it cannot settle for free: a
// set in which every member is adjacent to at least half of it is one block
// (diracBlock) — every set of a clique, and the dense sets of any graph.
// Lines 17–18 grow a block pair into the set's pair; the DFS of line 4 has
// already recorded which vertices of s hang from each block vertex, so a
// side is the OR of its block vertices' (graph.BlockScratch.Side), and a
// bridge's selectivity is that of the tree edge the DFS crossed (BridgeSel):
// no sweep of the set per pair.
//
// Line 6 ranges lb over every proper subset of the block, which is the
// right shape for a warp that unranks subsets in lockstep and the wrong one
// for a CPU: here lb ranges over the connected subsets of the block that
// lack its lowest vertex v0 (csgWalk.startHalf). That is one side of every
// block pair, so each pair is found once and costed in both orientations
// from the same two slots, and the work per block is under csg(B), not
// 2^|B| — a cycle-24 block has 553 connected subsets among 16.7 M. A block
// is connected, so lb always has an edge to rb = block∖lb, and the one test
// left of the CCP block is whether rb is connected, which is a probe of the
// table: connected sets of smaller sizes are all stored, and the slot it
// returns serves the cost lane — half of the child-cost bound that prunes
// almost every pair — and, only for pairs the bound lets through, the cold
// record. Stats.Evaluated counts a valid pair twice, once per orientation,
// and an invalid one once; the unrank volume the device model bills is
// UnrankedPairs.
//
// Exact ties are common (sub-one-row estimates), and the incumbent keeps
// them, so the order of offers is part of the plan. The order kept is that
// of a walk over every connected subset of the block: first each pair with
// v0 on the right, in this walk's order, then each with v0 on the left, in
// the pre-order of root v0. The first kind is offered to bw as it comes. The
// second goes to the block's own sec, which on an equal cost keeps the
// candidate whose block side comes earlier in that pre-order
// (preorderLess), and is offered to bw once the block is done. A
// selectivity multiplies over the smaller side, the first argument's on
// equal sizes, so each orientation computes its own.
//
//mpdp:hotpath
func EvaluateSetMPDP(in Input, tab *plan.Table, s bitset.Mask, dl *Deadline, sc *Scratch) (Winner, Stats, error) {
	var stats Stats
	g := in.Q.G
	var bw bestWin
	w, bs := &sc.walk, &sc.Blocks
	for i, block := range sc.blocks(g, s) {
		if block.Count() == 2 {
			// A bridge: its two endpoints are the block's only pair, valid
			// in both orientations, and nothing needs probing — exactly
			// one tree edge of Algorithm 2, and like it the only edge over
			// its cut, so the cut's selectivity is the edge's.
			if dl != nil && dl.Expired() {
				return bw.Winner, stats, dl.Err()
			}
			left := bs.Side(i, block.LowestBit()) // its lower end's side of s once the bridge is cut
			stats.Evaluated += 2
			stats.CCP += 2
			costBothWays(in.Q, in.M, tab, &bw, left, s.Diff(left), bs.BridgeSel(i))
			continue
		}
		// When the set is a single block the block pair already is the
		// set-level pair and nothing hangs from it.
		whole := block == s
		var sec bestWin         // the block's pairs with v0 on the left
		var secSide bitset.Mask // and the block side of its winner
		w.startHalf(g, block)
		for lb := w.next(); !lb.Empty(); lb = w.next() {
			if dl != nil && dl.Expired() {
				return bw.Winner, stats, dl.Err()
			}
			rb := block.Diff(lb)
			stats.Evaluated++
			ri, ok := tab.Slot(rb)
			if !ok {
				continue
			}
			stats.Evaluated++
			stats.CCP += 2
			// Expand the block pair to the set-level pair (lines 17-18).
			left, right := lb, rb
			if !whole {
				left = bs.Side(i, lb)
				right = s.Diff(left)
				if right != rb {
					ri = tab.MustSlot(right)
				}
			}
			li := tab.MustSlot(left)
			l, r := side{cost: tab.CostAt(li)}, side{cost: tab.CostAt(ri)}
			h1 := bw.hopeless(l.cost, r.cost, tab.IsLeaf(right))
			b2 := childBound(r.cost, l.cost, tab.IsLeaf(left))
			// Losing to bw or to sec outright; a tie with sec may still win.
			h2 := bw.Found && b2 >= bw.Cost || sec.Found && b2 > sec.Cost
			if h1 && h2 {
				continue
			}
			l.rows, l.lg = tab.ScalarsAt(li)
			r.rows, r.lg = tab.ScalarsAt(ri)
			if !h1 {
				rows := l.rows * r.rows * in.Q.SelBetween(left, right)
				op, c := joinCost(in.Q, in.M, tab, l, r, right, ri, rows)
				bw.offer(left, right, op, rows, c)
			}
			if !h2 {
				rows := r.rows * l.rows * in.Q.SelBetween(right, left)
				op, c := joinCost(in.Q, in.M, tab, r, l, left, li, rows)
				if !sec.Found || c < sec.Cost || c == sec.Cost && preorderLess(g, block, rb, secSide) {
					sec.Left, sec.Right, sec.Op, sec.Rows, sec.Cost, sec.Found = right, left, op, rows, c, true
					secSide = rb
				}
			}
		}
		if sec.Found {
			bw.offer(sec.Left, sec.Right, sec.Op, sec.Rows, sec.Cost)
		}
	}
	return bw.Winner, stats, nil
}

// blocks returns the blocks of the subgraph induced by the connected set s
// (Algorithm 3, line 4): s alone when the Dirac test proves it 2-connected,
// Hopcroft–Tarjan's answer otherwise, with the sides of each of its blocks
// in sc.Blocks. The slice aliases sc.
//
//mpdp:hotpath
func (sc *Scratch) blocks(g *graph.Graph, s bitset.Mask) []bitset.Mask {
	if diracBlock(g, s) {
		sc.whole[0] = s
		return sc.whole[:]
	}
	return g.FindBlocksInto(s, &sc.Blocks)
}

// diracBlock reports whether s, of at least three relations, has every
// member adjacent to at least ⌈|s|/2⌉ others of s. By Dirac's theorem such a
// subgraph has a Hamiltonian cycle, so it is 2-connected and its one block is
// s. A sparse set fails at its first low-degree member.
//
//mpdp:hotpath
func diracBlock(g *graph.Graph, s bitset.Mask) bool {
	k := s.Count()
	if k < 3 {
		return false
	}
	half := (k + 1) / 2
	for m := uint64(s); m != 0; m &= m - 1 {
		if g.AdjMask(bits.TrailingZeros64(m)).Intersect(s).Count() < half {
			return false
		}
	}
	return true
}

// UnrankedPairs is the candidate-pair volume of Algorithm 3, line 6, for
// the connected set s as the paper counts it (Figs. 2 and 4) and as a
// device executes it: every proper non-empty subset of every block,
// Σ 2^|B| − 2. The GPU model bills its evaluate kernel from this and
// CounterReport.MPDPEvaluated sums it; the CPU evaluator examines only the
// connected ones among them (Stats.Evaluated). A set the Dirac test settles
// is one block and billed without a search, as the evaluator settles it.
func UnrankedPairs(g *graph.Graph, s bitset.Mask, sc *graph.BlockScratch) uint64 {
	if diracBlock(g, s) {
		return uint64(1)<<uint(s.Count()) - 2
	}
	var pairs uint64
	for _, b := range g.FindBlocksInto(s, sc) {
		pairs += uint64(1)<<uint(b.Count()) - 2
	}
	return pairs
}

// side is what one operand of a candidate pair contributes to costing, read
// by slot from the table: the stored cost off the cost lane — all the
// child-cost bound looks at — and, only for a pair the bound lets through,
// the cold record's cardinality and memoized logarithm.
type side struct{ rows, cost, lg float64 }

// joinCost costs l ⋈ r producing outRows tuples, r being the set right in
// slot ri: the one pair-costing body of the MPDP evaluators and the CCP
// stream, from table scalars straight into the cost model's operator
// arithmetic. An index nested loop needs a plain scan with a primary-key
// index on the right.
//
//mpdp:hotpath
func joinCost(q *cost.Query, m *cost.Model, tab *plan.Table, l, r side, right bitset.Mask, ri int, outRows float64) (plan.Op, float64) {
	var rLgi float64
	indexNL := tab.IsLeaf(right) && q.Cat.Rels[tab.RelIDAt(ri)].HasPKIndex
	if indexNL {
		rLgi = tab.LeafLogIdx(right)
	}
	return m.JoinCostCore(l.rows, l.cost, l.lg, r.rows, r.cost, r.lg, rLgi, outRows, indexNL)
}

// costBothWays costs the pair (left, right) in both orientations from one
// cardinality estimate — the unit of work of a tree edge and of a bridge,
// either the one edge over its cut, whose selectivity sel therefore is the
// cut's. Each operand is probed once.
//
//mpdp:hotpath
func costBothWays(q *cost.Query, m *cost.Model, tab *plan.Table, bw *bestWin, left, right bitset.Mask, sel float64) {
	li, ri := tab.MustSlot(left), tab.MustSlot(right)
	l, r := side{cost: tab.CostAt(li)}, side{cost: tab.CostAt(ri)}
	h1, h2 := bw.hopeless(l.cost, r.cost, tab.IsLeaf(right)), bw.hopeless(r.cost, l.cost, tab.IsLeaf(left))
	if h1 && h2 {
		return
	}
	l.rows, l.lg = tab.ScalarsAt(li)
	r.rows, r.lg = tab.ScalarsAt(ri)
	rows := l.rows * r.rows * sel
	if !h1 {
		op, c := joinCost(q, m, tab, l, r, right, ri, rows)
		bw.offer(left, right, op, rows, c)
	}
	if !h2 {
		op, c := joinCost(q, m, tab, r, l, left, li, rows)
		bw.offer(right, left, op, rows, c)
	}
}

// EvaluateSetMPDPTree performs the per-set body of Algorithm 2: one join
// pair per edge of the tree induced by S, costed in both orientations. The
// input must come from Input.ForTree: an edge lies in S when both its ends
// do, its two sides are S inside and outside one precomputed mask
// (graph.TreeCut), and its selectivity is the cut's — no walk of the graph
// per pair. Edges are offered in g.Edges order, A's side on the left first:
// ties keep the incumbent, so the order is part of the plan. Which edges lie
// in S is one pass without a branch (treeEdgesIn), and the loop visits only
// those.
//
//mpdp:hotpath
func EvaluateSetMPDPTree(in Input, tab *plan.Table, s bitset.Mask, dl *Deadline, _ *Scratch) (Winner, Stats, error) {
	var stats Stats
	if len(in.cuts) != len(in.Q.G.Edges) {
		panic("dp: EvaluateSetMPDPTree needs the tree index of Input.ForTree")
	}
	var bw bestWin
	for m := treeEdgesIn(in.cuts, s); m != 0; m &= m - 1 {
		c := &in.cuts[bits.TrailingZeros64(m)]
		if dl != nil && dl.Expired() {
			return bw.Winner, stats, dl.Err()
		}
		left := s & c.ASide
		stats.Evaluated += 2
		stats.CCP += 2
		costBothWays(in.Q, in.M, tab, &bw, left, s.Diff(left), c.Sel)
	}
	return bw.Winner, stats, nil
}

// treeEdgesIn returns the edges of the tree index cuts with both ends in s,
// bit i for cuts[i] — ascending bits are g.Edges order. A tree over at most
// 64 relations has at most 63 edges, so one word holds them. An edge lies in
// s when none of its ends is outside it, and x|-x has its top bit set
// exactly when x ≠ 0: one AND-NOT, a negation and two shifts an edge, no
// branch for the predictor to miss.
//
//mpdp:hotpath
func treeEdgesIn(cuts []graph.TreeCut, s bitset.Mask) uint64 {
	var m uint64
	for i := range cuts {
		out := uint64(cuts[i].Ends &^ s)
		m |= (1 ^ (out|-out)>>63) << (uint(i) & 63)
	}
	return m
}
