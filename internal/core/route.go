package core

import (
	"repro/internal/cost"
	"repro/internal/graph"
)

// Shape classifies a join graph's topology for routing. The classes mirror
// the paper's evaluation workloads: chains and stars are special trees,
// cliques are the dense worst case, and everything else (cycles, snowflake
// arms with cross edges, MusicBrainz walks with shortcut joins) is General.
type Shape string

// Shape classes, from most to least structured.
const (
	ShapeChain   Shape = "chain"
	ShapeStar    Shape = "star"
	ShapeTree    Shape = "tree"
	ShapeClique  Shape = "clique"
	ShapeGeneral Shape = "general"
)

// IsTree reports whether the shape is acyclic (chain, star or general tree),
// the regime where MPDP's tree specialization enumerates in linear output
// time and IDP2 compositions stay near-optimal.
func (s Shape) IsTree() bool {
	return s == ShapeChain || s == ShapeStar || s == ShapeTree
}

// DetectShape classifies g. Graphs of fewer than three vertices are trees
// (or chains) trivially.
func DetectShape(g *graph.Graph) Shape {
	n := g.N
	if n <= 2 {
		return ShapeChain
	}
	if len(g.Edges) == n*(n-1)/2 {
		return ShapeClique
	}
	if !g.IsTree() {
		return ShapeGeneral
	}
	maxDeg := 0
	for v := 0; v < n; v++ {
		if d := len(g.Neighbors(v)); d > maxDeg {
			maxDeg = d
		}
	}
	switch {
	case maxDeg <= 2:
		return ShapeChain
	case maxDeg == n-1:
		return ShapeStar
	default:
		return ShapeTree
	}
}

// The router's ladder: which algorithm, and so which substrate, plans a
// query of a given size and shape. The regimes, in increasing query size:
//
//	n ≤ smallLimit                 MPDP-CPU for cliques and stars,
//	                               sequential DPCCP otherwise
//	n ≤ cpuParallelLimit           MPDP-CPU (clique-shaped graphs capped
//	                               at cliqueCPULimit)
//	n ≤ gpuLimit                   MPDP-GPU (clique and dense general
//	                               graphs capped at gpuCliqueLimit)
//	beyond                         heuristics (IDP2 for trees and
//	                               unicyclic graphs, LinDP otherwise)
//
// The two GPU caps are sized for the paper's GTX 1080, the one device
// gpusim bills, and a 5-second per-query compute budget.
const (
	// smallLimit routes graphs of at most this many relations by shape:
	// cliques and stars, whose levels are thick, to MPDP-CPU, and every
	// other shape to sequential DPCCP — on their thin levels a parallel
	// substrate has nothing to share. Below 12 sequential DPCCP wins on
	// sparse shapes in the paper's evaluation.
	smallLimit = 12
	// cpuParallelLimit routes graphs of at most this many relations to
	// MPDP-CPU (the paper's raised fall-back limit of 25).
	cpuParallelLimit = 25
	// cliqueCPULimit lowers cpuParallelLimit for clique-shaped graphs,
	// whose enumeration cost grows as 3^n.
	cliqueCPULimit = 14
	// gpuLimit routes trees and sparse cyclic graphs of at most this many
	// relations to MPDP-GPU instead of the heuristics — the paper's
	// headline regime, exact plans at sizes CPU enumerators cannot touch.
	// MPDP-GPU unranks the full C(n,k) candidate space at every level, 2^n
	// lattice points per run (the massively-parallel design of §5): 2^41
	// candidates at 6 warp-cycles each (unrank 2, connectivity filter 4) on
	// the GTX 1080 model, plus four kernel launches and one host↔device
	// transfer per level, take 3.2 s and fit the budget; 2^42 take 6.4 s.
	gpuLimit = 41
	// gpuCliqueLimit caps the GPU route for clique-shaped and dense
	// general graphs (see denseEdgeFactor). Every subset of a clique is
	// connected, so its 3^n valid pairs are costed for real whatever the
	// substrate: 3^16 pairs at 25 M pairs per second (the reciprocal of
	// exact-dense's dp.ns_per_ccp_pair, rounded down) take 1.7 s and fit the
	// budget; 3^17 take 5.2 s.
	gpuCliqueLimit = 16
	// denseEdgeFactor classifies a general (cyclic, non-clique) graph as
	// dense when it has more than denseEdgeFactor × n edges; dense graphs
	// use gpuCliqueLimit instead of gpuLimit, since their connected-set
	// space explodes the same way a clique's does.
	denseEdgeFactor = 4
)

// Route picks the algorithm that plans q — the policy AlgAuto runs and the
// service serves every request by — from q's size, detected shape and edge
// count, and reports the shape.
//
// It walks the ladder: for small graphs, MPDP-CPU on cliques and stars,
// where every set is one block or a tree and the levels are thick, and
// sequential DPCCP on the rest; MPDP-CPU to the paper's fall-back limit,
// then — where the pre-GPU router gave up and went heuristic — MPDP-GPU
// with fused pruning and CCC for large trees and sparse cyclic graphs up to
// gpuLimit relations. Cliques and dense general graphs (whose connected-set
// space explodes the same way) cap the exact bands early, and everything
// beyond goes to the graph's heuristic (HeuristicFor).
func Route(q *cost.Query) (Algorithm, Shape) {
	shape := DetectShape(q.G)
	n, edges := q.N(), len(q.G.Edges)
	if n <= smallLimit {
		if shape == ShapeClique || shape == ShapeStar {
			return AlgMPDPParallel, shape
		}
		return AlgDPCCP, shape
	}
	// Only literal cliques shrink the CPU-parallel band; the density test
	// caps the GPU band only, where a dense general graph's connected-set
	// lattice explodes like a clique's. Dense graphs of 17..25 relations
	// therefore still get the exact CPU-parallel route.
	cpuLimit := cpuParallelLimit
	if shape == ShapeClique {
		cpuLimit = cliqueCPULimit
	}
	if n <= cpuLimit {
		return AlgMPDPParallel, shape
	}
	exactLimit := gpuLimit
	if shape == ShapeClique || shape == ShapeStar ||
		(shape == ShapeGeneral && edges > denseEdgeFactor*n) {
		// Cliques and dense graphs explode the candidate-pair space;
		// stars explode the *lattice* instead — a hub of degree d has
		// 2^d connected supersets, so a star past ~26 relations is
		// mathematically guaranteed to overflow the memo cap before the
		// GPU run finishes enumerating. All three skip to the clique cap
		// (stars ≤ the CPU band never reach here, so in practice stars
		// route heuristically beyond 25).
		exactLimit = gpuCliqueLimit
	}
	if n <= exactLimit {
		return AlgMPDPGPU, shape
	}
	return HeuristicFor(q), shape
}

// HeuristicFor is the heuristic that plans q past the exact bands, and the
// one an exact route that ran out of budget falls back to. A heuristic's
// cost follows the graph's cyclic core. Trees and unicyclic graphs (at
// most n edges) go to IDP2: its windows are chains there, and it comes
// within 1.33 times the optimum on every cycle DESIGN.md tabulates, where
// LinDP reaches 8.2. Every other graph (MusicBrainz walks, dense general
// graphs, cliques) goes to the adaptive LinDP. There IDP2's windows are
// dense and cost an inner DP each, while LinDP's interval DP stays O(n³).
// UnionDP plans neither: it cost 12 to 7 400 times the optimum on the
// cycles and MusicBrainz walks DESIGN.md tabulates ("The large-query
// route").
//
// Those cycles have at most 64 relations. Past that the case for IDP2 on
// cycles is open: on heuristic-large's cycle-100s and cycle-200s (seed 3)
// 17 of 95 IDP2 answers cost more than 1.1 times the cheaper of LinDP and
// GOO, the worst 3.45, and 4 under 0.75; with generated statistics (seeds
// 1–4, k = 15) IDP2 ÷ LinDP is 1.00–2.11 on cycle-200 and 0.90–1.08 on
// cycle-100. The rule stays until evidence at those sizes decides it.
func HeuristicFor(q *cost.Query) Algorithm {
	if len(q.G.Edges) <= q.N() {
		return AlgIDP2
	}
	return AlgLinDP
}
