package core

import (
	"time"

	"repro/internal/cost"
	"repro/internal/gpusim"
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

// crossover holds the router's thresholds: which algorithm, and so which
// substrate, plans a query of a given size and shape. The regimes, in
// increasing query size:
//
//	n ≤ smallLimit                 MPDP-CPU for cliques and stars,
//	                               sequential DPCCP otherwise
//	n ≤ cpuParallelLimit           MPDP-CPU (clique-shaped graphs capped
//	                               at cliqueCPULimit)
//	n ≤ gpuLimit                   MPDP-GPU (clique and dense general
//	                               graphs capped at gpuCliqueLimit)
//	beyond                         heuristics (IDP2 for trees and
//	                               unicyclic graphs, LinDP otherwise)
type crossover struct {
	// smallLimit routes graphs of at most this many relations by shape:
	// cliques and stars, whose levels are thick, to MPDP-CPU, and every
	// other shape to sequential DPCCP — on their thin levels a parallel
	// substrate has nothing to share.
	smallLimit int
	// cpuParallelLimit routes graphs of at most this many relations to
	// MPDP-CPU (the paper's raised fall-back limit of 25).
	cpuParallelLimit int
	// cliqueCPULimit lowers cpuParallelLimit for clique-shaped graphs,
	// whose enumeration cost grows as 3^n.
	cliqueCPULimit int
	// gpuLimit routes trees and sparse cyclic graphs of at most this many
	// relations to MPDP-GPU instead of the heuristics — the paper's
	// headline regime, exact plans at sizes CPU enumerators cannot touch.
	// At most 64 (the exact enumerators' bitset width).
	gpuLimit int
	// gpuCliqueLimit caps the GPU route for clique-shaped and dense
	// general graphs (see denseEdgeFactor).
	gpuCliqueLimit int
	// denseEdgeFactor classifies a general (cyclic, non-clique) graph as
	// dense when it has more than denseEdgeFactor × n edges; dense graphs
	// use gpuCliqueLimit instead of gpuLimit, since their connected-set
	// space explodes the same way a clique's does.
	denseEdgeFactor float64
}

// ladder is the one routing ladder: the thresholds calibrated for the
// paper's GTX 1080 device model and a 5-second per-query compute budget.
var ladder = calibrate(gpusim.GTX1080(), 5*time.Second)

// cpuPairsPerSec is the calibration constant for real per-pair evaluation
// throughput: candidate joins costed per second per core by the shared
// set evaluators (the reciprocal of dp.ns_per_ccp_pair on the benchmark's
// exact-dense workload, rounded down; see bench/README.md).
const cpuPairsPerSec = 25e6

// calibrate derives the crossover thresholds from the device's work model
// and a per-query compute budget, instead of hard-coding magic sizes:
//
//   - gpuLimit: MPDP-GPU unranks the full C(n,k) candidate space at every
//     level — 2^n lattice points per run, the massively-parallel design of
//     §5 — so the largest exact-GPU query is where the modeled unrank +
//     filter time (6 warp-cycles per candidate) plus per-level overhead
//     (kernel launches + host↔device transfer) still fits the budget.
//   - gpuCliqueLimit: on cliques every subset is connected, so the 3^n
//     valid pairs are *costed for real* whatever the substrate; the cap is
//     where real evaluation at cpuPairsPerSec fits the budget.
//   - smallLimit and cpuParallelLimit follow the paper's evaluation (12
//     and 25): below 12 sequential DPCCP wins on sparse shapes (chains,
//     cycles, MusicBrainz walks), while cliques and stars, whose every set
//     is one block or a tree, already go to MPDP-CPU — and 25 is the
//     paper's raised fall-back limit for the CPU-parallel enumerator.
//
// A faster device raises gpuLimit; the budget raises both GPU caps.
func calibrate(dev *gpusim.Device, budget time.Duration) crossover {
	if dev == nil {
		dev = gpusim.GTX1080()
	}
	if budget <= 0 {
		budget = 5 * time.Second
	}
	budgetSec := budget.Seconds()

	// Warp instructions retired per second, and the per-level fixed cost:
	// the ~4 kernel launches of Algorithm 5 plus one host↔device round
	// trip.
	throughput := float64(dev.SMCount*dev.SchedulersPerSM) * dev.ClockGHz * 1e9
	levelOverheadSec := (4*dev.KernelLaunchUS + dev.LevelTransferUS) * 1e-6

	const unrankFilterCycles = 6 // unrank (2) + connectivity filter (4) per candidate

	gpuLimit := 0
	for n := 1; n <= 64; n++ {
		candidates := 1.0 // 2^n lattice points, accumulated to avoid overflow
		for i := 0; i < n; i++ {
			candidates *= 2
		}
		sec := candidates*unrankFilterCycles/float64(dev.WarpSize)/throughput +
			float64(n-1)*levelOverheadSec
		if sec > budgetSec {
			break
		}
		gpuLimit = n
	}
	if gpuLimit < 26 {
		gpuLimit = 26 // never below the CPU band, even on a toy device
	}

	gpuClique := 0
	for n, pairs := 1, 3.0; n <= 24; n, pairs = n+1, pairs*3 {
		if pairs/cpuPairsPerSec > budgetSec {
			break
		}
		gpuClique = n
	}
	if gpuClique < 15 {
		gpuClique = 15
	}

	return crossover{
		smallLimit:       12,
		cpuParallelLimit: 25,
		cliqueCPULimit:   14,
		gpuLimit:         gpuLimit,
		gpuCliqueLimit:   gpuClique,
		denseEdgeFactor:  4,
	}
}

// Route picks the algorithm that plans q — the policy AlgAuto runs and the
// service serves every request by — from q's size, detected shape and edge
// count, and reports the shape.
//
// It walks the ladder: for small graphs, MPDP-CPU on cliques and stars,
// where every set is one block or a tree and the levels are thick, and
// sequential DPCCP on the rest; MPDP-CPU to the paper's fall-back limit,
// then — where the pre-GPU router gave up and went heuristic — MPDP-GPU
// with fused pruning and CCC for large trees and sparse cyclic graphs up to
// the bitset width. Cliques and dense general graphs (whose connected-set
// space explodes the same way) cap the exact bands early, and everything
// beyond goes to the graph's heuristic (HeuristicFor).
func Route(q *cost.Query) (Algorithm, Shape) {
	shape := DetectShape(q.G)
	n, edges, x := q.N(), len(q.G.Edges), &ladder
	if n <= x.smallLimit {
		if shape == ShapeClique || shape == ShapeStar {
			return AlgMPDPParallel, shape
		}
		return AlgDPCCP, shape
	}
	// Only literal cliques shrink the CPU-parallel band; the density test
	// caps the GPU band only, where a dense general graph's connected-set
	// lattice explodes like a clique's. Dense graphs of 17..25 relations
	// therefore still get the exact CPU-parallel route.
	cpuLimit := x.cpuParallelLimit
	if shape == ShapeClique {
		cpuLimit = x.cliqueCPULimit
	}
	if n <= cpuLimit {
		return AlgMPDPParallel, shape
	}
	gpuLimit := x.gpuLimit
	if shape == ShapeClique || shape == ShapeStar ||
		(shape == ShapeGeneral && float64(edges) > x.denseEdgeFactor*float64(n)) {
		// Cliques and dense graphs explode the candidate-pair space;
		// stars explode the *lattice* instead — a hub of degree d has
		// 2^d connected supersets, so a star past ~26 relations is
		// mathematically guaranteed to overflow the memo cap before the
		// GPU run finishes enumerating. All three skip to the clique cap
		// (stars ≤ the CPU band never reach here, so in practice stars
		// route heuristically beyond 25).
		gpuLimit = x.gpuCliqueLimit
	}
	if n <= gpuLimit {
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
