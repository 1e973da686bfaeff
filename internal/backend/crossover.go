package backend

import (
	"time"

	"repro/internal/gpusim"
)

// Crossover holds the router's backend-crossover thresholds: which
// substrate plans a query of a given size and shape. The zero value of any
// field selects the calibrated default (see Calibrate).
//
// The regimes, in increasing query size:
//
//	n ≤ SmallLimit                 MPDP on cpu-parallel for cliques and
//	                               stars, sequential DPCCP otherwise
//	n ≤ CPUParallelLimit           MPDP on cpu-parallel (clique-shaped
//	                               graphs capped at CliqueCPULimit)
//	n ≤ GPULimit                   MPDP on the simulated GPU (clique and
//	                               dense general graphs capped at
//	                               GPUCliqueLimit)
//	beyond                         heuristics (IDP2 for trees and
//	                               unicyclic graphs, LinDP otherwise)
type Crossover struct {
	// SmallLimit routes graphs of at most this many relations by shape:
	// cliques and stars, whose levels are thick, to MPDP on cpu-parallel,
	// and every other shape to sequential DPCCP on cpu-seq — on their thin
	// levels a parallel substrate has nothing to share.
	SmallLimit int `json:"small_limit"`
	// CPUParallelLimit routes graphs of at most this many relations to
	// CPU-parallel MPDP (the paper's raised fall-back limit of 25).
	CPUParallelLimit int `json:"cpu_parallel_limit"`
	// CliqueCPULimit lowers CPUParallelLimit for clique-shaped graphs,
	// whose enumeration cost grows as 3^n.
	CliqueCPULimit int `json:"clique_cpu_limit"`
	// GPULimit routes trees and sparse cyclic graphs of at most this many
	// relations to GPU-MPDP instead of the heuristics — the paper's
	// headline regime, exact plans at sizes CPU enumerators cannot touch.
	// Hard-capped at 64 (the exact enumerators' bitset width).
	GPULimit int `json:"gpu_limit"`
	// GPUCliqueLimit caps the GPU route for clique-shaped and dense
	// general graphs (see DenseEdgeFactor).
	GPUCliqueLimit int `json:"gpu_clique_limit"`
	// DenseEdgeFactor classifies a general (cyclic, non-clique) graph as
	// dense when it has more than DenseEdgeFactor × n edges; dense graphs
	// use GPUCliqueLimit instead of GPULimit, since their connected-set
	// space explodes the same way a clique's does.
	DenseEdgeFactor float64 `json:"dense_edge_factor"`
}

// WithDefaults fills zero fields from the calibrated defaults.
func (c Crossover) WithDefaults() Crossover {
	d := DefaultCrossover()
	if c.SmallLimit == 0 {
		c.SmallLimit = d.SmallLimit
	}
	if c.CPUParallelLimit == 0 {
		c.CPUParallelLimit = d.CPUParallelLimit
	}
	if c.CliqueCPULimit == 0 {
		c.CliqueCPULimit = d.CliqueCPULimit
	}
	if c.GPULimit == 0 {
		c.GPULimit = d.GPULimit
	}
	if c.GPUCliqueLimit == 0 {
		c.GPUCliqueLimit = d.GPUCliqueLimit
	}
	if c.DenseEdgeFactor == 0 {
		c.DenseEdgeFactor = d.DenseEdgeFactor
	}
	if c.GPULimit > 64 {
		c.GPULimit = 64
	}
	return c
}

// cpuPairsPerSec is the calibration constant for real per-pair evaluation
// throughput: candidate joins costed per second per core by the shared
// set evaluators (the reciprocal of dp.ns_per_ccp_pair on the benchmark's
// exact-dense workload, rounded down; see bench/README.md).
const cpuPairsPerSec = 25e6

// DefaultCrossover returns the thresholds calibrated for the paper's
// GTX 1080 device model and a 5-second per-query compute budget.
func DefaultCrossover() Crossover {
	return Calibrate(gpusim.GTX1080(), 5*time.Second)
}

// Calibrate derives the crossover thresholds from the device's work model
// and a per-query compute budget, instead of hard-coding magic sizes:
//
//   - GPULimit: MPDP-GPU unranks the full C(n,k) candidate space at every
//     level — 2^n lattice points per run, the massively-parallel design of
//     §5 — so the largest exact-GPU query is where the modeled unrank +
//     filter time (6 warp-cycles per candidate) plus per-level overhead
//     (kernel launches + host↔device transfer) still fits the budget.
//   - GPUCliqueLimit: on cliques every subset is connected, so the 3^n
//     valid pairs are *costed for real* whatever the substrate; the cap is
//     where real evaluation at cpuPairsPerSec fits the budget.
//   - SmallLimit and CPUParallelLimit follow the paper's evaluation (12
//     and 25): below 12 sequential DPCCP wins on sparse shapes (chains,
//     cycles, MusicBrainz walks), while cliques and stars, whose every set
//     is one block or a tree, already go to CPU-parallel MPDP — and 25 is
//     the paper's raised fall-back limit for the CPU-parallel enumerator.
//
// A faster device raises GPULimit; the budget raises both GPU caps.
func Calibrate(dev *gpusim.Device, budget time.Duration) Crossover {
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

	return Crossover{
		SmallLimit:       12,
		CPUParallelLimit: 25,
		CliqueCPULimit:   14,
		GPULimit:         gpuLimit,
		GPUCliqueLimit:   gpuClique,
		DenseEdgeFactor:  4,
	}
}
