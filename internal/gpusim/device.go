// Package gpusim is the repository's substitute for the paper's CUDA
// implementation (§5): a SIMT execution model that accounts for the work a
// GPU would perform — kernel launches, per-level host↔device transfers,
// warp-lockstep cycles including branch divergence, and global-memory
// traffic — and converts it into simulated device time.
//
// The three GPU algorithms of the paper are modeled: DPSize-GPU and
// DPSub-GPU (Meister & Saake [23]) and MPDP-GPU with the paper's two
// enhancements, fused pruning (one global write per set instead of one per
// found plan plus a separate prune kernel) and Collaborative Context
// Collection (CCC [16], which compacts divergent valid-pair work within the
// warp). One driver, Run, models all three at any device count: the
// device count only splits each level's index space (§5's multi-GPU MPDP),
// and the baselines always run on one device. Plans are costed for real —
// every algorithm returns exactly MPDP's optimal plan — while phase work
// counts are derived either arithmetically (unrank/filter over C(n,i)
// candidate sets, each algorithm's candidate pairs) or from the
// instrumented per-set evaluators shared with package dp, so the modeled
// counts equal what the real kernels would execute.
//
// See DESIGN.md ("Hardware/data substitutions") for why this preserves the
// paper's observable behaviour: every speedup the paper reports is a ratio
// of these work counts, not a property of the silicon.
package gpusim

// device describes the simulated GPU's throughput-relevant parameters.
type device struct {
	WarpSize int
	// SMCount × SchedulersPerSM warp instructions issue per clock.
	SMCount         int
	SchedulersPerSM int
	ClockGHz        float64

	// KernelLaunchUS is the host-side launch latency per kernel.
	KernelLaunchUS float64
	// LevelTransferUS is the per-DP-level host↔device round trip (the
	// paper's small-query overhead: "data transfers cost between CPU and
	// GPU for every level in the DP lattice").
	LevelTransferUS float64
	// GlobalAccessNS is the cost per 32-wide global memory transaction.
	GlobalAccessNS float64
}

// warpThroughput returns warp-cycles the device retires per second.
func (d *device) warpThroughput() float64 {
	return float64(d.SMCount*d.SchedulersPerSM) * d.ClockGHz * 1e9
}

// gtx1080 is the one simulated device, the NVIDIA GeForce GTX 1080 used in
// §7.1: Run bills every level on it and TraceInto and PhaseMS price a run's
// counts on it.
var gtx1080 = device{
	WarpSize:        32,
	SMCount:         20,
	SchedulersPerSM: 4,
	ClockGHz:        1.61,
	KernelLaunchUS:  5,
	LevelTransferUS: 60,
	GlobalAccessNS:  3,
}

// Config selects the device count and the §5 implementation enhancements;
// every device is a GTX 1080.
type Config struct {
	// Devices is the simulated device count each DP level is split across;
	// 0 and 1 both mean a single device. Run honours it for MPDP and runs
	// the DPSub and DPSize baselines on one device whatever it says.
	Devices int
	// FusedPrune prunes in shared memory at the end of the evaluate kernel
	// (one global write per set); false models the separate prune kernel of
	// [23] with one global write per found plan.
	FusedPrune bool
	// CCC enables Collaborative Context Collection: valid-pair costing work
	// is stashed and executed densely, avoiding warp divergence stalls.
	CCC bool
}

// DefaultConfig is the paper's full MPDP-GPU configuration on the GTX 1080.
func DefaultConfig() Config {
	return Config{FusedPrune: true, CCC: true}
}

func (c Config) deviceCount() int {
	if c.Devices <= 1 {
		return 1
	}
	return c.Devices
}

// Work-model constants, in warp-cycles per 32-item warp of work.
const (
	unrankCyclesPerItem = 2 // combinadic unrank of one candidate set
	filterCyclesPerItem = 4 // connectivity grow check
	checkCyclesPerItem  = 4 // CCP-condition check of one candidate pair
	costCyclesPerItem   = 8 // cost-model evaluation of one valid pair
	blockCyclesPerSet   = 6 // warp-level Find-Blocks per set [29]
)

// Phase indexes the kernel phases of Algorithm 5.
type Phase int

// Kernel phases, in per-level execution order.
const (
	PhaseUnrank Phase = iota
	PhaseFilter
	PhaseEvaluate
	PhasePrune
	PhaseScatter
	numPhases
)

// String returns the phase name as used in §5.
func (p Phase) String() string {
	switch p {
	case PhaseUnrank:
		return "unrank"
	case PhaseFilter:
		return "filter"
	case PhaseEvaluate:
		return "evaluate"
	case PhasePrune:
		return "prune"
	case PhaseScatter:
		return "scatter"
	}
	return "?"
}

// Stats aggregates the modeled device work of one optimization run.
type Stats struct {
	Levels         int
	KernelLaunches uint64
	UnrankedSets   uint64 // candidate sets unranked across all levels
	FilteredSets   uint64 // sets surviving the connectivity filter
	CandidatePairs uint64 // join pairs examined by the evaluate kernels
	ValidPairs     uint64 // CCP pairs actually costed
	WarpCycles     float64
	GlobalWrites   uint64
	SimTimeMS      float64 // modeled device+host time

	// PhaseCycles breaks WarpCycles down by kernel phase (Algorithm 5).
	PhaseCycles [5]float64
}

// PhaseMS returns the modeled milliseconds spent in each phase's kernels
// (compute only — launch and transfer overheads are global).
func (s *Stats) PhaseMS() [5]float64 {
	var out [5]float64
	for i, c := range s.PhaseCycles {
		out[i] = c / gtx1080.warpThroughput() * 1e3
	}
	return out
}

// addCycles accrues warp cycles to both the total and the phase breakdown.
func (s *Stats) addCycles(p Phase, cycles float64) {
	s.WarpCycles += cycles
	s.PhaseCycles[p] += cycles
}
