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
// warp). Plans are costed for real — each GPU algorithm returns exactly the
// optimal plan — while phase work counts are derived either arithmetically
// (unrank/filter over C(n,i) candidate sets) or from the instrumented
// per-set evaluators shared with package dp, so the modeled counts equal
// what the real kernels would execute.
//
// See DESIGN.md ("Hardware/data substitutions") for why this preserves the
// paper's observable behaviour: every speedup the paper reports is a ratio
// of these work counts, not a property of the silicon.
package gpusim

// Device describes the simulated GPU's throughput-relevant parameters.
type Device struct {
	Name     string
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
func (d *Device) warpThroughput() float64 {
	return float64(d.SMCount*d.SchedulersPerSM) * d.ClockGHz * 1e9
}

// GTX1080 models the NVIDIA GeForce GTX 1080 used in §7.1.
func GTX1080() *Device {
	return &Device{
		Name:            "GTX1080",
		WarpSize:        32,
		SMCount:         20,
		SchedulersPerSM: 4,
		ClockGHz:        1.61,
		KernelLaunchUS:  5,
		LevelTransferUS: 60,
		GlobalAccessNS:  3,
	}
}

// Config selects the device and the §5 implementation enhancements.
type Config struct {
	Device *Device
	// Devices is the simulated device count for the multi-device scheduler
	// (MPDPGPUMulti); 0 and 1 both mean a single device. The single-device
	// entry points (MPDPGPU etc.) ignore it.
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
	return Config{Device: GTX1080(), FusedPrune: true, CCC: true}
}

func (c Config) device() *Device {
	if c.Device != nil {
		return c.Device
	}
	return GTX1080()
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

// PhaseMS returns the modeled milliseconds spent in each phase's kernels on
// the given device (compute only — launch and transfer overheads are global).
func (s *Stats) PhaseMS(d *Device) [5]float64 {
	var out [5]float64
	for i, c := range s.PhaseCycles {
		out[i] = c / d.warpThroughput() * 1e3
	}
	return out
}

// addCycles accrues warp cycles to both the total and the phase breakdown.
func (s *Stats) addCycles(p Phase, cycles float64) {
	s.WarpCycles += cycles
	s.PhaseCycles[p] += cycles
}

// finalize converts accumulated work into simulated milliseconds.
func (s *Stats) finalize(d *Device) {
	timeSec := float64(s.KernelLaunches)*d.KernelLaunchUS*1e-6 +
		float64(s.Levels)*d.LevelTransferUS*1e-6 +
		s.WarpCycles/d.warpThroughput() +
		float64(s.GlobalWrites)/float64(d.WarpSize)*d.GlobalAccessNS*1e-9
	s.SimTimeMS = timeSec * 1e3
}
