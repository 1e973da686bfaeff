package gpusim

import (
	"repro/internal/bitset"
	"repro/internal/dp"
	"repro/internal/plan"
)

// Algo identifies one of the modeled GPU algorithms.
type Algo int

// Supported GPU algorithms.
const (
	AlgoMPDP   Algo = iota // MPDP-GPU, with the §5 enhancements
	AlgoDPSub              // COMB-GPU DPSub of Meister & Saake [23]
	AlgoDPSize             // H+F-GPU DPSize of Meister & Saake [23]
)

// String returns the algorithm name as used in the paper's figures.
func (a Algo) String() string {
	switch a {
	case AlgoMPDP:
		return "MPDP (GPU)"
	case AlgoDPSub:
		return "DPSub (GPU)"
	case AlgoDPSize:
		return "DPSize (GPU)"
	}
	return "?"
}

// MultiStats is the device work model of one optimization on one or more
// simulated devices. The aggregate Stats sums the per-device work; its
// SimTimeMS is the level-synchronous wall time — per level, the devices
// run concurrently and the level ends when the slowest device finishes, so
// wall time is the sum over levels of the per-level maximum, not the sum of
// device busy times.
type MultiStats struct {
	Stats
	// Devices is the number of simulated devices this run was scheduled on.
	Devices int
	// PerDevice holds each device's own accounting. Each device pays its
	// own kernel launches and its own per-level host↔device transfer; a
	// device's SimTimeMS is its busy time summed over the levels.
	PerDevice []Stats
}

// levelTotals is one DP level's work, before it is split across devices.
type levelTotals struct {
	sets     uint64 // connected sets of this size
	unranked uint64 // unrank kernel volume: C(n, size), none for DPSize
	evalCand uint64 // evaluate kernel candidate volume
	valid    uint64 // costed pairs (both orientations)
}

// Run executes algo on the simulated device pool: the level-synchronous
// workflow of Algorithm 5, unrank → filter → evaluate → (prune) → scatter
// once per DP level, with every level's index space split evenly across
// cfg.Devices devices (§5's multi-GPU MPDP). Each device pays its own kernel
// launches and its own host↔device transfer per level, and the level
// completes when the slowest device does. The paper ports only MPDP to
// multi-GPU, so DPSub and DPSize always run on one device.
//
// Every algorithm costs its pairs for real through MPDP behind the level
// barrier, one worker per device — on a tree dp.MPDP's own driver
// (dp.RunMPDP), on any other graph Algorithm 3 over the census
// (dp.RunLevels) — so the plan is exactly dp.MPDP's. The census path shares
// the CPU enumerators' SoA table: the §5 GPU memo layout (open addressing
// on Murmur3) on sparse censuses, direct addressing on dense ones; the bill
// is arithmetic and does not see the difference. The algorithm decides only
// what each level is billed, the work a lockstep device would burn cycles
// on, derived arithmetically from the level's sets and pairs:
//
//   - MPDP unranks and filters the C(n, k) candidate sets of level k, then
//     a warp runs Find-Blocks on each set and examines every proper subset
//     of every block (dp.UnrankedPairs; on a tree, where every block is a
//     bridge, the pairs Algorithm 2 examines).
//   - DPSub unranks and filters the same sets and examines all 2^k subsets
//     of each.
//   - DPSize has no unrank or filter kernels: it pairs the memoized plans of
//     complementary sizes, Σ cnt[i]·cnt[k−i] candidates.
func Run(in dp.Input, cfg Config, algo Algo) (*plan.Node, dp.Stats, MultiStats, error) {
	var astats dp.Stats
	ndev := cfg.deviceCount()
	if algo != AlgoMPDP {
		ndev = 1
	}
	mstats := MultiStats{Devices: ndev, PerDevice: make([]Stats, ndev)}

	n := in.Q.N()
	levels := make([]dp.Stats, n+1)
	var best *plan.Node
	var err error
	switch {
	case in.Q.G.IsTree():
		best, _, err = dp.RunMPDP(in, ndev, levels)
	case algo == AlgoMPDP:
		best, _, err = dp.RunLevels(in, evaluateUnranked, ndev, levels)
	default:
		best, _, err = dp.RunLevels(in, dp.EvaluateSetMPDP, ndev, levels)
	}
	if err != nil {
		return nil, astats, mstats, err
	}
	levels[1].ConnectedSets = uint64(n)
	totals := make([]levelTotals, n+1)
	for size := 2; size <= n; size++ {
		lt := &totals[size]
		lt.sets, lt.valid = levels[size].ConnectedSets, levels[size].CCP
		switch algo {
		case AlgoMPDP:
			lt.unranked = binomial(n, size)
			lt.evalCand = levels[size].Evaluated
		case AlgoDPSub:
			lt.unranked = binomial(n, size)
			lt.evalCand = lt.sets << uint(size)
		case AlgoDPSize:
			for s1 := 1; s1 < size; s1++ {
				lt.evalCand += levels[s1].ConnectedSets * levels[size-s1].ConnectedSets
			}
		}
		astats.Evaluated += lt.evalCand
		astats.CCP += lt.valid
		astats.ConnectedSets += lt.sets
	}
	astats.ConnectedSets += uint64(n)
	mstats.bill(cfg, algo, totals)
	return best, astats, mstats, nil
}

// evaluateUnranked is Algorithm 3's set evaluator with the device's volume
// in place of the CPU's: the winner of dp.EvaluateSetMPDP, and as Evaluated
// what a warp examines, every proper subset of every block of s
// (dp.UnrankedPairs).
func evaluateUnranked(in dp.Input, tab *plan.Table, s bitset.Mask, dl *dp.Deadline, sc *dp.Scratch) (dp.Winner, dp.Stats, error) {
	win, st, err := dp.EvaluateSetMPDP(in, tab, s, dl, sc)
	st.Evaluated = dp.UnrankedPairs(in.Q.G, s, &sc.Blocks)
	return win, st, err
}

// bill splits every level's index spaces evenly across the devices
// (candidate unranking is index-addressed, so the scheduler partitions work
// at candidate granularity, not whole sets), prices each device's share and
// advances the wall clock by the slowest device.
func (m *MultiStats) bill(cfg Config, algo Algo, totals []levelTotals) {
	dev := &gtx1080
	warp := float64(dev.WarpSize)
	ndev := m.Devices
	var wallSec float64
	for size := 2; size < len(totals); size++ {
		lt := &totals[size]
		m.Levels++
		levelWall := 0.0
		for d := 0; d < ndev; d++ {
			ds := &m.PerDevice[d]
			ds.Levels++

			unrank := chunkShare(lt.unranked, ndev, d)
			cand := chunkShare(lt.evalCand, ndev, d)
			valid := chunkShare(lt.valid, ndev, d)
			sets := chunkShare(lt.sets, ndev, d)

			var launches, writes uint64
			var cycles float64
			bill := func(p Phase, c float64) {
				cycles += c
				ds.addCycles(p, c)
			}

			ds.FilteredSets += sets
			if algo != AlgoDPSize {
				// Unrank kernel over this device's candidate share, then
				// the filter kernel's stream compaction of connected sets.
				launches += 2
				ds.UnrankedSets += unrank
				bill(PhaseUnrank, float64(unrank)*unrankCyclesPerItem/warp)
				bill(PhaseFilter, float64(unrank)*filterCyclesPerItem/warp)
				writes += sets
			}

			// Evaluate kernel: one warp per set (MPDP, DPSub) or a thread
			// per candidate pair (DPSize). In lockstep every candidate
			// stalls for the valid path unless CCC compacts the work.
			launches++
			ds.CandidatePairs += cand
			ds.ValidPairs += valid
			if algo == AlgoMPDP {
				bill(PhaseEvaluate, float64(sets)*blockCyclesPerSet) // warp Find-Blocks
			}
			if cfg.CCC {
				bill(PhaseEvaluate, float64(cand)*checkCyclesPerItem/warp+
					float64(valid)*costCyclesPerItem/warp)
			} else {
				bill(PhaseEvaluate, float64(cand)*(checkCyclesPerItem+costCyclesPerItem)/warp)
			}
			if cfg.FusedPrune {
				// In-warp shared-memory prune: one write per surviving set.
				writes += sets
			} else {
				// Separate prune kernel [23]: every found plan spills to
				// global memory, then a reduce-by-key keeps the best.
				launches++
				writes += valid + sets
				bill(PhasePrune, float64(valid)*2/warp)
			}

			// Scatter kernel: publish this device's share of the level.
			launches++
			writes += sets

			ds.KernelLaunches += launches
			ds.GlobalWrites += writes
			sec := levelSeconds(dev, launches, cycles, writes)
			ds.SimTimeMS += sec * 1e3
			levelWall = max(levelWall, sec)
		}
		wallSec += levelWall
	}

	// Fold the per-device totals into the aggregate view.
	for d := range m.PerDevice {
		ds := &m.PerDevice[d]
		m.KernelLaunches += ds.KernelLaunches
		m.UnrankedSets += ds.UnrankedSets
		m.FilteredSets += ds.FilteredSets
		m.CandidatePairs += ds.CandidatePairs
		m.ValidPairs += ds.ValidPairs
		m.GlobalWrites += ds.GlobalWrites
		m.WarpCycles += ds.WarpCycles
		for p := range m.PhaseCycles {
			m.PhaseCycles[p] += ds.PhaseCycles[p]
		}
	}
	m.SimTimeMS = wallSec * 1e3
}

// levelSeconds converts one level's work on one device into seconds: its
// kernel launches, its per-level host↔device round trip, its warp cycles
// and its global-memory transactions.
func levelSeconds(d *device, launches uint64, cycles float64, writes uint64) float64 {
	return float64(launches)*d.KernelLaunchUS*1e-6 +
		d.LevelTransferUS*1e-6 +
		cycles/d.warpThroughput() +
		float64(writes)/float64(d.WarpSize)*d.GlobalAccessNS*1e-9
}

// maxBinomialN is the largest universe the binomial table covers: every
// Mask-width query the exact optimizers accept.
const maxBinomialN = 64

// binom[n][k] = C(n, k), saturated at the largest uint64 to avoid overflow
// in the unreachable upper-right corner of the table.
var binom [maxBinomialN + 1][maxBinomialN + 1]uint64

func init() {
	for n := 0; n <= maxBinomialN; n++ {
		binom[n][0] = 1
		for k := 1; k <= n; k++ {
			sum := binom[n-1][k-1] + binom[n-1][k]
			if sum < binom[n-1][k-1] { // overflow: saturate
				sum = ^uint64(0)
			}
			binom[n][k] = sum
		}
	}
}

// binomial returns C(n, k) for 0 <= n <= maxBinomialN, out-of-range k 0:
// the candidate sets of size k the Unrank kernel materializes over n
// relations, one rank per device thread (§5).
func binomial(n, k int) uint64 {
	if k < 0 || k > n || n > maxBinomialN {
		return 0
	}
	return binom[n][k]
}

// chunkShare is device d's share of total work items split near-evenly
// across ndev devices (the first total%ndev devices take one more).
func chunkShare(total uint64, ndev, d int) uint64 {
	base, rem := total/uint64(ndev), total%uint64(ndev)
	if uint64(d) < rem {
		return base + 1
	}
	return base
}
