package gpusim

import (
	"repro/internal/bitset"
	"repro/internal/combinat"
	"repro/internal/dp"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/plan"
)

// MultiStats is the device work model of one optimization executed across
// several simulated devices. The aggregate Stats sums the per-device work;
// its SimTimeMS is the level-synchronous wall time — per level, the devices
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

// levelSeconds converts one level's work on one device into seconds: its
// kernel launches, its per-level host↔device round trip, its warp cycles
// and its global-memory transactions.
func levelSeconds(d *Device, launches uint64, cycles float64, writes uint64) float64 {
	return float64(launches)*d.KernelLaunchUS*1e-6 +
		d.LevelTransferUS*1e-6 +
		cycles/d.warpThroughput() +
		float64(writes)/float64(d.WarpSize)*d.GlobalAccessNS*1e-9
}

// levelTotals is one DP level's work, before it is split across devices.
type levelTotals struct {
	sets       uint64 // connected sets of this size
	candidates uint64 // unrank kernel volume: C(n, size)
	evalCand   uint64 // evaluate-kernel candidate volume (MPDP semantics)
	valid      uint64 // costed pairs (both orientations)
}

// MPDPGPUMulti runs MPDP-GPU across cfg.Devices simulated devices with
// level-partitioned batch scheduling: within each DP level, every device
// takes an even share of the level's candidate index space and executes
// the full unrank → filter → evaluate → prune pipeline over it, paying its
// own kernel launches and its own host↔device transfer per level; the
// level completes when the slowest device does (the level barrier of
// Algorithm 5). Plans are costed for real, so the returned plan is exactly
// optimal and cost-identical to the CPU enumerators.
//
// The two costing paths mirror the CPU dispatch:
//
//   - Tree join graphs evaluate each connected set through the real
//     Algorithm 2 evaluator (output-linear) behind the level barrier the
//     CPU-parallel driver uses, with up to one worker per device — on
//     levels thick enough to share, multi-device runs are faster in wall
//     time too, not only in simulated time.
//   - General graphs cost the csg-cmp pairs through the output-sensitive
//     CCP stream (dp.CostCCPStream), while the evaluate kernel's
//     candidate volume — the quantity a lockstep warp would burn cycles
//     on, Σ_blocks 2^|B|−2 per set — is derived arithmetically from each
//     set's block decomposition, exactly the count the real per-set
//     evaluator reports (see dp.Counters). This is the package's standard
//     convention: plans and valid pairs are real, lockstep volumes are
//     modeled, so a 40-relation cyclic query returns its exact plan in
//     output-sensitive wall time while the device model still charges the
//     full 2^n lattice.
//
// cfg.Devices <= 1 degenerates to the single-device schedule.
func MPDPGPUMulti(in dp.Input, cfg Config) (*plan.Node, dp.Stats, MultiStats, error) {
	var astats dp.Stats
	ndev := cfg.deviceCount()
	mstats := MultiStats{Devices: ndev, PerDevice: make([]Stats, ndev)}

	prep, err := dp.Prepare(in)
	if err != nil {
		return nil, astats, mstats, err
	}
	n := in.Q.N()
	buckets, err := dp.ConnectedBuckets(in)
	if err != nil {
		return nil, astats, mstats, err
	}
	tab := prep.Seed(dp.BucketCount(buckets))
	astats.ConnectedSets = uint64(dp.BucketCount(buckets))

	totals := make([]levelTotals, n+1)
	for size := 2; size <= n; size++ {
		totals[size].sets = uint64(len(buckets[size]))
		totals[size].candidates = combinat.Binomial(n, size)
	}

	if in.Q.G.IsTree() {
		err = multiEvaluateTree(in, tab, buckets, totals, ndev)
	} else {
		err = multiEvaluateGeneral(in, tab, buckets, totals)
	}
	if err != nil {
		return nil, astats, mstats, err
	}
	for size := 2; size <= n; size++ {
		astats.Evaluated += totals[size].evalCand
		astats.CCP += totals[size].valid
	}

	// Billing: split every level's index spaces evenly across the devices
	// (candidate unranking is index-addressed, so the scheduler partitions
	// work at candidate granularity, not whole sets) and advance the wall
	// clock by the slowest device.
	dev := cfg.device()
	warp := float64(dev.WarpSize)
	var wallSec float64
	for size := 2; size <= n; size++ {
		lt := &totals[size]
		mstats.Levels++
		levelWall := 0.0
		for d := 0; d < ndev; d++ {
			ds := &mstats.PerDevice[d]
			ds.Levels++

			unrank := chunkShare(lt.candidates, ndev, d)
			cand := chunkShare(lt.evalCand, ndev, d)
			valid := chunkShare(lt.valid, ndev, d)
			sets := chunkShare(lt.sets, ndev, d)

			var launches, writes uint64
			var cycles float64
			bill := func(p Phase, c float64) {
				cycles += c
				ds.addCycles(p, c)
			}

			// Unrank + filter kernels over this device's candidate share.
			launches += 2
			ds.UnrankedSets += unrank
			ds.FilteredSets += sets
			bill(PhaseUnrank, float64(unrank)*unrankCyclesPerItem/warp)
			bill(PhaseFilter, float64(unrank)*filterCyclesPerItem/warp)
			writes += sets

			// Evaluate kernel: per-set warp Find-Blocks plus the lockstep
			// candidate volume; CCC compacts the valid-pair costing work.
			launches++
			ds.CandidatePairs += cand
			ds.ValidPairs += valid
			bill(PhaseEvaluate, float64(sets)*blockCyclesPerSet)
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
			if sec > levelWall {
				levelWall = sec
			}
		}
		wallSec += levelWall
	}

	// Fold the per-device totals into the aggregate view.
	for d := 0; d < ndev; d++ {
		ds := &mstats.PerDevice[d]
		mstats.KernelLaunches += ds.KernelLaunches
		mstats.UnrankedSets += ds.UnrankedSets
		mstats.FilteredSets += ds.FilteredSets
		mstats.CandidatePairs += ds.CandidatePairs
		mstats.ValidPairs += ds.ValidPairs
		mstats.GlobalWrites += ds.GlobalWrites
		mstats.WarpCycles += ds.WarpCycles
		for p := 0; p < int(numPhases); p++ {
			mstats.PhaseCycles[p] += ds.PhaseCycles[p]
		}
	}
	mstats.SimTimeMS = wallSec * 1e3

	best, astats, err := dp.Finish(in, tab, prep.Leaves, &astats)
	return best, astats, mstats, err
}

// multiEvaluateTree runs the level-synchronous real evaluation for tree
// join graphs behind the shared level barrier (parallel.Levels), one worker
// per device: same-level sets only read strictly smaller entries, so each
// worker writing its sets' winners into their own claimed slots as it goes
// preserves the sequential semantics exactly. Counters accumulate into
// totals.
func multiEvaluateTree(in dp.Input, tab *plan.Table, buckets [][]bitset.Mask, totals []levelTotals, ndev int) error {
	levels := parallel.NewLevels(in.ForTree(), dp.EvaluateSetMPDPTree, buckets, ndev)
	defer levels.Close()
	for size := 2; size <= in.Q.N(); size++ {
		st, err := levels.Run(tab, size)
		if err != nil {
			return err
		}
		totals[size].evalCand += st.Evaluated
		totals[size].valid += st.CCP
	}
	return nil
}

// multiEvaluateGeneral costs general join graphs through the
// output-sensitive CCP stream (children strictly before parents, so no
// level barrier is needed for correctness) and derives the evaluate
// kernel's per-level candidate volume arithmetically from each set's
// block decomposition (dp.UnrankedPairs) — the volume the single-device
// model bills, not the smaller count the CPU evaluator examines.
func multiEvaluateGeneral(in dp.Input, tab *plan.Table, buckets [][]bitset.Mask, totals []levelTotals) error {
	dl := in.NewDeadline()
	if _, err := dp.CostCCPStream(in, tab, dl, func(level int) {
		totals[level].valid += 2
	}); err != nil {
		return err
	}
	var bsc graph.BlockScratch
	g := in.Q.G
	for size := 2; size <= in.Q.N(); size++ {
		for _, s := range buckets[size] {
			if dl.Expired() {
				return dl.Err()
			}
			totals[size].evalCand += dp.UnrankedPairs(g, s, &bsc)
		}
	}
	return nil
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
