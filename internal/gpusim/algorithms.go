package gpusim

import (
	"repro/internal/combinat"
	"repro/internal/dp"
	"repro/internal/graph"
	"repro/internal/plan"
)

// Algo identifies one of the modeled GPU algorithms.
type Algo int

// Supported GPU algorithms.
const (
	AlgoMPDP Algo = iota
	AlgoDPSub
	AlgoDPSize
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

// MPDPGPU runs the paper's MPDP on the simulated device (Algorithm 5 with
// the §5 enhancements) and returns the optimal plan, the algorithmic
// counters and the device work model.
func MPDPGPU(in dp.Input, cfg Config) (*plan.Node, dp.Stats, Stats, error) {
	return run(in, cfg, AlgoMPDP)
}

// DPSubGPU models COMB-GPU DPSub of Meister & Saake [23].
func DPSubGPU(in dp.Input, cfg Config) (*plan.Node, dp.Stats, Stats, error) {
	return run(in, cfg, AlgoDPSub)
}

// DPSizeGPU models H+F-GPU DPSize of Meister & Saake [23].
func DPSizeGPU(in dp.Input, cfg Config) (*plan.Node, dp.Stats, Stats, error) {
	return run(in, cfg, AlgoDPSize)
}

// run executes the level-synchronous GPU workflow of Algorithm 5:
// unrank → filter → evaluate → (prune) → scatter, once per DP level.
// Valid pairs are costed for real through the shared per-set evaluators, so
// the returned plan is exactly the optimal plan; the candidate-pair volume
// of each algorithm (the quantity a physical GPU would burn cycles on) is
// modeled arithmetically and fed to the device-time model.
func run(in dp.Input, cfg Config, algo Algo) (*plan.Node, dp.Stats, Stats, error) {
	var astats dp.Stats
	var gstats Stats
	dev := cfg.device()
	warp := float64(dev.WarpSize)

	prep, err := dp.Prepare(in)
	if err != nil {
		return nil, astats, gstats, err
	}
	n := in.Q.N()
	buckets, err := dp.ConnectedBuckets(in)
	if err != nil {
		return nil, astats, gstats, err
	}
	// The simulator shares the CPU enumerators' SoA table: the §5 GPU memo
	// layout (open addressing on Murmur3) on sparse censuses, direct
	// addressing on dense ones. The device model bills the paper's unrank
	// volume arithmetically and does not see the difference.
	tab := prep.Seed(dp.BucketCount(buckets))
	astats.ConnectedSets = uint64(n)
	dl := in.NewDeadline()
	sc := in.Workspace.Scratch(0)

	// Tree join graphs use the Algorithm 2 evaluator (same plans, same
	// counters, no block machinery — exactly like the CPU dispatch).
	evaluate := dp.EvaluateSetMPDP
	isTree := in.Q.G.IsTree()
	if isTree {
		in, evaluate = in.ForTree(), dp.EvaluateSetMPDPTree
	}
	var bsc graph.BlockScratch

	// Per-size connected-set counts, needed by the DPSize pair model.
	cnt := make([]uint64, n+1)
	for size := 1; size <= n; size++ {
		cnt[size] = uint64(len(buckets[size]))
	}

	for size := 2; size <= n; size++ {
		gstats.Levels++
		sets := buckets[size]

		switch algo {
		case AlgoMPDP, AlgoDPSub:
			// Unrank kernel: every C(n, size) candidate set gets a thread.
			candidates := combinat.Binomial(n, size)
			gstats.KernelLaunches++
			gstats.UnrankedSets += candidates
			gstats.addCycles(PhaseUnrank, float64(candidates)*unrankCyclesPerItem/warp)
			// Filter kernel (stream compaction of connected sets).
			gstats.KernelLaunches++
			gstats.addCycles(PhaseFilter, float64(candidates)*filterCyclesPerItem/warp)
			gstats.GlobalWrites += uint64(len(sets))
			gstats.FilteredSets += uint64(len(sets))
		case AlgoDPSize:
			// DPSize has no unrank/filter: it pairs memoized plans of
			// complementary sizes directly.
			gstats.FilteredSets += uint64(len(sets))
		}

		// Evaluate kernel: one warp per set (MPDP/DPSub) or a thread per
		// candidate pair (DPSize).
		gstats.KernelLaunches++
		var levelCandidates uint64
		if algo == AlgoDPSize {
			for s1 := 1; s1 < size; s1++ {
				levelCandidates += cnt[s1] * cnt[size-s1]
			}
		}

		var levelValid uint64
		for _, s := range sets {
			win, st, err := evaluate(in, tab, s, dl, sc)
			if err != nil {
				return nil, astats, gstats, err
			}
			astats.ConnectedSets++
			levelValid += st.CCP
			switch algo {
			case AlgoMPDP:
				// A warp unranks every proper subset of every block in
				// lockstep, whatever the CPU evaluator skipped to find the
				// same valid pairs; on a tree the two counts coincide.
				if isTree {
					levelCandidates += st.Evaluated
				} else {
					levelCandidates += dp.UnrankedPairs(in.Q.G, s, &bsc)
				}
				gstats.addCycles(PhaseEvaluate, blockCyclesPerSet) // warp Find-Blocks
			case AlgoDPSub:
				levelCandidates += uint64(1) << uint(size)
			}
			if win.Found {
				tab.Put(s, win)
				if cfg.FusedPrune {
					// In-warp shared-memory prune: one write per set.
					gstats.GlobalWrites++
				}
			}
		}
		astats.Evaluated += levelCandidates
		astats.CCP += levelValid
		gstats.CandidatePairs += levelCandidates
		gstats.ValidPairs += levelValid

		// Divergence model: in lockstep, every candidate stalls for the
		// valid path unless CCC compacts the work.
		if cfg.CCC {
			gstats.addCycles(PhaseEvaluate, float64(levelCandidates)*checkCyclesPerItem/warp+
				float64(levelValid)*costCyclesPerItem/warp)
		} else {
			gstats.addCycles(PhaseEvaluate, float64(levelCandidates)*(checkCyclesPerItem+costCyclesPerItem)/warp)
		}

		if !cfg.FusedPrune {
			// Separate prune kernel [23]: all found plans spill to global
			// memory, then a reduce-by-key keeps the best per set.
			gstats.GlobalWrites += levelValid
			gstats.KernelLaunches++
			gstats.addCycles(PhasePrune, float64(levelValid)*2/warp)
			gstats.GlobalWrites += uint64(len(sets))
		}

		// Scatter kernel: publish the level's best plans to the memo table.
		gstats.KernelLaunches++
		gstats.GlobalWrites += uint64(len(sets))
	}

	gstats.finalize(dev)
	best, astats, err := dp.Finish(in, tab, prep.Leaves, &astats)
	return best, astats, gstats, err
}
