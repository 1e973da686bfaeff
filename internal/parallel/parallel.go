// Package parallel implements the paper's multi-core CPU MPDP: the
// connected sets of each DP level are shared out among workers behind one
// level barrier (Levels), so that block discovery, block-level CCP
// enumeration and costing all run in parallel, as in Fig. 12. DPSubParallel
// shares the same driver with a DPSub set evaluator.
package parallel

import (
	"runtime"

	"repro/internal/dp"
	"repro/internal/plan"
)

// threads resolves the requested worker count.
func threads(in dp.Input) int {
	t := in.Threads
	if t <= 0 {
		t = runtime.GOMAXPROCS(0)
	}
	return t
}

// MPDP is the CPU-parallel MPDP: within each DP level, the connected sets of
// that size are shared out among the workers, each draining its own share and
// stealing from the others' once it runs dry, and each evaluating its sets
// independently (block discovery, block-level CCP enumeration, grow, and
// costing all run inside the worker — the whole inner loop is parallel).
// The per-level barrier mirrors the GPU kernel-per-level structure of §5.
// Tree join graphs dispatch to the Algorithm 2 evaluator, like dp.MPDP.
func MPDP(in dp.Input) (*plan.Node, dp.Stats, error) {
	if in.Q.G.IsTree() {
		return levelParallel(in.ForTree(), dp.EvaluateSetMPDPTree)
	}
	return levelParallel(in, dp.EvaluateSetMPDP)
}

// levelParallel is the driver of the level-synchronous enumerators:
// evaluate is invoked for every connected set of each size, the sets of one
// size in parallel behind the shared level barrier (Levels).
func levelParallel(in dp.Input, evaluate dp.SetEvaluator) (*plan.Node, dp.Stats, error) {
	var stats dp.Stats
	prep, err := dp.Prepare(in)
	if err != nil {
		return nil, stats, err
	}
	buckets, err := dp.ConnectedBuckets(in)
	if err != nil {
		return nil, stats, err
	}
	levels := NewLevels(in, evaluate, buckets, threads(in))
	defer levels.Close()
	tab := prep.Seed(dp.BucketCount(buckets))
	stats.ConnectedSets = uint64(in.Q.N())
	for size := 2; size <= in.Q.N(); size++ {
		st, err := levels.Run(tab, size)
		stats.Add(st)
		if err != nil {
			return nil, stats, err
		}
	}
	return dp.Finish(in, tab, prep.Leaves, &stats)
}

// DPSubParallel is the CPU-parallel DPSub, provided for completeness (the
// paper omits it from the graphs because it is dominated by its GPU
// variant); it shares the level-parallel driver with a DPSub set evaluator.
func DPSubParallel(in dp.Input) (*plan.Node, dp.Stats, error) {
	return levelParallel(in, dp.EvaluateSetDPSub)
}
