// Package parallel implements the paper's multi-core CPU MPDP: the
// connected sets of each DP level are shared out among workers behind the
// level barrier (dp.Levels), so that block discovery, block-level CCP
// enumeration and costing all run in parallel, as in Fig. 12. MPDP runs
// dp.RunMPDP, the driver of the sequential enumerator, at Input.Threads
// workers.
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
// It runs dp.RunMPDP, dp.MPDP's driver, at Input.Threads workers.
func MPDP(in dp.Input) (*plan.Node, dp.Stats, error) {
	return dp.RunMPDP(in, threads(in), nil)
}
