package backend

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
)

// coreOptimize is the shared thin wrapper: the CPU and heuristic backends
// all execute through core.Optimize and differ only in which algorithms
// they claim and how many threads they hand over.
func coreOptimize(ctx context.Context, id ID, q *cost.Query, alg core.Algorithm, opts Options, threads int) (*Result, error) {
	start := time.Now()
	res, err := core.Optimize(ctx, q, core.Options{
		Algorithm: alg,
		Model:     opts.Model,
		Timeout:   opts.Timeout,
		Threads:   threads,
		K:         opts.K,
		Workspace: opts.Workspace,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Plan:      res.Plan,
		Stats:     res.Stats,
		Backend:   id,
		Algorithm: alg,
		Elapsed:   time.Since(start),
	}, nil
}

// cpuSeq executes the sequential exact enumerators on one core.
type cpuSeq struct{}

func newCPUSeq() Backend { return cpuSeq{} }

func (cpuSeq) ID() ID { return CPUSeq }

func (cpuSeq) Supports(alg core.Algorithm) bool {
	switch alg {
	case core.AlgDPSize, core.AlgDPSub, core.AlgDPCCP, core.AlgMPDP:
		return true
	}
	return false
}

func (cpuSeq) Optimize(ctx context.Context, q *cost.Query, alg core.Algorithm, opts Options) (*Result, error) {
	return coreOptimize(ctx, CPUSeq, q, alg, opts, 1)
}

// cpuParallel executes the level-parallel CPU MPDP.
type cpuParallel struct{}

func newCPUParallel() Backend { return cpuParallel{} }

func (cpuParallel) ID() ID { return CPUParallel }

func (cpuParallel) Supports(alg core.Algorithm) bool {
	return alg == core.AlgMPDPParallel
}

func (cpuParallel) Optimize(ctx context.Context, q *cost.Query, alg core.Algorithm, opts Options) (*Result, error) {
	return coreOptimize(ctx, CPUParallel, q, alg, opts, opts.Threads)
}

// heuristicBackend executes the approximate algorithms.
type heuristicBackend struct{}

func newHeuristic() Backend { return heuristicBackend{} }

func (heuristicBackend) ID() ID { return Heuristic }

func (heuristicBackend) Supports(alg core.Algorithm) bool {
	switch alg {
	case core.AlgGOO, core.AlgIKKBZ, core.AlgLinDP, core.AlgIDP2, core.AlgUnionDP:
		return true
	}
	return false
}

func (heuristicBackend) Optimize(ctx context.Context, q *cost.Query, alg core.Algorithm, opts Options) (*Result, error) {
	return coreOptimize(ctx, Heuristic, q, alg, opts, opts.Threads)
}
