// Package core is the library's public entry point: a single Optimize call
// that dispatches to any of the join-order optimizers implemented in
// this repository — the sequential exact algorithms (DPSize, DPSub, DPCCP,
// MPDP), the CPU-parallel MPDP, the GPU-model ones (DPSize-GPU, DPSub-GPU,
// MPDP-GPU) and the heuristics (GOO, IKKBZ, LinDP/adaptive, IDP2-MPDP,
// UnionDP-MPDP) — plus AlgAuto, the one routing policy (Route): a
// constant ladder of exact bands, MPDP past the paper's raised fall-back
// limit of 25 relations on the GPU model, IDP2 or LinDP beyond. The service
// serves every request by the same Route. Each registered algorithm has its
// reason to exist on file in DESIGN.md's "Experiment index": a router band,
// an experiment or a test's reference.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/gpusim"
	"repro/internal/heuristic"
	"repro/internal/parallel"
	"repro/internal/plan"
)

// Algorithm names an optimizer selectable through Options.
type Algorithm string

// The optimizer registry.
const (
	// Exact, sequential.
	AlgDPSize Algorithm = "dpsize" // PostgreSQL's standard DP
	AlgDPSub  Algorithm = "dpsub"
	AlgDPCCP  Algorithm = "dpccp"
	AlgMPDP   Algorithm = "mpdp"
	// Exact, CPU-parallel.
	AlgMPDPParallel Algorithm = "mpdp-cpu"
	// Exact, GPU execution model.
	AlgDPSizeGPU Algorithm = "dpsize-gpu"
	AlgDPSubGPU  Algorithm = "dpsub-gpu"
	AlgMPDPGPU   Algorithm = "mpdp-gpu"
	// Heuristics.
	AlgGOO     Algorithm = "goo"
	AlgIKKBZ   Algorithm = "ikkbz"
	AlgLinDP   Algorithm = "lindp" // adaptive LinDP of Neumann & Radke
	AlgIDP2    Algorithm = "idp2-mpdp"
	AlgUnionDP Algorithm = "uniondp-mpdp"
	AlgAuto    Algorithm = "auto" // the algorithm Route picks
)

// GPUDevices is the simulated device count a *-gpu run models when no
// device model is given: the serving backends' pool and the in-process
// default are one value, so a query's GPU bill does not depend on the
// driver that planned it.
const GPUDevices = 2

// Algorithms lists every registered optimizer name.
func Algorithms() []Algorithm {
	return []Algorithm{
		AlgDPSize, AlgDPSub, AlgDPCCP, AlgMPDP,
		AlgMPDPParallel,
		AlgDPSizeGPU, AlgDPSubGPU, AlgMPDPGPU,
		AlgGOO, AlgIKKBZ, AlgLinDP, AlgIDP2, AlgUnionDP,
		AlgAuto,
	}
}

// IsExact reports whether the algorithm guarantees the optimal plan.
func (a Algorithm) IsExact() bool {
	switch a {
	case AlgDPSize, AlgDPSub, AlgDPCCP, AlgMPDP,
		AlgMPDPParallel, AlgDPSizeGPU, AlgDPSubGPU, AlgMPDPGPU:
		return true
	}
	return false
}

// GPUAlgo returns the device-model algorithm a *-gpu name runs, and false
// for every other name.
func (a Algorithm) GPUAlgo() (gpusim.Algo, bool) {
	switch a {
	case AlgMPDPGPU:
		return gpusim.AlgoMPDP, true
	case AlgDPSubGPU:
		return gpusim.AlgoDPSub, true
	case AlgDPSizeGPU:
		return gpusim.AlgoDPSize, true
	}
	return 0, false
}

// Options configures one optimization.
type Options struct {
	Algorithm Algorithm
	// Model is the cost model (nil: cost.DefaultModel()).
	Model *cost.Model
	// Timeout bounds optimization time (0: unlimited).
	Timeout time.Duration
	// Threads is the worker count of parallel.MPDP: AlgMPDPParallel, the
	// inner MPDP runs of AlgIDP2, AlgUnionDP and AlgLinDP, and whichever of
	// these AlgAuto routes to (0: all cores). The other algorithms ignore it.
	Threads int
	// K is the sub-problem bound for IDP/UnionDP (0: 15, the paper default).
	K int
	// GPU configures the device model for the *-gpu algorithms (nil:
	// gpusim.DefaultConfig on GPUDevices devices).
	GPU *gpusim.Config
	// Workspace, when non-nil, is the memory the enumeration borrows
	// instead of allocating (dp.Workspace): the exact algorithms run on it,
	// IDP2/UnionDP/LinDP hand it to every inner DP. Result.Plan may
	// alias it: callers must copy the tree before the workspace's next
	// optimization. Long-lived workers keep one each; no plan depends on it.
	Workspace *dp.Workspace
}

// Result is the outcome of one optimization.
type Result struct {
	// Algorithm is the algorithm that ran: the one Options named, or the
	// one Route picked for AlgAuto.
	Algorithm Algorithm
	Plan      *plan.Node
	Stats     dp.Stats
	Elapsed   time.Duration
	// GPU carries the device work model for the *-gpu algorithms;
	// GPU.SimTimeMS is the modeled device time (see internal/gpusim).
	GPU *gpusim.MultiStats
}

// Optimize plans the query with the selected algorithm, or with the one
// Route picks when that is AlgAuto (the default). The context is
// checked cooperatively throughout the enumeration: cancelling it aborts an
// in-flight run promptly with the context's cause. Options.Timeout is a
// deadline on that context whose cause is dp.ErrTimeout; a caller's own
// cancellation or deadline that comes first keeps the caller's cause. A nil
// ctx means context.Background().
func Optimize(ctx context.Context, q *cost.Query, opts Options) (*Result, error) {
	if opts.Algorithm == "" || opts.Algorithm == AlgAuto {
		opts.Algorithm, _ = Route(q)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	m := opts.Model
	if m == nil {
		m = cost.DefaultModel()
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, opts.Timeout, dp.ErrTimeout)
		defer cancel()
	}
	in := dp.Input{Q: q, M: m, Ctx: ctx, Workspace: opts.Workspace, Threads: opts.Threads}
	hOpt := heuristic.Options{
		Model: m, K: opts.K, Ctx: ctx, Threads: opts.Threads, Workspace: opts.Workspace,
	}
	gcfg := gpusim.DefaultConfig()
	gcfg.Devices = GPUDevices
	if opts.GPU != nil {
		gcfg = *opts.GPU
	}

	start := time.Now()
	res := &Result{Algorithm: opts.Algorithm}
	var err error
	switch opts.Algorithm {
	case AlgDPSize:
		res.Plan, res.Stats, err = dp.DPSize(in)
	case AlgDPSub:
		res.Plan, res.Stats, err = dp.DPSub(in)
	case AlgDPCCP:
		res.Plan, res.Stats, err = dp.DPCCP(in)
	case AlgMPDP:
		res.Plan, res.Stats, err = dp.MPDP(in)
	case AlgMPDPParallel:
		res.Plan, res.Stats, err = parallel.MPDP(in)
	case AlgDPSizeGPU, AlgDPSubGPU, AlgMPDPGPU:
		algo, _ := opts.Algorithm.GPUAlgo()
		var gs gpusim.MultiStats
		res.Plan, res.Stats, gs, err = gpusim.Run(in, gcfg, algo)
		res.GPU = &gs
	case AlgGOO:
		res.Plan, err = heuristic.GOO(q, hOpt)
	case AlgIKKBZ:
		res.Plan, err = heuristic.IKKBZ(q, hOpt)
	case AlgLinDP:
		res.Plan, err = heuristic.Adaptive(q, hOpt)
	case AlgIDP2:
		res.Plan, err = heuristic.IDP2(q, hOpt)
	case AlgUnionDP:
		res.Plan, err = heuristic.UnionDP(q, hOpt)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q", opts.Algorithm)
	}
	res.Elapsed = time.Since(start)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Explain renders a plan as an indented operator tree with relation names.
func Explain(q *cost.Query, p *plan.Node) string {
	return p.Explain(q)
}
