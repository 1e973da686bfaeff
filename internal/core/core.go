// Package core is the library's public entry point: a single Optimize call
// that dispatches to any of the join-order optimizers implemented in
// this repository — the sequential exact algorithms (DPSize, DPSub, DPCCP,
// MPDP), the CPU-parallel MPDP, the GPU-model ones (DPSize-GPU, DPSub-GPU,
// MPDP-GPU) and the heuristics (GOO, IKKBZ, LinDP/adaptive, IDP2-MPDP,
// UnionDP-MPDP) — plus the paper's recommended automatic policy (exact MPDP
// up to the raised fall-back limit of 25 relations, UnionDP beyond it). Each
// registered algorithm has its reason to exist on file in DESIGN.md's
// "Experiment index": a router band, an experiment or a test's reference.
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
	AlgAuto    Algorithm = "auto" // MPDP up to 25 rels, UnionDP beyond
)

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

// Options configures one optimization.
type Options struct {
	Algorithm Algorithm
	// Model is the cost model (nil: cost.DefaultModel()).
	Model *cost.Model
	// Timeout bounds optimization time (0: unlimited).
	Timeout time.Duration
	// Threads for CPU-parallel algorithms (0: all cores).
	Threads int
	// K is the sub-problem bound for IDP/UnionDP (0: 15, the paper default).
	K int
	// GPU configures the device model for the *-gpu algorithms.
	GPU *gpusim.Config
	// Workspace, when non-nil, is the memory the enumeration borrows
	// instead of allocating (dp.Workspace): the exact algorithms run on it,
	// IDP2/UnionDP/LinDP hand it to every inner DP. Result.Plan may
	// alias it: callers must copy the tree before the workspace's next
	// optimization. Long-lived workers keep one each; no plan depends on it.
	Workspace *dp.Workspace
	// FallbackLimit is the relation count up to which Auto plans exactly
	// (0: 25, the paper's raised heuristic-fall-back limit).
	FallbackLimit int
}

// Result is the outcome of one optimization.
type Result struct {
	Plan    *plan.Node
	Stats   dp.Stats
	Elapsed time.Duration
	// GPU carries the device work model for the *-gpu algorithms;
	// GPU.SimTimeMS is the modeled device time (see internal/gpusim).
	GPU *gpusim.Stats
}

// Optimize plans the query with the selected algorithm. The context is
// checked cooperatively throughout the enumeration: cancelling it aborts an
// in-flight run promptly with the context's error, independently of (and in
// addition to) Options.Timeout. A nil ctx means context.Background().
func Optimize(ctx context.Context, q *cost.Query, opts Options) (*Result, error) {
	if opts.Algorithm == "" {
		opts.Algorithm = AlgAuto
	}
	if ctx == nil {
		ctx = context.Background()
	}
	m := opts.Model
	if m == nil {
		m = cost.DefaultModel()
	}
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = time.Now().Add(opts.Timeout)
	}
	in := dp.Input{
		Q: q, M: m, Ctx: ctx, Workspace: opts.Workspace, Deadline: deadline,
		Threads: opts.Threads,
	}
	hOpt := heuristic.Options{
		Model: m, K: opts.K, Ctx: ctx, Deadline: deadline, Threads: opts.Threads,
		Workspace: opts.Workspace,
	}
	gcfg := gpusim.DefaultConfig()
	if opts.GPU != nil {
		gcfg = *opts.GPU
	}

	start := time.Now()
	res := &Result{}
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
	case AlgDPSizeGPU:
		res.Plan, res.Stats, res.GPU, err = gpuWrap(gpusim.DPSizeGPU(in, gcfg))
	case AlgDPSubGPU:
		res.Plan, res.Stats, res.GPU, err = gpuWrap(gpusim.DPSubGPU(in, gcfg))
	case AlgMPDPGPU:
		res.Plan, res.Stats, res.GPU, err = gpuWrap(gpusim.MPDPGPU(in, gcfg))
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
	case AlgAuto:
		limit := opts.FallbackLimit
		if limit == 0 {
			limit = 25
		}
		if q.N() <= limit {
			res.Plan, res.Stats, res.GPU, err = gpuWrap(gpusim.MPDPGPU(in, gcfg))
		} else {
			res.Plan, err = heuristic.UnionDP(q, hOpt)
		}
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q", opts.Algorithm)
	}
	res.Elapsed = time.Since(start)
	if err != nil {
		return nil, err
	}
	return res, nil
}

func gpuWrap(p *plan.Node, st dp.Stats, gs gpusim.Stats, err error) (*plan.Node, dp.Stats, *gpusim.Stats, error) {
	return p, st, &gs, err
}

// Explain renders a plan as an indented operator tree with relation names.
func Explain(q *cost.Query, p *plan.Node) string {
	return p.Explain(q.Names())
}
