// Package backend names *where* an optimization runs. Every algorithm of
// the core registry runs on exactly one execution substrate (Of): the
// sequential exact enumerators on cpu-seq, the level-parallel CPU MPDP on
// cpu-parallel, the *-gpu algorithms on the multi-device simulated GPU,
// and the heuristics on heuristic, the one approximate substrate. The
// substrates differ only in how core.Optimize executes the algorithm, so a
// backend is a name plus the service's GPU device pool: Backend.Optimize
// is one core.Optimize call. The router (core.Route) picks an algorithm
// per query from size, shape and its constant ladder; the serving layers
// report which backend produced every plan.
//
// The backend split mirrors the paper's evaluation axes (CPU vs GPU,
// sequential vs parallel, exact vs heuristic).
package backend

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/gpusim"
)

// ID names an execution backend.
type ID string

// The backend registry.
const (
	// CPUSeq runs the sequential exact enumerators (DPCCP, MPDP, DPSize,
	// DPSub) on one core.
	CPUSeq ID = "cpu-seq"
	// CPUParallel runs the level-parallel CPU MPDP (MPDP-CPU) across all
	// cores.
	CPUParallel ID = "cpu-parallel"
	// GPU runs MPDP on the multi-device simulated GPU with fused pruning
	// and CCC, one query's levels split across the device pool.
	GPU ID = "gpu"
	// Heuristic runs the approximate algorithms (IDP2, UnionDP, GOO, ...);
	// it is the only backend whose plans are not guaranteed optimal.
	Heuristic ID = "heuristic"
)

// IDs is the backend registry, in routing-preference order. It is an
// array, so len(IDs) is a constant: the service sizes its per-backend
// counters and histograms with it.
var IDs = [...]ID{CPUSeq, CPUParallel, GPU, Heuristic}

// Of returns the backend that runs alg, and false for auto (a policy, not
// an algorithm) and for names outside the registry.
func Of(alg core.Algorithm) (ID, bool) {
	switch alg {
	case core.AlgDPSize, core.AlgDPSub, core.AlgDPCCP, core.AlgMPDP:
		return CPUSeq, true
	case core.AlgMPDPParallel:
		return CPUParallel, true
	case core.AlgDPSizeGPU, core.AlgDPSubGPU, core.AlgMPDPGPU:
		return GPU, true
	case core.AlgGOO, core.AlgIKKBZ, core.AlgLinDP, core.AlgIDP2, core.AlgUnionDP:
		return Heuristic, true
	}
	return "", false
}

// Options configures one backend optimization; the fields mirror
// core.Options minus the algorithm (passed separately), the GPU device
// pool (owned by the Set) and the settings every backend runs at their
// defaults: all cores and IDP2's k = 15.
type Options struct {
	Model   *cost.Model
	Timeout time.Duration
	// Workspace, when non-nil, is the memory the run borrows (see
	// core.Options.Workspace); the caller must not start another run on it
	// before it is done with Result.Plan.
	Workspace *dp.Workspace
}

// Result is one backend answer: core's result, stamped with the backend
// that ran it, Of(Algorithm). Its GPU carries the multi-device work model
// when Backend == GPU.
type Result struct {
	core.Result
	Backend ID
}

// GPUConfig tunes the simulated GPU backend: a pool of GTX 1080s running
// the paper's full MPDP-GPU (fused pruning + CCC).
type GPUConfig struct {
	// Devices is the simulated device count (0: core.GPUDevices).
	Devices int
}

// Set is the backend lineup one service owns. Create with NewSet; it holds
// no resources.
type Set struct {
	gpu gpusim.Config
}

// NewSet builds the lineup; gpu configures the simulated device pool.
func NewSet(gpu GPUConfig) *Set {
	if gpu.Devices <= 0 {
		gpu.Devices = core.GPUDevices
	}
	return &Set{gpu: gpusim.Config{Devices: gpu.Devices, FusedPrune: true, CCC: true}}
}

// Get returns the backend with the given ID. A backend of an ID outside
// the registry runs nothing.
func (s *Set) Get(id ID) Backend { return Backend{id: id, gpu: &s.gpu} }

// Deprecated: bench-compat; a Set holds nothing to release. No-op.
func (s *Set) Close() {}

// Backend is one execution substrate of a Set.
type Backend struct {
	id  ID
	gpu *gpusim.Config
}

// Optimize plans q with alg, which must be one of this backend's
// algorithms (Of(alg) == its ID). Cancelling ctx aborts the run promptly
// with the context's error. The run happens on the caller's goroutine and
// ends before Optimize returns; concurrent calls are safe.
func (b Backend) Optimize(ctx context.Context, q *cost.Query, alg core.Algorithm, opts Options) (*Result, error) {
	if id, ok := Of(alg); !ok || id != b.id {
		return nil, fmt.Errorf("backend: %s does not run %q", b.id, alg)
	}
	res, err := core.Optimize(ctx, q, core.Options{
		Algorithm: alg,
		Model:     opts.Model,
		Timeout:   opts.Timeout,
		GPU:       b.gpu,
		Workspace: opts.Workspace,
	})
	if err != nil {
		return nil, err
	}
	return &Result{Result: *res, Backend: b.id}, nil
}
