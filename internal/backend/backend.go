// Package backend abstracts *where* an optimization runs, separating the
// execution substrate from the algorithm choice: the same MPDP enumeration
// can execute on the sequential CPU path, the work-stealing CPU-parallel
// driver, or the multi-device simulated GPU — and the heuristics form a
// fourth, approximate substrate. The service router (internal/service)
// picks an (algorithm, backend) pair per query from size, shape and the
// crossover thresholds of this package; the serving layers report which
// backend produced every plan.
//
// The backend split mirrors the paper's evaluation axes (CPU vs GPU,
// sequential vs parallel, exact vs heuristic) and the device/backend
// separation of multi-device accelerator simulators.
package backend

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/gpusim"
	"repro/internal/plan"
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

// IDs lists every backend, in routing-preference order.
func IDs() []ID { return []ID{CPUSeq, CPUParallel, GPU, Heuristic} }

// Options configures one backend optimization; the fields mirror
// core.Options minus the algorithm (passed separately) and the GPU device
// model (owned by the GPU backend).
type Options struct {
	Model   *cost.Model
	Timeout time.Duration
	Threads int
	K       int
	// Workspace, when non-nil, is the memory the run borrows (see
	// core.Options.Workspace); the caller must not start another run on it
	// before it is done with Result.Plan.
	Workspace *dp.Workspace
}

// Result is one backend answer.
type Result struct {
	Plan  *plan.Node
	Stats dp.Stats
	// Backend identifies the substrate that produced the plan.
	Backend ID
	// Algorithm is the algorithm that ran (it can differ from the request
	// when a backend substitutes, which none currently do).
	Algorithm core.Algorithm
	// GPU carries the multi-device work model when Backend == GPU.
	GPU     *gpusim.MultiStats
	Elapsed time.Duration
}

// Backend is one execution substrate.
type Backend interface {
	// ID returns the backend's registry name.
	ID() ID
	// Supports reports whether the backend can execute alg.
	Supports(alg core.Algorithm) bool
	// Optimize plans q with alg. Cancelling ctx aborts the run promptly
	// with the context's error. The run happens on the caller's goroutine
	// and ends before Optimize returns. Implementations must be safe for
	// concurrent use — the service worker pool calls them from many
	// goroutines.
	Optimize(ctx context.Context, q *cost.Query, alg core.Algorithm, opts Options) (*Result, error)
}

// Set is the full backend lineup one service owns. Create with NewSet; it
// holds no resources.
type Set struct {
	byID map[ID]Backend
}

// NewSet builds the four standard backends; gpu configures the simulated
// device pool.
func NewSet(gpu GPUConfig) *Set {
	s := &Set{byID: make(map[ID]Backend, 4)}
	for _, b := range []Backend{
		newCPUSeq(), newCPUParallel(), newGPUBackend(gpu), newHeuristic(),
	} {
		s.byID[b.ID()] = b
	}
	return s
}

// Get returns the backend with the given ID, or nil.
func (s *Set) Get(id ID) Backend { return s.byID[id] }

// For returns the backend that executes alg, following the registry's
// algorithm→substrate mapping.
func (s *Set) For(alg core.Algorithm) Backend {
	for _, id := range IDs() {
		if b := s.byID[id]; b != nil && b.Supports(alg) {
			return b
		}
	}
	return nil
}

// Deprecated: bench-compat; a Set holds nothing to release. No-op.
func (s *Set) Close() {}
