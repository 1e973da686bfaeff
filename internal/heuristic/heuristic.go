// Package heuristic implements the approximate optimizers for queries beyond
// the exact-DP limit: the baselines GOO [8], IKKBZ [14, 18] and the adaptive
// LinDP* of Neumann & Radke [26], plus the paper's heuristic contributions —
// IDP2 (iterative DP [17]) with MPDP as the inner exact algorithm (§4.1), and
// the novel graph-partitioning UnionDP (§4.2).
//
// All heuristics operate on queries of arbitrary size (1000+ relations) via
// dynamic bitmap sets and a shared "contraction" facility that treats an
// optimized sub-plan as a single composite relation, exactly like the
// temporary tables of IDP2 and the composite nodes of UnionDP.
package heuristic

import (
	"context"
	"errors"
	"time"

	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/plan"
)

// Options configures a heuristic run.
type Options struct {
	// Model is the cost model; nil selects cost.DefaultModel().
	Model *cost.Model
	// K bounds the sub-problem size handed to the exact algorithm (the k of
	// IDP and UnionDP). Zero selects the paper's default of 15.
	K int
	// Deadline, when non-zero, bounds optimization time.
	Deadline time.Time
	// Ctx, when non-nil, carries caller cancellation; the heuristics abort
	// with the context's error between contraction steps.
	Ctx context.Context
	// Threads is the CPU parallelism for inner MPDP calls (0 = all cores).
	Threads int
	// Inner optionally overrides the exact algorithm used on contracted
	// sub-problems (default: parallel MPDP). The adaptive LinDP baseline
	// passes its linearized DP here.
	Inner InnerDP
	// Workspace, when non-nil, is the memory every exact inner DP of the
	// call borrows (dp.Workspace); when nil, IDP2 and UnionDP use a
	// private one for the call, so the second inner DP already runs on
	// recycled memory. No plan depends on it.
	Workspace *dp.Workspace
}

// InnerDP optimizes a contracted sub-problem: groups are the current unit
// plans and sets their base-relation footprints; the returned plan must join
// exactly those units.
type InnerDP func(c *contractedProblem, opt Options) (*plan.Node, dp.Stats, error)

// ErrTimeout mirrors dp.ErrTimeout for the heuristic layer.
var ErrTimeout = dp.ErrTimeout

// ErrDisconnected mirrors dp.ErrDisconnected.
var ErrDisconnected = dp.ErrDisconnected

func (o Options) model() *cost.Model {
	if o.Model != nil {
		return o.Model
	}
	return cost.DefaultModel()
}

func (o Options) k() int {
	if o.K > 0 {
		return o.K
	}
	return 15
}

func (o Options) expired() bool {
	return o.expiredErr() != nil
}

// expiredErr returns nil while the run may continue, the context's error
// once the caller cancelled, and ErrTimeout once the wall-clock budget
// passed.
func (o Options) expiredErr() error {
	if o.Ctx != nil {
		select {
		case <-o.Ctx.Done():
			return context.Cause(o.Ctx)
		default:
		}
	}
	if !o.Deadline.IsZero() && time.Now().After(o.Deadline) {
		return ErrTimeout
	}
	return nil
}

// withWorkspace gives the call a private workspace when the caller handed
// in none.
func (o Options) withWorkspace() Options {
	if o.Workspace == nil {
		o.Workspace = new(dp.Workspace)
	}
	return o
}

func (o Options) inner() InnerDP {
	if o.Inner != nil {
		return o.Inner
	}
	return innerMPDP
}

var errNoPlan = errors.New("heuristic: no plan found")
