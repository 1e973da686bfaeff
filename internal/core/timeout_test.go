package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/workload"
)

// budgetCases is one run per algorithm family that polls its budget, each
// on a query far too large to finish before its first poll: the clique
// takes MPDP's census path, the star its lattice, and the heuristics run
// past their first contraction step.
func budgetCases() []struct {
	name string
	alg  Algorithm
	q    *cost.Query
} {
	rng := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	clique := workload.Clique(16, rng(1))
	return []struct {
		name string
		alg  Algorithm
		q    *cost.Query
	}{
		{"dpccp", AlgDPCCP, clique},
		{"dpsub", AlgDPSub, clique},
		{"mpdp census", AlgMPDP, clique},
		{"mpdp star", AlgMPDP, workload.Star(20, rng(2))},
		{"mpdp-cpu", AlgMPDPParallel, clique},
		{"mpdp-gpu", AlgMPDPGPU, clique},
		{"idp2", AlgIDP2, workload.Cycle(200, rng(3))},
		{"lindp", AlgLinDP, workload.Cycle(40, rng(4))},
		{"uniondp", AlgUnionDP, workload.Cycle(60, rng(5))},
	}
}

// TestSpentBudgetIsErrTimeout: a Timeout that has already run out stops
// every family with dp.ErrTimeout.
func TestSpentBudgetIsErrTimeout(t *testing.T) {
	for _, tc := range budgetCases() {
		_, err := Optimize(context.Background(), tc.q, Options{Algorithm: tc.alg, Timeout: time.Nanosecond, Threads: 2})
		if !errors.Is(err, dp.ErrTimeout) {
			t.Errorf("%s: err = %v, want dp.ErrTimeout", tc.name, err)
		}
	}
}

// TestCallerDeadlineIsNotErrTimeout: a caller context already past its own
// deadline stops every family with context.DeadlineExceeded, not with the
// budget's ErrTimeout, so a caller that ran out of time gets no fallback.
func TestCallerDeadlineIsNotErrTimeout(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, tc := range budgetCases() {
		_, err := Optimize(ctx, tc.q, Options{Algorithm: tc.alg, Timeout: time.Minute, Threads: 2})
		if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, dp.ErrTimeout) {
			t.Errorf("%s: err = %v, want context.DeadlineExceeded", tc.name, err)
		}
	}
}
