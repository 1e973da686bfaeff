package gpusim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/dp"
)

func TestPhaseBreakdownSumsToTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	q := randomQuery(12, 5, rng)
	_, _, gs, err := Run(dp.Input{Q: q, M: cost.DefaultModel()}, DefaultConfig(), AlgoMPDP)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, c := range gs.PhaseCycles {
		sum += c
	}
	if math.Abs(sum-gs.WarpCycles) > 1e-9*math.Max(1, gs.WarpCycles) {
		t.Errorf("phase cycles %v do not sum to total %v", sum, gs.WarpCycles)
	}
	ms := gs.PhaseMS()
	if ms[PhaseEvaluate] <= 0 {
		t.Error("evaluate phase must accrue time")
	}
	if ms[PhasePrune] != 0 {
		t.Error("fused configuration must not accrue a prune phase")
	}
	// Unfused configuration does accrue prune time.
	_, _, gs2, err := Run(dp.Input{Q: q, M: cost.DefaultModel()},
		Config{FusedPrune: false, CCC: true}, AlgoMPDP)
	if err != nil {
		t.Fatal(err)
	}
	if gs2.PhaseMS()[PhasePrune] <= 0 {
		t.Error("unfused configuration must accrue prune-phase time")
	}
}

func TestPhaseNames(t *testing.T) {
	want := []string{"unrank", "filter", "evaluate", "prune", "scatter"}
	for p := PhaseUnrank; p <= PhaseScatter; p++ {
		if p.String() != want[p] {
			t.Errorf("Phase(%d).String() = %q, want %q", p, p.String(), want[p])
		}
	}
}

func TestDPSizeGPUSkipsUnrankFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	q := randomQuery(10, 4, rng)
	_, _, gs, err := Run(dp.Input{Q: q, M: cost.DefaultModel()}, DefaultConfig(), AlgoDPSize)
	if err != nil {
		t.Fatal(err)
	}
	if gs.PhaseCycles[PhaseUnrank] != 0 || gs.PhaseCycles[PhaseFilter] != 0 {
		t.Error("DPSize-GPU pairs memoized plans directly; no unrank/filter kernels")
	}
	if gs.UnrankedSets != 0 {
		t.Errorf("DPSize-GPU unranked %d sets", gs.UnrankedSets)
	}
}
