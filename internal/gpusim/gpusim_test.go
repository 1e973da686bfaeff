package gpusim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/graph"
	"repro/internal/workload"
)

func randomQuery(n, extraEdges int, rng *rand.Rand) *cost.Query {
	g := graph.RandomConnected(n, extraEdges, rng)
	g2 := graph.New(n)
	for _, e := range g.Edges {
		g2.AddEdge(e.A, e.B, math.Pow(10, -1-3*rng.Float64()))
	}
	var cat catalog.Catalog
	for i := 0; i < n; i++ {
		r := catalog.NewRelation("r", math.Pow(10, 1+4*rng.Float64()), 60)
		r.HasPKIndex = true
		cat.Add(r)
	}
	return &cost.Query{Cat: cat, G: g2}
}

func starQuery(n int, rng *rand.Rand) *cost.Query {
	g := graph.Star(n)
	g2 := graph.New(n)
	for _, e := range g.Edges {
		g2.AddEdge(e.A, e.B, math.Pow(10, -1-2*rng.Float64()))
	}
	var cat catalog.Catalog
	for i := 0; i < n; i++ {
		cat.Add(catalog.NewRelation("r", math.Pow(10, 2+3*rng.Float64()), 60))
	}
	return &cost.Query{Cat: cat, G: g2}
}

func TestGPUAlgorithmsProduceOptimalPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := cost.DefaultModel()
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(8)
		q := randomQuery(n, rng.Intn(n), rng)
		ref, _, err := dp.MPDPGeneral(dp.Input{Q: q, M: m})
		if err != nil {
			t.Fatal(err)
		}
		// Direct calls (kept simple to avoid interface gymnastics).
		p1, st1, _, err := MPDPGPU(dp.Input{Q: q, M: m}, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		p2, st2, _, err := DPSubGPU(dp.Input{Q: q, M: m}, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		p3, st3, _, err := DPSizeGPU(dp.Input{Q: q, M: m}, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range []float64{p1.Cost, p2.Cost, p3.Cost} {
			if math.Abs(p-ref.Cost) > 1e-9*math.Max(1, ref.Cost) {
				t.Errorf("trial %d alg %d: cost %.6f, want %.6f", trial, i, p, ref.Cost)
			}
		}
		if st1.CCP != st2.CCP || st2.CCP != st3.CCP {
			t.Errorf("trial %d: CCP counters differ: %d %d %d", trial, st1.CCP, st2.CCP, st3.CCP)
		}
	}
}

func TestCandidatePairOrdering(t *testing.T) {
	// On a star query: MPDP candidates == CCP (tree); DPSub explodes;
	// DPSize is even worse per the paper.
	rng := rand.New(rand.NewSource(32))
	q := starQuery(14, rng)
	m := cost.DefaultModel()
	_, stM, gsM, err := MPDPGPU(dp.Input{Q: q, M: m}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, stS, gsS, err := DPSubGPU(dp.Input{Q: q, M: m}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, _, gsZ, err := DPSizeGPU(dp.Input{Q: q, M: m}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if stM.Evaluated != stM.CCP {
		t.Errorf("MPDP-GPU on star: Evaluated=%d != CCP=%d", stM.Evaluated, stM.CCP)
	}
	if gsS.CandidatePairs < 10*gsM.CandidatePairs {
		t.Errorf("DPSub candidates %d not ≫ MPDP %d", gsS.CandidatePairs, gsM.CandidatePairs)
	}
	if gsZ.CandidatePairs < gsS.CandidatePairs {
		t.Errorf("DPSize candidates %d < DPSub %d on star", gsZ.CandidatePairs, gsS.CandidatePairs)
	}
	if stS.CCP != stM.CCP {
		t.Errorf("CCP differs: %d vs %d", stS.CCP, stM.CCP)
	}
	if gsM.SimTimeMS >= gsS.SimTimeMS {
		t.Errorf("MPDP-GPU sim time %.3fms not faster than DPSub-GPU %.3fms", gsM.SimTimeMS, gsS.SimTimeMS)
	}
}

// TestEnhancementAblation is §7.2.5 as counts: with Collaborative Context
// Collection off the device never bills fewer warp cycles (the same on a
// star under MPDP, where every candidate pair is valid), and with the prune
// kernel unfused it issues more global writes — for the baseline and for
// MPDP, on a star and on a cycle.
func TestEnhancementAblation(t *testing.T) {
	star := starQuery(13, rand.New(rand.NewSource(33)))
	for _, tc := range []struct {
		name string
		algo Algo
		q    *cost.Query
	}{
		{"DPSub-GPU star-13", AlgoDPSub, star},
		{"MPDP-GPU star-13", AlgoMPDP, star},
		{"MPDP-GPU cycle-16", AlgoMPDP, multiQuery(t, workload.KindCycle, 16, 33)},
	} {
		sim := func(fused, ccc bool) Stats {
			cfg := Config{Device: GTX1080(), FusedPrune: fused, CCC: ccc}
			_, _, gs, err := run(dp.Input{Q: tc.q, M: cost.DefaultModel()}, cfg, tc.algo)
			if err != nil {
				t.Fatal(err)
			}
			return gs
		}
		full, noCCC, noFuse := sim(true, true), sim(true, false), sim(false, true)
		if noCCC.WarpCycles < full.WarpCycles {
			t.Errorf("%s: disabling CCC bills fewer cycles: %.0f < %.0f", tc.name, noCCC.WarpCycles, full.WarpCycles)
		}
		if noFuse.GlobalWrites <= full.GlobalWrites {
			t.Errorf("%s: unfused prune should add global writes: %d <= %d", tc.name, noFuse.GlobalWrites, full.GlobalWrites)
		}
		if tc.algo != AlgoDPSub {
			continue
		}
		// The baseline on a star is the paper's own row: few candidate
		// pairs are valid, so CCC pays, by no more than its ≤3x envelope.
		if noCCC.SimTimeMS <= full.SimTimeMS {
			t.Errorf("disabling CCC should cost time: %.4f <= %.4f", noCCC.SimTimeMS, full.SimTimeMS)
		}
		if ratio := noCCC.SimTimeMS / full.SimTimeMS; ratio > 3.5 {
			t.Errorf("CCC speedup %.2f exceeds the paper's ≤3x envelope", ratio)
		}
	}
}

func TestSmallQueryTransferOverheadDominates(t *testing.T) {
	// For < 10 relations the paper notes GPU variants are not competitive
	// because of per-level transfers; the model must reflect a time floor.
	rng := rand.New(rand.NewSource(34))
	q := starQuery(5, rng)
	_, _, gs, err := MPDPGPU(dp.Input{Q: q, M: cost.DefaultModel()}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	floor := float64(gs.Levels) * GTX1080().LevelTransferUS * 1e-3
	if gs.SimTimeMS < floor {
		t.Errorf("sim time %.4fms below transfer floor %.4fms", gs.SimTimeMS, floor)
	}
}
