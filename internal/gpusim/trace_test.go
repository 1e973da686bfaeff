package gpusim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestTraceIntoDecomposesDeviceTime: TraceInto must emit every non-zero
// modeled component as a Sim span, and the span durations must sum to the
// per-device busy time — kernel launches + per-device level transfers +
// warp cycles + global-memory traffic, the same terms SimTimeMS is built
// from (makespan, so busy time is >= it, == for one device).
func TestTraceIntoDecomposesDeviceTime(t *testing.T) {
	q := multiQuery(t, workload.KindCycle, 12, 9)
	in := dp.Input{Q: q, M: cost.DefaultModel()}
	for _, ndev := range []int{1, 3} {
		cfg := DefaultConfig()
		cfg.Devices = ndev
		_, _, gs, err := Run(in, cfg, AlgoMPDP)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace("gpu")
		gs.TraceInto(tr)
		spans := tr.Spans()
		if len(spans) == 0 {
			t.Fatalf("dev=%d: no spans", ndev)
		}
		var sumMS float64
		for _, s := range spans {
			if !s.Sim {
				t.Errorf("dev=%d: span %s not marked sim", ndev, s.Phase)
			}
			if !strings.HasPrefix(s.Phase, "gpu_") {
				t.Errorf("dev=%d: span %s lacks gpu_ prefix", ndev, s.Phase)
			}
			if s.DurUS <= 0 {
				t.Errorf("dev=%d: span %s duration %g", ndev, s.Phase, s.DurUS)
			}
			sumMS += s.DurUS / 1e3
		}
		for _, want := range []string{obs.PhaseGPULaunch, obs.PhaseGPUTransfer, "gpu_evaluate"} {
			found := false
			for _, s := range spans {
				if s.Phase == want {
					found = true
				}
			}
			if !found {
				t.Errorf("dev=%d: missing span %s in %+v", ndev, want, spans)
			}
		}
		// Busy time >= makespan, and equal for a single device. Spans are
		// stored in whole nanoseconds, so allow one ns of truncation per
		// span on both comparisons.
		slackMS := float64(len(spans)) * 1e-6
		if sumMS < gs.SimTimeMS-slackMS {
			t.Errorf("dev=%d: span sum %.4fms < sim makespan %.4fms", ndev, sumMS, gs.SimTimeMS)
		}
		if ndev == 1 && math.Abs(sumMS-gs.SimTimeMS) > slackMS {
			t.Errorf("dev=1: span sum %.6fms != SimTimeMS %.6fms", sumMS, gs.SimTimeMS)
		}
		// WallSpanSumUS must ignore all of them: modeled time is not wall
		// time.
		if got := tr.WallSpanSumUS(); got != 0 {
			t.Errorf("dev=%d: WallSpanSumUS = %g over sim-only spans, want 0", ndev, got)
		}
	}

	// Nil receivers and nil traces are no-ops, not panics.
	var nilStats *MultiStats
	nilStats.TraceInto(obs.NewTrace(""))
	(&MultiStats{}).TraceInto(nil)
}
