package backend

import (
	"testing"
	"time"

	"repro/internal/gpusim"
)

func TestDefaultCrossoverSane(t *testing.T) {
	c := DefaultCrossover()
	if c.SmallLimit != 12 || c.CPUParallelLimit != 25 || c.CliqueCPULimit != 14 || c.DenseEdgeFactor != 4 {
		t.Errorf("paper limits drifted: %+v", c)
	}
	// The headline regime: the GPU band must open the 26..40+ range that
	// the heuristics used to own.
	if c.GPULimit < 40 || c.GPULimit > 64 {
		t.Errorf("gpu_limit %d outside [40, 64]", c.GPULimit)
	}
	if c.GPUCliqueLimit < c.CliqueCPULimit {
		t.Errorf("gpu clique cap %d below cpu clique cap %d", c.GPUCliqueLimit, c.CliqueCPULimit)
	}
}

// TestCalibrateMonotone: a faster device or a larger budget never shrinks
// the exact-GPU band.
func TestCalibrateMonotone(t *testing.T) {
	base := Calibrate(gpusim.GTX1080(), 5*time.Second)

	fast := gpusim.GTX1080()
	fast.SMCount *= 2
	if c := Calibrate(fast, 5*time.Second); c.GPULimit < base.GPULimit {
		t.Errorf("doubling SMs shrank gpu_limit: %d < %d", c.GPULimit, base.GPULimit)
	}
	if c := Calibrate(gpusim.GTX1080(), 30*time.Second); c.GPULimit < base.GPULimit ||
		c.GPUCliqueLimit < base.GPUCliqueLimit {
		t.Errorf("larger budget shrank the band: %+v vs %+v", c, base)
	}
	if c := Calibrate(nil, 0); c != base {
		t.Errorf("nil device / zero budget should select the defaults: %+v", c)
	}
}
