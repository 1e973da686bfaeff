package core

import (
	"testing"
	"time"

	"repro/internal/gpusim"
	"repro/internal/graph"
)

func TestDefaultCrossoverSane(t *testing.T) {
	c := ladder
	if c.smallLimit != 12 || c.cpuParallelLimit != 25 || c.cliqueCPULimit != 14 || c.denseEdgeFactor != 4 {
		t.Errorf("paper limits drifted: %+v", c)
	}
	// The headline regime: the GPU band must open the 26..40+ range that
	// the heuristics used to own.
	if c.gpuLimit < 40 || c.gpuLimit > 64 {
		t.Errorf("gpu_limit %d outside [40, 64]", c.gpuLimit)
	}
	if c.gpuCliqueLimit < c.cliqueCPULimit || c.gpuCliqueLimit > 64 {
		t.Errorf("gpu clique cap %d outside [cpu clique cap %d, 64]", c.gpuCliqueLimit, c.cliqueCPULimit)
	}
}

// TestCalibrateMonotone: a faster device or a larger budget never shrinks
// the exact-GPU band.
func TestCalibrateMonotone(t *testing.T) {
	base := calibrate(gpusim.GTX1080(), 5*time.Second)

	fast := gpusim.GTX1080()
	fast.SMCount *= 2
	if c := calibrate(fast, 5*time.Second); c.gpuLimit < base.gpuLimit {
		t.Errorf("doubling SMs shrank gpu_limit: %d < %d", c.gpuLimit, base.gpuLimit)
	}
	if c := calibrate(gpusim.GTX1080(), 30*time.Second); c.gpuLimit < base.gpuLimit ||
		c.gpuCliqueLimit < base.gpuCliqueLimit {
		t.Errorf("larger budget shrank the band: %+v vs %+v", c, base)
	}
	if c := calibrate(nil, 0); c != base {
		t.Errorf("nil device / zero budget should select the defaults: %+v", c)
	}
}

func TestDetectShape(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want Shape
	}{
		{"chain", graph.Chain(6), ShapeChain},
		{"two-vertex", graph.Chain(2), ShapeChain},
		{"star", graph.Star(6), ShapeStar},
		{"clique", graph.Clique(5), ShapeClique},
		{"triangle", graph.Clique(3), ShapeClique},
		{"cycle", graph.Cycle(6), ShapeGeneral},
		{"snowflake", graph.Snowflake(3, 2), ShapeTree},
	}
	for _, tc := range tests {
		if got := DetectShape(tc.g); got != tc.want {
			t.Errorf("%s: DetectShape = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestShapeIsTree(t *testing.T) {
	for _, s := range []Shape{ShapeChain, ShapeStar, ShapeTree} {
		if !s.IsTree() {
			t.Errorf("%s should be a tree shape", s)
		}
	}
	for _, s := range []Shape{ShapeClique, ShapeGeneral} {
		if s.IsTree() {
			t.Errorf("%s should not be a tree shape", s)
		}
	}
}
