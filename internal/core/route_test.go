package core

import (
	"testing"

	"repro/internal/graph"
)

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
