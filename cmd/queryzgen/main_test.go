package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/wire"
	"repro/internal/workload"
)

// TestOutputIsTheWireForm: every document queryzgen writes decodes through
// the /v1 wire form's ToQuery to the generated query's statistics, bit for
// bit, so its output can be posted to /v1/optimize unchanged.
func TestOutputIsTheWireForm(t *testing.T) {
	const rels, count, seed = 10, 3, 7
	for _, kind := range []workload.Kind{workload.KindCycle, workload.KindSnowflake, workload.KindMB} {
		var buf bytes.Buffer
		if err := emit(&buf, kind, rels, count, seed); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		dec := json.NewDecoder(&buf)
		for i := 0; i < count; i++ {
			var wq wire.Query
			if err := dec.Decode(&wq); err != nil {
				t.Fatalf("%s #%d: %v", kind, i, err)
			}
			got, err := wq.ToQuery(nil)
			if err != nil {
				t.Fatalf("%s #%d does not decode as a wire query: %v", kind, i, err)
			}
			want, err := workload.Generate(kind, rels, rand.New(rand.NewSource(seed+int64(i))))
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Cat.Rels) != len(want.Cat.Rels) || len(got.G.Edges) != len(want.G.Edges) {
				t.Fatalf("%s #%d: %d relations and %d edges, want %d and %d", kind, i,
					len(got.Cat.Rels), len(got.G.Edges), len(want.Cat.Rels), len(want.G.Edges))
			}
			for r, w := range want.Cat.Rels {
				g := got.Cat.Rels[r]
				if g.Name != w.Name || g.Width != w.Width || g.HasPKIndex != w.HasPKIndex ||
					math.Float64bits(g.Rows) != math.Float64bits(w.Rows) ||
					math.Float64bits(g.Pages) != math.Float64bits(w.Pages) {
					t.Errorf("%s #%d relation %d = %+v, want %+v", kind, i, r, g, w)
				}
			}
			for e, w := range want.G.Edges {
				g := got.G.Edges[e]
				if g.A != w.A || g.B != w.B || math.Float64bits(g.Sel) != math.Float64bits(w.Sel) {
					t.Errorf("%s #%d edge %d = %+v, want %+v", kind, i, e, g, w)
				}
			}
		}
		if dec.More() {
			t.Errorf("%s: more than %d documents", kind, count)
		}
	}
}
