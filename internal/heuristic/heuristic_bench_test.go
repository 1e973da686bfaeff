package heuristic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/graph"
	"repro/internal/workload"
)

func benchSnowflake(n int) *cost.Query {
	g := graph.SnowflakeN(n, 4)
	cat := catalog.SnowflakeCatalog(n, 4)
	q := &cost.Query{Cat: cat, G: graph.New(n)}
	for _, e := range g.Edges {
		q.G.AddEdge(e.A, e.B, 1/math.Max(cat.Rels[e.B].Rows, 2))
	}
	return q
}

// BenchmarkHeuristics times every large-query heuristic the router or the
// benchmark's oracle runs, on the shapes of heuristic-large: snowflakes (the
// tree route), a cycle-200 (a unicyclic graph, routed to IDP2) and a
// MusicBrainz-56 (routed to LinDP). Each call borrows one warm workspace, as
// a service worker's does.
func BenchmarkHeuristics(b *testing.B) {
	suite := []namedHeuristic{
		{"GOO", GOO},
		{"IKKBZ", IKKBZ},
		{"LinDP", Adaptive},
		{"IDP2", IDP2},
		{"UnionDP", UnionDP},
	}
	type benchQuery struct {
		name string
		q    *cost.Query
	}
	var queries []benchQuery
	for _, n := range []int{50, 200, 1000} {
		queries = append(queries, benchQuery{fmt.Sprintf("n=%d", n), benchSnowflake(n)})
	}
	for _, s := range []struct {
		kind workload.Kind
		n    int
	}{{workload.KindCycle, 200}, {workload.KindMB, 56}} {
		q, err := workload.Generate(s.kind, s.n, rand.New(rand.NewSource(int64(s.n))))
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, benchQuery{fmt.Sprintf("%s-%d", s.kind, s.n), q})
	}
	for _, bq := range queries {
		for _, h := range suite {
			if bq.q.N() == 1000 && h.name == "IKKBZ" {
				continue // not a route: n orders of an O(n) linearization each
			}
			b.Run(h.name+"/"+bq.name, func(b *testing.B) {
				opt := Options{Threads: 1, Workspace: new(dp.Workspace)}
				if _, err := h.f(bq.q, opt); err != nil { // warm the workspace
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p, err := h.f(bq.q, opt)
					if err != nil {
						b.Fatal(err)
					}
					if p == nil {
						b.Fatal("nil plan")
					}
				}
			})
		}
	}
}

func BenchmarkUnionDPPartitionPhase(b *testing.B) {
	q := benchSnowflake(500)
	m := cost.DefaultModel()
	groups, sets := baseScans(q, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := partitionUnits(q, Options{Model: m}, groups, sets, unitOwners(q, sets), 15)
		if len(parts) == 0 {
			b.Fatal("no partitions")
		}
	}
}

func BenchmarkIKKBZLinearize(b *testing.B) {
	q := benchSnowflake(100)
	z, err := newIKKBZ(q)
	if err != nil {
		b.Fatal(err)
	}
	order := make([]int, q.N())
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.linearize(rng.Intn(q.N()), order)
	}
}
