package heuristic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/graph"
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

func BenchmarkHeuristics(b *testing.B) {
	suite := []namedHeuristic{
		{"GOO", GOO},
		{"IKKBZ", IKKBZ},
		{"IDP2", IDP2},
		{"UnionDP", UnionDP},
	}
	for _, n := range []int{50, 200, 1000} {
		q := benchSnowflake(n)
		for _, h := range suite {
			if n == 1000 && h.name != "GOO" && h.name != "IDP2" && h.name != "UnionDP" {
				continue // the large-query route: GOO seeds IDP2, UnionDP takes the cyclic ones
			}
			b.Run(fmt.Sprintf("%s/n=%d", h.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p, err := h.f(q, Options{K: 10, Threads: 1})
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
		parts := partitionUnits(q, Options{Model: m}, groups, sets, 15)
		if len(parts) == 0 {
			b.Fatal("no partitions")
		}
	}
}

func BenchmarkIKKBZLinearize(b *testing.B) {
	q := benchSnowflake(100)
	tree, err := spanningTree(q)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		order := ikkbzLinearize(q, tree, rng.Intn(q.N()))
		if len(order) != q.N() {
			b.Fatal("incomplete order")
		}
	}
}
