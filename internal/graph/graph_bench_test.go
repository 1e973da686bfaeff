package graph

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// FindBlocks is MPDP's per-set hot path (one call per connected set); these
// benchmarks track its cost on the topologies of §7.2.1, on the whole
// graph, and on a sparse walk — a random tree with a few chords, the shape
// of a MusicBrainz query — over every connected set a DP over it visits.
func BenchmarkFindBlocks(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	type benchCase struct {
		name string
		g    *Graph
		sets []bitset.Mask // nil: the whole graph
	}
	cases := []benchCase{
		{"tree-16", RandomTree(16, rng), nil},
		{"cycle-16", Cycle(16), nil},
		{"clique-12", Clique(12), nil},
		{"random-20", RandomConnected(20, 10, rng), nil},
	}
	walk := RandomConnected(16, 3, rng)
	cases = append(cases, benchCase{"sparse-walk-16/sets", walk, connectedSets(walk)})
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			sets := c.sets
			if sets == nil {
				sets = []bitset.Mask{bitset.Full(c.g.N)}
			}
			var sc BlockScratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, s := range sets {
					if blocks := c.g.FindBlocksInto(s, &sc); len(blocks) == 0 {
						b.Fatal("no blocks")
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sets)), "ns/set")
		})
	}
}

// connectedSets returns the connected subsets of g's vertices of at least
// two, the sets a DP over g hands to FindBlocks.
func connectedSets(g *Graph) []bitset.Mask {
	var sets []bitset.Mask
	full := bitset.Full(g.N)
	for s := full.LowestBit(); !s.Empty(); s = s.NextSubset(full) {
		if s.Count() >= 2 && g.Connected(s) {
			sets = append(sets, s)
		}
	}
	return sets
}

func BenchmarkGrow(b *testing.B) {
	g := SnowflakeN(24, 4)
	s := bitset.Full(24)
	src := bitset.Single(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if g.Grow(src, s) != s {
			b.Fatal("grow incomplete")
		}
	}
}

func BenchmarkConnected(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := RandomConnected(24, 12, rng)
	masks := make([]bitset.Mask, 1024)
	for i := range masks {
		masks[i] = bitset.Mask(rng.Uint64()) & bitset.Full(24)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Connected(masks[i%len(masks)])
	}
}
