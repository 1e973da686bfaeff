package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
)

// findBlocksEdgeStack is the edge-stack Hopcroft–Tarjan FindBlocksInto
// replaced: every tree and back edge is pushed, and a finished child that
// reaches no higher than its parent pops the edges down to its tree edge as
// one block. It is the reference for the order and content of the mask DFS.
func findBlocksEdgeStack(g *Graph, s bitset.Mask) []bitset.Mask {
	if s.Count() < 2 {
		return nil
	}
	type frame struct {
		v, parent int
		next      int
	}
	var disc, low [64]int
	for i := range disc {
		disc[i] = -1
	}
	time := 0
	var blocks []bitset.Mask
	var edges [][2]int
	for root := s; !root.Empty(); root = root.Remove(root.Lowest()) {
		r := root.Lowest()
		if disc[r] >= 0 {
			continue
		}
		stack := []frame{{v: r, parent: -1}}
		disc[r], low[r] = time, time
		time++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			advanced := false
			for f.next < len(g.adjList[f.v]) {
				w := g.adjList[f.v][f.next]
				f.next++
				if !s.Has(w) || w == f.parent {
					continue
				}
				if disc[w] >= 0 {
					if disc[w] < disc[f.v] {
						edges = append(edges, [2]int{f.v, w})
						low[f.v] = min(low[f.v], disc[w])
					}
					continue
				}
				edges = append(edges, [2]int{f.v, w})
				disc[w], low[w] = time, time
				time++
				stack = append(stack, frame{v: w, parent: f.v})
				advanced = true
				break
			}
			if advanced {
				continue
			}
			v := f.v
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				continue
			}
			p := stack[len(stack)-1].v
			low[p] = min(low[p], low[v])
			if low[v] < disc[p] {
				continue
			}
			var block bitset.Mask
			for {
				e := edges[len(edges)-1]
				edges = edges[:len(edges)-1]
				block = block.Add(e[0]).Add(e[1])
				if e[0] == p && e[1] == v {
					break
				}
			}
			blocks = append(blocks, block)
		}
	}
	return blocks
}

// shuffledGraph is a random connected graph on n vertices with extra chords
// whose edges are inserted in random order and orientation, so adjacency
// lists are not sorted, with random selectivities; some predicates are
// added twice, so their selectivities are merged products.
func shuffledGraph(n, extra int, rng *rand.Rand) *Graph {
	src := RandomConnected(n, extra, rng)
	g := New(n)
	for _, i := range rng.Perm(len(src.Edges)) {
		a, b := src.Edges[i].A, src.Edges[i].B
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		g.AddEdge(a, b, math.Pow(10, -3*rng.Float64()))
		if rng.Intn(5) == 0 {
			g.AddEdge(b, a, rng.Float64())
		}
	}
	return g
}

// grid is a rows×cols lattice.
func grid(rows, cols int) *Graph {
	g := New(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(r*cols+c, r*cols+c+1, 1)
			}
			if r+1 < rows {
				g.AddEdge(r*cols+c, (r+1)*cols+c, 1)
			}
		}
	}
	return g
}

// randomConnectedSet grows a connected subset of g from a random vertex by
// random frontier steps, up to size vertices.
func randomConnectedSet(g *Graph, size int, rng *rand.Rand) bitset.Mask {
	s := bitset.Single(rng.Intn(g.N))
	for s.Count() < size {
		nb := g.NeighborhoodOf(s).Elements()
		if len(nb) == 0 {
			break
		}
		s = s.Add(nb[rng.Intn(len(nb))])
	}
	return s
}

// sampleSets returns every subset of g's vertices when there are at most 12
// of them, and otherwise the full set, random masks and random connected
// sets, half of them holding the highest vertex.
func sampleSets(g *Graph, rng *rand.Rand) []bitset.Mask {
	full := bitset.Full(g.N)
	if g.N <= 12 {
		var sets []bitset.Mask
		for s := bitset.Mask(0); ; s = s.NextSubset(full) {
			sets = append(sets, s)
			if s == full {
				return sets
			}
		}
	}
	sets := []bitset.Mask{full}
	for i := 0; i < 200; i++ {
		r := bitset.Mask(rng.Uint64()) & full
		c := randomConnectedSet(g, 2+rng.Intn(g.N-1), rng)
		if i%2 == 0 {
			r, c = r.Add(g.N-1), c.Union(randomConnectedSet(g, 1+rng.Intn(8), rng)).Add(g.N-1)
		}
		sets = append(sets, r, c)
	}
	return sets
}

// TestFindBlocksMatchesEdgeStackOrder: the mask DFS returns the blocks of
// the edge-stack reference in the reference's order — on every subset of
// random graphs with unsorted adjacency lists (connected, disconnected, one
// vertex, empty), and on sampled sets of 64-vertex chains, cycles and grids,
// where bit 63 is in play.
func TestFindBlocksMatchesEdgeStackOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	graphs := []*Graph{Chain(64), Cycle(64), grid(8, 8), shuffledGraph(64, 12, rng)}
	for i := 0; i < 60; i++ {
		n := 2 + rng.Intn(11)
		graphs = append(graphs, shuffledGraph(n, rng.Intn(2*n), rng))
	}
	var sc BlockScratch
	checked := 0
	for _, g := range graphs {
		for _, s := range sampleSets(g, rng) {
			got, want := g.FindBlocksInto(s, &sc), findBlocksEdgeStack(g, s)
			if !slices.Equal(got, want) {
				t.Fatalf("%d vertices, %d edges, set %v: blocks %v, edge stack %v", g.N, len(g.Edges), s, got, want)
			}
			checked++
		}
	}
	t.Logf("%d sets", checked)
}

// TestBlockSideMatchesGrow: for every block B of a set S and every
// connected lb inside B, Side is the grow of lb in S without B∖lb; for
// every bridge, BridgeSel is EdgeSel of its ends to the bit.
func TestBlockSideMatchesGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	graphs := []*Graph{Cycle(64), grid(8, 8), shuffledGraph(64, 12, rng)}
	for i := 0; i < 60; i++ {
		n := 2 + rng.Intn(11)
		graphs = append(graphs, shuffledGraph(n, rng.Intn(2*n), rng))
	}
	var sc BlockScratch
	triples, bridges := 0, 0
	for _, g := range graphs {
		for _, s := range sampleSets(g, rng) {
			for i, b := range g.FindBlocksInto(s, &sc) {
				if b.Count() == 2 {
					bridges++
					if got, want := sc.BridgeSel(i), g.EdgeSel(b.Lowest(), b.Highest()); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("set %v, bridge %v: BridgeSel %v, EdgeSel %v", s, b, got, want)
					}
				}
				if b.Count() > 12 {
					continue // a 64-cycle: its sides are checked on the smaller blocks
				}
				for lb := b.LowestBit(); ; lb = lb.NextSubset(b) {
					if g.Connected(lb) {
						triples++
						if got, want := sc.Side(i, lb), g.Grow(lb, s.Diff(b.Diff(lb))); got != want {
							t.Fatalf("%d vertices, set %v, block %v, lb %v: Side %v, Grow %v", g.N, s, b, lb, got, want)
						}
					}
					if lb == b {
						break
					}
				}
			}
		}
	}
	if triples < 100_000 || bridges < 1_000 {
		t.Fatalf("only %d (set, block, lb) triples and %d bridges checked", triples, bridges)
	}
	t.Logf("%d (set, block, lb) triples, %d bridges", triples, bridges)
}

// TestFindBlocksAllocatesNothing: a used scratch holds everything the DFS
// writes.
func TestFindBlocksAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, g := range []*Graph{Cycle(64), grid(8, 8), shuffledGraph(20, 10, rng), Clique(12)} {
		var sc BlockScratch
		s := bitset.Full(g.N)
		g.FindBlocksInto(s, &sc)
		if allocs := testing.AllocsPerRun(10, func() { g.FindBlocksInto(s, &sc) }); allocs != 0 {
			t.Errorf("%d vertices, %d edges: FindBlocksInto allocates %.0f times", g.N, len(g.Edges), allocs)
		}
	}
}
