package graph

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bitset"
)

// naiveConnected checks connectivity of the induced subgraph by DFS over
// adjacency lists, independent of the mask-based Grow implementation.
func naiveConnected(g *Graph, s bitset.Mask) bool {
	els := s.Elements()
	if len(els) <= 1 {
		return true
	}
	seen := map[int]bool{els[0]: true}
	stack := []int{els[0]}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(v) {
			if s.Has(w) && !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return len(seen) == len(els)
}

func TestConnectedMatchesNaiveOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(12)
		g := RandomConnected(n, rng.Intn(n), rng)
		for probe := 0; probe < 200; probe++ {
			s := bitset.Mask(rng.Uint64()) & bitset.Full(n)
			if g.Connected(s) != naiveConnected(g, s) {
				t.Fatalf("Connected(%v) disagrees with naive DFS", s)
			}
		}
	}
}

func TestGrowPaperExample(t *testing.T) {
	// The example of §3.2.1 (Figure 5): vertices renumbered to 0-based.
	g := New(9)
	edges := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 3}, {2, 3}, {3, 4}, {4, 8}, {8, 5}, {8, 6}, {5, 6}, {6, 7}, {5, 7}}
	for _, e := range edges {
		g.AddEdge(e[0], e[1], 1)
	}
	src := bitset.MaskOf(0, 1, 2)
	restrict := bitset.MaskOf(0, 1, 2, 3, 4, 8)
	if got := g.Grow(src, restrict); got != restrict {
		t.Errorf("Grow = %v, want %v", got, restrict)
	}
}

func TestFindBlocksPaperExample(t *testing.T) {
	// Figure 5 graph (0-based): blocks should be {0,1,2,3}, {3,4}, {4,8},
	// {5,6,7,8}; cut vertices {3,4,8}.
	g := New(9)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 3}, {2, 3}, {3, 4}, {4, 8}, {8, 5}, {8, 6}, {5, 6}, {6, 7}, {5, 7}} {
		g.AddEdge(e[0], e[1], 1)
	}
	blocks := g.FindBlocks(bitset.Full(9))
	want := map[bitset.Mask]bool{
		bitset.MaskOf(0, 1, 2, 3): true,
		bitset.MaskOf(3, 4):       true,
		bitset.MaskOf(4, 8):       true,
		bitset.MaskOf(5, 6, 7, 8): true,
	}
	if len(blocks) != len(want) {
		t.Fatalf("got %d blocks %v, want %d", len(blocks), blocks, len(want))
	}
	for _, b := range blocks {
		if !want[b] {
			t.Errorf("unexpected block %v", b)
		}
	}
	cuts := cutVertices(g, bitset.Full(9))
	if cuts != bitset.MaskOf(3, 4, 8) {
		t.Errorf("cut vertices = %v, want {3, 4, 8}", cuts)
	}
}

// cutVertices returns the vertices of s in two or more of its blocks: the
// cut vertices (§2.4) of the subgraph induced by s.
func cutVertices(g *Graph, s bitset.Mask) bitset.Mask {
	var seen, cuts bitset.Mask
	for _, b := range g.FindBlocks(s) {
		cuts |= seen & b
		seen |= b
	}
	return cuts
}

// naiveCutVertices removes each vertex and counts components.
func naiveCutVertices(g *Graph, s bitset.Mask) bitset.Mask {
	var cuts bitset.Mask
	base := len(g.ConnectedComponents(s))
	s.ForEach(func(v int) {
		without := s.Remove(v)
		if len(g.ConnectedComponents(without)) > base {
			cuts = cuts.Add(v)
		}
	})
	return cuts
}

func TestCutVerticesMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(10)
		g := RandomConnected(n, rng.Intn(n), rng)
		s := bitset.Full(n)
		if got, want := cutVertices(g, s), naiveCutVertices(g, s); got != want {
			t.Fatalf("trial %d: cut vertices of the blocks = %v, want %v", trial, got, want)
		}
	}
}

func TestBlocksPartitionEdges(t *testing.T) {
	// Every edge of the induced subgraph belongs to exactly one block.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(12)
		g := RandomConnected(n, rng.Intn(2*n), rng)
		s := bitset.Full(n)
		blocks := g.FindBlocks(s)
		for _, e := range g.Edges {
			owners := 0
			for _, b := range blocks {
				if b.Has(e.A) && b.Has(e.B) {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("edge (%d,%d) in %d blocks", e.A, e.B, owners)
			}
		}
	}
}

func TestBlocksOnTreeAreEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := RandomTree(12, rng)
	blocks := g.FindBlocks(bitset.Full(12))
	if len(blocks) != 11 {
		t.Fatalf("tree with 12 vertices must have 11 blocks, got %d", len(blocks))
	}
	for _, b := range blocks {
		if b.Count() != 2 {
			t.Errorf("tree block %v is not an edge", b)
		}
	}
}

func TestBlocksOnCliqueIsSingle(t *testing.T) {
	g := Clique(7)
	blocks := g.FindBlocks(bitset.Full(7))
	if len(blocks) != 1 || blocks[0] != bitset.Full(7) {
		t.Errorf("clique blocks = %v", blocks)
	}
}

func TestFindBlocksOnInducedSubgraph(t *testing.T) {
	// Blocks must respect the vertex restriction: on the Figure 5 graph,
	// S = {0,1,2,3,4} has blocks {0,1,2,3} and {3,4}.
	g := New(9)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 3}, {2, 3}, {3, 4}, {4, 8}, {8, 5}, {8, 6}, {5, 6}, {6, 7}, {5, 7}} {
		g.AddEdge(e[0], e[1], 1)
	}
	blocks := g.FindBlocks(bitset.MaskOf(0, 1, 2, 3, 4))
	if len(blocks) != 2 {
		t.Fatalf("blocks = %v", blocks)
	}
}

func TestBlockCutTreeChain(t *testing.T) {
	g := New(9)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 3}, {2, 3}, {3, 4}, {4, 8}, {8, 5}, {8, 6}, {5, 6}, {6, 7}, {5, 7}} {
		g.AddEdge(e[0], e[1], 1)
	}
	s := bitset.Full(9)
	blocks, cuts := g.FindBlocks(s), cutVertices(g, s)
	if len(blocks) != 4 || cuts.Count() != 3 {
		t.Fatalf("block-cut tree: %d blocks, %d cuts", len(blocks), cuts.Count())
	}
	// A block-cut tree has |blocks| + |cuts| - 1 edges when the graph is
	// connected: one per (block, cut vertex inside it).
	edges := 0
	for _, b := range blocks {
		edges += b.Intersect(cuts).Count()
	}
	if edges != len(blocks)+cuts.Count()-1 {
		t.Errorf("block-cut tree has %d edges, want %d", edges, len(blocks)+cuts.Count()-1)
	}
}

func TestGrowSetMatchesGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(20)
		g := RandomConnected(n, rng.Intn(n), rng)
		restrict := bitset.Mask(rng.Uint64()) & bitset.Full(n)
		if restrict.Empty() {
			continue
		}
		src := restrict.LowestBit()
		want := g.Grow(src, restrict)
		got := g.GrowSet(bitset.FromMask(n, src), bitset.FromMask(n, restrict))
		if !got.Equal(bitset.FromMask(n, want)) {
			t.Fatalf("GrowSet %v != Grow %v", got, want)
		}
	}
}

func TestSubgraphPreservesSelectivities(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1, 0.5)
	g.AddEdge(1, 2, 0.25)
	g.AddEdge(2, 3, 0.1)
	g.AddEdge(3, 4, 0.01)
	sub, toGlobal := g.Subgraph([]int{1, 2, 3})
	if sub.N != 3 || len(sub.Edges) != 2 {
		t.Fatalf("subgraph shape wrong: n=%d edges=%d", sub.N, len(sub.Edges))
	}
	if sub.EdgeSel(0, 1) != 0.25 || sub.EdgeSel(1, 2) != 0.1 {
		t.Error("selectivities not preserved")
	}
	if toGlobal[0] != 1 || toGlobal[2] != 3 {
		t.Error("local→global mapping wrong")
	}
}

func TestParallelEdgesMergeSelectivity(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 0.5)
	g.AddEdge(1, 0, 0.1) // same undirected edge, conjunctive predicate
	if got := g.EdgeSel(0, 1); got != 0.05 {
		t.Errorf("merged selectivity = %v, want 0.05", got)
	}
	if len(g.Edges) != 1 {
		t.Errorf("parallel edge duplicated: %d edges", len(g.Edges))
	}
}

func TestTopologies(t *testing.T) {
	if !Star(8).IsTree() || !Chain(8).IsTree() || !SnowflakeN(10, 3).IsTree() {
		t.Error("star/chain/snowflake must be trees")
	}
	if Cycle(6).IsTree() || Clique(5).IsTree() {
		t.Error("cycle/clique must not be trees")
	}
	if got := len(Clique(6).Edges); got != 15 {
		t.Errorf("clique(6) has %d edges, want 15", got)
	}
	sf := Snowflake(3, 4)
	if sf.N != 13 || len(sf.Edges) != 12 {
		t.Errorf("snowflake(3,4): n=%d edges=%d", sf.N, len(sf.Edges))
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(10)
	uf.Union(0, 1)
	uf.Union(1, 2)
	uf.Union(5, 6)
	if !uf.Same(0, 2) || uf.Same(0, 5) {
		t.Error("Same broken")
	}
	if uf.Size(2) != 3 || uf.Size(5) != 2 || uf.Size(9) != 1 {
		t.Error("Size broken")
	}
	groups := uf.Groups()
	if len(groups) != 7 {
		t.Errorf("Groups = %d, want 7", len(groups))
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	comps := g.ConnectedComponents(bitset.Full(6))
	if len(comps) != 4 {
		t.Errorf("components = %d, want 4", len(comps))
	}
}

// TestSharedQueryGraphConcurrentReads drives the lazily built dynamic-set
// adjacency of one finished graph of more than 64 vertices from 8 goroutines
// at once, as concurrent requests for one compiled query do. Run under
// -race: an unsynchronised first build fails here.
func TestSharedQueryGraphConcurrentReads(t *testing.T) {
	const n = 100
	g := New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v-1, v, 0.5)
	}
	full := bitset.NewSet(n)
	for v := 0; v < n; v++ {
		full.Add(v)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if !g.IsTree() {
				t.Error("chain not recognised as a tree")
			}
			if !g.ConnectedSet(full) {
				t.Error("chain not connected")
			}
		}()
	}
	close(start)
	wg.Wait()
	// Adding an edge afterwards rebuilds the derived sets.
	g.AddEdge(0, n-1, 0.5)
	if g.IsTree() {
		t.Error("cycle still reported as a tree")
	}
	if got := g.GrowSet(bitset.SetOf(n, 0), bitset.SetOf(n, 0, n-1)); got.Count() != 2 {
		t.Errorf("GrowSet over the new edge reached %d vertices, want 2", got.Count())
	}
}
