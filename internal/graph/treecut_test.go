package graph

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// pruferTree decodes a uniformly random Prüfer sequence into the edge list
// of a labelled tree on n vertices: every shape and every labelling, so an
// edge's lower-numbered end is the child as often as the parent.
func pruferTree(n int, rng *rand.Rand) [][2]int {
	if n < 2 {
		return nil
	}
	seq := make([]int, n-2)
	degree := make([]int, n)
	for i := range seq {
		seq[i] = rng.Intn(n)
		degree[seq[i]]++
	}
	var edges [][2]int
	for _, v := range seq {
		for leaf := 0; leaf < n; leaf++ {
			if degree[leaf] == 0 {
				edges = append(edges, [2]int{leaf, v})
				degree[leaf], degree[v] = -1, degree[v]-1
				break
			}
		}
	}
	var last []int
	for v, d := range degree {
		if d == 0 {
			last = append(last, v)
		}
	}
	return append(edges, [2]int{last[0], last[1]})
}

// weighted builds the graph of edges with random selectivities, either end
// first, and every third edge added a second time so that AddEdge merges a
// parallel predicate into it.
func weighted(n int, edges [][2]int, rng *rand.Rand) *Graph {
	g := New(n)
	for i, e := range edges {
		if rng.Intn(2) == 0 {
			e[0], e[1] = e[1], e[0]
		}
		g.AddEdge(e[0], e[1], rng.Float64())
		if i%3 == 0 {
			g.AddEdge(e[1], e[0], rng.Float64())
		}
	}
	return g
}

func edgesOf(g *Graph) [][2]int {
	var edges [][2]int
	for _, e := range g.Edges {
		edges = append(edges, [2]int{e.A, e.B})
	}
	return edges
}

// checkCuts holds the index against the walk it replaces, for every edge of
// the connected set s: the split is the grow from A with B removed, and the
// selectivity has the bits of the product over the cut.
func checkCuts(t *testing.T, g *Graph, cuts []TreeCut, s bitset.Mask) {
	t.Helper()
	inside := 0
	for i, e := range g.Edges {
		c := cuts[i]
		if has := s.Has(e.A) && s.Has(e.B); has != (s&c.Ends == c.Ends) {
			t.Fatalf("edge %d-%d in %v: Ends test says %v", e.A, e.B, s, !has)
		} else if !has {
			continue
		}
		inside++
		left := g.Grow(bitset.Single(e.A), s.Remove(e.B))
		if got := s & c.ASide; got != left {
			t.Fatalf("edge %d-%d in %v: A's side %v, the walk says %v", e.A, e.B, s, got, left)
		}
		if want := g.CrossSel(left, s.Diff(left)); math.Float64bits(c.Sel) != math.Float64bits(want) {
			t.Fatalf("edge %d-%d in %v: Sel %x, CrossSel %x", e.A, e.B, s, math.Float64bits(c.Sel), math.Float64bits(want))
		}
	}
	if inside != s.Count()-1 {
		t.Fatalf("%v spans %d edges: not a connected set of a tree", s, inside)
	}
}

func TestTreeCutsMatchTheWalkExhaustively(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for n := 1; n <= 14; n++ {
		for trial := 0; trial < 6; trial++ {
			g := weighted(n, pruferTree(n, rng), rng)
			if !g.IsTree() {
				t.Fatalf("n=%d: the Prüfer decode is not a tree", n)
			}
			cuts := g.TreeCuts(nil)
			if len(cuts) != n-1 {
				t.Fatalf("n=%d: %d cuts", n, len(cuts))
			}
			for s := bitset.Mask(1); s < 1<<uint(n); s++ {
				if g.Connected(s) {
					checkCuts(t, g, cuts, s)
				}
			}
		}
	}
}

func TestTreeCutsMatchTheWalkAt64(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, tc := range []struct {
		name  string
		edges [][2]int
	}{
		{"chain", edgesOf(Chain(64))},
		{"star", edgesOf(Star(64))},
		{"snowflake", edgesOf(SnowflakeN(64, 4))},
		{"random", pruferTree(64, rng)},
	} {
		g := weighted(64, tc.edges, rng)
		// Appended to a used buffer, as a workspace hands it in.
		cuts := g.TreeCuts(make([]TreeCut, 3, 80)[:0])
		checkCuts(t, g, cuts, bitset.Full(64))
		for sample := 0; sample < 2000; sample++ {
			// Grow a random connected set, from relation 63 half the time.
			s := bitset.Single(63)
			if sample%2 == 1 {
				s = bitset.Single(rng.Intn(64))
			}
			for size := 2 + rng.Intn(63); s.Count() < size; {
				nb := g.NeighborhoodOf(s).Elements()
				s = s.Add(nb[rng.Intn(len(nb))])
			}
			checkCuts(t, g, cuts, s)
		}
		t.Logf("%s-64: 2001 sets checked", tc.name)
	}
}

func TestTreeCutsRejectNonTrees(t *testing.T) {
	for name, g := range map[string]*Graph{"cycle": Cycle(5), "forest": func() *Graph {
		g := New(5) // a triangle and an edge: n-1 edges, two components
		g.AddEdge(0, 1, 1)
		g.AddEdge(1, 2, 1)
		g.AddEdge(2, 0, 1)
		g.AddEdge(3, 4, 1)
		return g
	}()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: TreeCuts did not panic", name)
				}
			}()
			g.TreeCuts(nil)
		}()
	}
}
