package dp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/plan"
)

// evaluateSetMPDPFullWalk is Algorithm 3's per-set body as it was before the
// half block walk: Hopcroft–Tarjan on every set, and lb over every connected
// proper subset of each block, so each valid block pair is found twice, once
// from each side, and offered in the walk's order. It is the reference the
// tie rule of EvaluateSetMPDP must reproduce.
func evaluateSetMPDPFullWalk(in Input, tab *plan.Table, s bitset.Mask, dl *Deadline, sc *Scratch) (Winner, Stats, error) {
	var stats Stats
	g := in.Q.G
	var bw bestWin
	w := &sc.walk
	for _, block := range g.FindBlocksInto(s, &sc.Blocks) {
		if block.Count() == 2 {
			a := block.LowestBit()
			left := g.Grow(a, s.Diff(block.Diff(a)))
			stats.Evaluated += 2
			stats.CCP += 2
			costBothWays(in.Q, in.M, tab, &bw, left, s.Diff(left), g.EdgeSel(a.Lowest(), block.Diff(a).Lowest()))
			continue
		}
		whole := block == s
		w.start(g, block)
		for lb := w.next(); !lb.Empty(); lb = w.next() {
			rb := block.Diff(lb)
			if rb.Empty() {
				continue
			}
			stats.Evaluated++
			ri, ok := tab.Slot(rb)
			if !ok {
				continue
			}
			stats.CCP++
			left, right := lb, rb
			if !whole {
				left = g.Grow(lb, s.Diff(rb))
				right = s.Diff(left)
				if right != rb {
					ri = tab.MustSlot(right)
				}
			}
			li := tab.MustSlot(left)
			l, r := side{cost: tab.CostAt(li)}, side{cost: tab.CostAt(ri)}
			if bw.hopeless(l.cost, r.cost, tab.IsLeaf(right)) {
				continue
			}
			l.rows, l.lg = tab.ScalarsAt(li)
			r.rows, r.lg = tab.ScalarsAt(ri)
			rows := l.rows * r.rows * in.Q.SelBetween(left, right)
			op, c := joinCost(in.Q, in.M, tab, l, r, right, ri, rows)
			bw.offer(left, right, op, rows, c)
		}
	}
	return bw.Winner, stats, nil
}

// sameWinner reports the first difference between two winners, floats
// compared bit for bit.
func sameWinner(got, want Winner) error {
	if got.Found != want.Found || got.Left != want.Left || got.Right != want.Right || got.Op != want.Op ||
		math.Float64bits(got.Rows) != math.Float64bits(want.Rows) || math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		return fmt.Errorf("winner %v ⋈ %v (op %v rows %v cost %v), full walk %v ⋈ %v (op %v rows %v cost %v)",
			got.Left, got.Right, got.Op, got.Rows, got.Cost, want.Left, want.Right, want.Op, want.Rows, want.Cost)
	}
	return nil
}

// subOneRowQuery builds a query over the edges of g whose estimates fall
// below one row: selectivity 1/|PK| of the unfiltered relation, then every
// relation shrunk by up to 10^2 — the regime where equal-cost splits are
// common.
func subOneRowQuery(g *graph.Graph, rng *rand.Rand) *cost.Query {
	cat := catalog.UniformCatalog(g.N)
	q := graph.New(g.N)
	for _, e := range g.Edges {
		q.AddEdge(e.A, e.B, 1/math.Max(1, math.Min(cat.Rels[e.A].Rows, cat.Rels[e.B].Rows)))
	}
	for i := range cat.Rels {
		cat.Rels[i].Rows = math.Max(1, cat.Rels[i].Rows*math.Pow(10, -2*rng.Float64()))
	}
	return &cost.Query{Cat: cat, G: q}
}

// unitClique is a clique of n one-row relations joined at selectivity 1:
// every split of every set has the same inputs, so ties are as many as they
// can be.
func unitClique(n int) *cost.Query {
	var cat catalog.Catalog
	for i := 0; i < n; i++ {
		r := catalog.NewRelation(fmt.Sprintf("r%d", i), 1, 50)
		r.HasPKIndex = true
		cat.Add(r)
	}
	return &cost.Query{Cat: cat, G: graph.Clique(n)}
}

// bushyClique is a clique without indexes whose selectivities span seven
// decades, where balanced splits win and both orientations of a pair of
// equal-sized sides are costed: their selectivity products multiply the
// same factors in different orders and may differ in the last bit.
func bushyClique(n int, rng *rand.Rand) *cost.Query {
	var cat catalog.Catalog
	for i := 0; i < n; i++ {
		cat.Add(catalog.NewRelation(fmt.Sprintf("r%d", i), math.Pow(10, 1+6*rng.Float64()), 40))
	}
	g := graph.New(n)
	for _, e := range graph.Clique(n).Edges {
		g.AddEdge(e.A, e.B, math.Pow(10, -7*rng.Float64()))
	}
	return &cost.Query{Cat: cat, G: g}
}

func gridGraph(rows, cols int) *graph.Graph {
	g := graph.New(rows * cols)
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

// twoCycles is a cycle of a vertices and one of b sharing vertex 0.
func twoCycles(a, b int) *graph.Graph {
	g := graph.New(a + b - 1)
	for i := 0; i < a; i++ {
		g.AddEdge(i, (i+1)%a, 1)
	}
	prev := 0
	for v := a; v < a+b-1; v++ {
		g.AddEdge(prev, v, 1)
		prev = v
	}
	g.AddEdge(prev, 0, 1)
	return g
}

// triangleRing is a cycle of k vertices with an apex over every edge.
func triangleRing(k int) *graph.Graph {
	g := graph.New(2 * k)
	for i := 0; i < k; i++ {
		j := (i + 1) % k
		g.AddEdge(i, j, 1)
		g.AddEdge(i, k+i, 1)
		g.AddEdge(j, k+i, 1)
	}
	return g
}

// TestTieOrderMatchesFullWalk: EvaluateSetMPDP finds each block pair from
// one side and costs both orientations, and must still return, for every
// connected set, the winner the full walk returns — split, operator, rows
// and cost bit for bit — where exact ties are most common: one-row cliques,
// grids, cycles sharing a cut vertex, a triangle ring and random graphs
// under sub-one-row estimates; and on cliques whose bushy splits win, where
// the two orientations' selectivities must each be multiplied in their own
// order. It also pins the counts: the same valid pairs, and never more pairs
// examined.
func TestTieOrderMatchesFullWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	cases := map[string]*cost.Query{}
	for n := 6; n <= 10; n++ {
		cases[fmt.Sprintf("unit-clique-%d", n)] = unitClique(n)
		cases[fmt.Sprintf("bushy-clique-%d", n)] = bushyClique(n, rng)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid-3x4", gridGraph(3, 4)}, {"grid-4x4", gridGraph(4, 4)},
		{"two-cycles-5+6", twoCycles(5, 6)}, {"two-cycles-8+9", twoCycles(8, 9)},
		{"triangle-ring-5", triangleRing(5)}, {"triangle-ring-7", triangleRing(7)},
	} {
		cases[tc.name] = subOneRowQuery(tc.g, rng)
	}
	for i := 0; i < 50; i++ {
		n := 3 + rng.Intn(10)
		cases[fmt.Sprintf("random-%d (n=%d)", i, n)] = subOneRowQuery(graph.RandomConnected(n, rng.Intn(2*n), rng), rng)
	}
	ref := new(Scratch)
	for name, q := range cases {
		var full Stats
		_, half, err := runLevels(Input{Q: q, M: cost.DefaultModel()},
			func(in Input, tab *plan.Table, s bitset.Mask, dl *Deadline, sc *Scratch) (Winner, Stats, error) {
				want, wst, _ := evaluateSetMPDPFullWalk(in, tab, s, dl, ref)
				full.Add(wst)
				got, st, err := EvaluateSetMPDP(in, tab, s, dl, sc)
				if err == nil {
					if d := sameWinner(got, want); d != nil {
						t.Fatalf("%s, set %v: %v", name, s, d)
					}
				}
				return got, st, err
			})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if half.CCP != full.CCP || half.Evaluated > full.Evaluated || half.Evaluated < half.CCP {
			t.Errorf("%s: half walk examined %d pairs (%d valid), full walk %d (%d valid)",
				name, half.Evaluated, half.CCP, full.Evaluated, full.CCP)
		}
	}
}

// TestTieOrderPreorderLess: the tie rule orders two block sides that hold
// the block's lowest vertex v0 by where the walk of the whole block hands
// them out. preorderLess must agree with the walk's actual order on every
// pair, over the blocks of random graphs of at most ten relations.
func TestTieOrderPreorderLess(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var w csgWalk
	blocks := 0
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(8)
		g := graph.RandomConnected(n, rng.Intn(2*n), rng)
		for _, block := range g.FindBlocks(bitset.Full(n)) {
			if block.Count() < 3 {
				continue
			}
			blocks++
			v0 := block.LowestBit()
			var order []bitset.Mask
			w.start(g, block)
			for s := w.next(); !s.Empty(); s = w.next() {
				if s&v0 != 0 {
					order = append(order, s)
				}
			}
			for i, a := range order {
				for j, b := range order {
					if got := preorderLess(g, block, a, b); got != (i < j) {
						t.Fatalf("block %v of %d edges: preorderLess(%v, %v) = %v, the walk hands them out at %d and %d",
							block, len(g.Edges), a, b, got, i, j)
					}
				}
			}
		}
	}
	if blocks < 100 {
		t.Fatalf("only %d blocks of three or more relations", blocks)
	}
}

// TestCensusMatchesBruteForce: the census walk buckets exactly the connected
// subsets of each size, each once, on random graphs of up to 14 relations —
// without a workspace and on one recycled across graphs that grow and
// shrink.
func TestCensusMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	ws := new(Workspace)
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(14)
		g := graph.RandomConnected(n, rng.Intn(2*n), rng)
		want := make([]map[bitset.Mask]bool, n+1)
		for i := range want {
			want[i] = map[bitset.Mask]bool{}
		}
		full := bitset.Full(n)
		for s := full.LowestBit(); !s.Empty(); s = s.NextSubset(full) {
			if g.Connected(s) {
				want[s.Count()][s] = true
			}
		}
		for _, w := range []*Workspace{nil, ws} {
			buckets := connectedSetsBySize(g, NewDeadline(noDeadline()), w)
			if len(buckets) != n+1 || len(buckets[0]) != 0 {
				t.Fatalf("trial %d: %d buckets, bucket 0 holds %d", trial, len(buckets), len(buckets[0]))
			}
			for size := 1; size <= n; size++ {
				seen := map[bitset.Mask]bool{}
				for _, s := range buckets[size] {
					if !want[size][s] || seen[s] {
						t.Fatalf("trial %d: census size %d holds %v (connected of that size: %v, repeated: %v)",
							trial, size, s, want[size][s], seen[s])
					}
					seen[s] = true
				}
				if len(seen) != len(want[size]) {
					t.Fatalf("trial %d: census holds %d sets of size %d, %d are connected", trial, len(seen), size, len(want[size]))
				}
			}
		}
	}
}

// TestCensusAllocatesNothingOnAWorkspace: the census walk's frames and the
// buckets are the workspace's, so a census on one that has collected a
// census of the same graph before allocates nothing.
func TestCensusAllocatesNothingOnAWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, g := range []*graph.Graph{graph.Star(12), graph.Clique(10), graph.RandomConnected(14, 8, rng)} {
		ws := new(Workspace)
		dl := NewDeadline(noDeadline())
		connectedSetsBySize(g, dl, ws)
		if allocs := testing.AllocsPerRun(5, func() { connectedSetsBySize(g, dl, ws) }); allocs != 0 {
			t.Errorf("%d relations, %d edges: a recycled census allocates %.0f times", g.N, len(g.Edges), allocs)
		}
	}
}

// TestDiracBlockIsOneBlock: whenever the Dirac test holds for a set,
// Hopcroft–Tarjan finds that set to be exactly one block — and the test
// holds often enough on dense random graphs to mean something.
func TestDiracBlockIsOneBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	held := 0
	for trial := 0; trial < 400; trial++ {
		n := 3 + rng.Intn(12)
		g := graph.RandomConnected(n, rng.Intn(n*(n-1)/2), rng)
		for i := 0; i < 50; i++ {
			s := bitset.Mask(rng.Uint64()) & bitset.Full(n)
			if !diracBlock(g, s) {
				continue
			}
			held++
			if blocks := g.FindBlocks(s); len(blocks) != 1 || blocks[0] != s {
				t.Fatalf("%d relations, %d edges: Dirac holds for %v, its blocks are %v", n, len(g.Edges), s, blocks)
			}
		}
	}
	if held < 500 {
		t.Fatalf("the Dirac test held only %d times", held)
	}
	if diracBlock(graph.Cycle(5), bitset.Full(5)) || !diracBlock(graph.Clique(3), bitset.Full(3)) || diracBlock(graph.Clique(2), bitset.Full(2)) {
		t.Error("Dirac test wrong on a 5-cycle, a triangle or an edge")
	}
}
