package heuristic

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/workload"
)

// gooReference is GOO as it was before it kept its contracted graph: every
// merge rebuilds the live contracted edge list from the base edges and
// re-estimates every one of them, and the first strictly smallest result in
// base-edge order wins. Kept as the oracle the incremental GOO is compared
// against.
func gooReference(q *cost.Query, opt Options) (*plan.Node, error) {
	m := opt.model()
	groups, sets := baseScans(q, m)
	type unit struct {
		node *plan.Node
		set  bitset.Set
	}
	units := make([]*unit, len(groups))
	for i := range groups {
		units[i] = &unit{node: groups[i], set: sets[i]}
	}
	owner := make([]int, q.N()) // base relation -> unit index (live or merged)
	for i := range owner {
		owner[i] = -1
	}
	for gi, s := range sets {
		s.ForEach(func(v int) { owner[v] = gi })
	}

	type cEdge struct{ a, b int }
	liveEdges := func() []cEdge {
		seen := map[[2]int]bool{}
		var out []cEdge
		for _, e := range q.G.Edges {
			ga, gb := owner[e.A], owner[e.B]
			if ga < 0 || gb < 0 || ga == gb {
				continue
			}
			if ga > gb {
				ga, gb = gb, ga
			}
			if !seen[[2]int{ga, gb}] {
				seen[[2]int{ga, gb}] = true
				out = append(out, cEdge{ga, gb})
			}
		}
		return out
	}

	live := len(units)
	for live > 1 {
		if err := opt.expiredErr(); err != nil {
			return nil, err
		}
		edges := liveEdges()
		if len(edges) == 0 {
			return nil, ErrDisconnected
		}
		bestRows := 0.0
		bestIdx := -1
		for i, e := range edges {
			ua, ub := units[e.a], units[e.b]
			rows := ua.node.Rows * ub.node.Rows * q.SelBetweenSets(ua.set, ub.set)
			if bestIdx < 0 || rows < bestRows {
				bestRows = rows
				bestIdx = i
			}
		}
		e := edges[bestIdx]
		ua, ub := units[e.a], units[e.b]
		// Keep the smaller input on the right (build side preference).
		l, r := ua, ub
		if l.node.Rows < r.node.Rows {
			l, r = r, l
		}
		join := m.JoinWithRows(q, l.node, r.node, bestRows)
		merged := &unit{node: join, set: ua.set.Union(ub.set)}
		units[e.a] = merged
		units[e.b] = nil
		merged.set.ForEach(func(v int) { owner[v] = e.a })
		live--
	}
	for _, u := range units {
		if u != nil {
			return u.node, nil
		}
	}
	return nil, errNoPlan
}

// samePlan reports the first difference between two plans: shape, leaf
// order, operators, and Rows and Cost bit for bit.
func samePlan(got, want *plan.Node) error {
	if got.IsLeaf() != want.IsLeaf() {
		return fmt.Errorf("leaf against join at rows %v / %v", got.Rows, want.Rows)
	}
	if got.Op != want.Op || got.RelID != want.RelID ||
		math.Float64bits(got.Rows) != math.Float64bits(want.Rows) ||
		math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		return fmt.Errorf("node (op %v rel %d rows %v cost %v), want (op %v rel %d rows %v cost %v)",
			got.Op, got.RelID, got.Rows, got.Cost, want.Op, want.RelID, want.Rows, want.Cost)
	}
	if got.IsLeaf() {
		return nil
	}
	if err := samePlan(got.Left, want.Left); err != nil {
		return err
	}
	return samePlan(got.Right, want.Right)
}

// withStats rebuilds q's join graph under other statistics.
func withStats(q *cost.Query, rows func(catalog.Relation) float64, sel func(graph.Edge) float64) *cost.Query {
	var cat catalog.Catalog
	for _, r := range q.Cat.Rels {
		r.Rows = rows(r)
		cat.Add(r)
	}
	g := graph.New(q.N())
	for _, e := range q.G.Edges {
		g.AddEdge(e.A, e.B, sel(e))
	}
	return &cost.Query{Cat: cat, G: g}
}

// largeQueryFamilies are the shapes and sizes the large-query workloads draw
// from, down to the degenerate ones.
var largeQueryFamilies = []struct {
	kind  workload.Kind
	sizes []int
}{
	{workload.KindChain, []int{2, 3, 15, 60, 250, 1000}},
	{workload.KindCycle, []int{2, 3, 15, 60, 250, 1000}},
	{workload.KindStar, []int{2, 3, 15, 60, 250, 1000}},
	{workload.KindSnowflake, []int{2, 3, 15, 60, 250, 1000}},
	{workload.KindClique, []int{2, 3, 12}},
	{workload.KindMB, []int{2, 3, 15, 56}},
}

// TestGOOMatchesReference: keeping the contracted graph changes no plan. On
// every family the large-query workloads draw from, GOO returns the tree the
// rebuild-everything loop returns — under generated statistics, under
// perturbed ones (workload.Snowflake ignores its rng, so as generated its
// dimensions tie) and under uniform ones, where every estimate of a round
// ties and only the base-edge tie-break decides.
func TestGOOMatchesReference(t *testing.T) {
	for _, f := range largeQueryFamilies {
		for _, n := range f.sizes {
			if n > 250 && testing.Short() {
				continue
			}
			rng := rand.New(rand.NewSource(int64(n)))
			q, err := workload.Generate(f.kind, n, rng)
			if err != nil {
				t.Fatal(err)
			}
			variants := map[string]*cost.Query{
				"generated": q,
				"perturbed": withStats(q,
					func(r catalog.Relation) float64 { return math.Max(1, r.Rows*math.Pow(10, -rng.Float64())) },
					func(e graph.Edge) float64 { return e.Sel * (0.5 + rng.Float64()) }),
				"uniform": withStats(q,
					func(catalog.Relation) float64 { return 1000 },
					func(graph.Edge) float64 { return 1e-3 }),
			}
			for name, q := range variants {
				want, err := gooReference(q, Options{})
				if err != nil {
					t.Fatalf("%s-%d %s: reference: %v", f.kind, n, name, err)
				}
				got, err := GOO(q, Options{})
				if err != nil {
					t.Fatalf("%s-%d %s: %v", f.kind, n, name, err)
				}
				if err := samePlan(got, want); err != nil {
					t.Errorf("%s-%d %s: %v", f.kind, n, name, err)
				}
			}
		}
	}
}

// TestGOOFusedEdgeTieBreak: when a merge fuses two contracted edges into one
// the survivor inherits the lower base-edge index of the two, whichever list
// it came from. Random cyclic graphs with their edges in shuffled order and
// statistics drawn from a handful of values make that index decide: rounds
// tie, and the lower-numbered unit's edge to a common neighbour is often the
// later base edge.
func TestGOOFusedEdgeTieBreak(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(40)
		base := graph.RandomConnected(n, n, rng)
		g := graph.New(n)
		for _, i := range rng.Perm(len(base.Edges)) {
			g.AddEdge(base.Edges[i].A, base.Edges[i].B, []float64{0.1, 0.01}[rng.Intn(2)])
		}
		var cat catalog.Catalog
		for i := 0; i < n; i++ {
			cat.Add(catalog.NewRelation("r", []float64{10, 100, 1000}[rng.Intn(3)], 60))
		}
		q := &cost.Query{Cat: cat, G: g}
		want, err := gooReference(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := GOO(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := samePlan(got, want); err != nil {
			t.Errorf("trial %d (%d relations, %d edges): %v", trial, n, len(g.Edges), err)
		}
	}
}

func TestGOODisconnected(t *testing.T) {
	q := randomQuery(6, 2, rand.New(rand.NewSource(5)))
	g := graph.New(8) // relations 6 and 7 join each other and nothing else
	for _, e := range q.G.Edges {
		g.AddEdge(e.A, e.B, e.Sel)
	}
	g.AddEdge(6, 7, 0.01)
	q.Cat.Add(catalog.NewRelation("x", 100, 60))
	q.Cat.Add(catalog.NewRelation("y", 100, 60))
	q.G = g
	if _, err := GOO(q, Options{}); !errors.Is(err, ErrDisconnected) {
		t.Errorf("GOO on a disconnected graph: %v, want ErrDisconnected", err)
	}
}

func TestGOOCancelledBeforeCall(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := randomQuery(6, 2, rand.New(rand.NewSource(5)))
	if _, err := GOO(q, Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("GOO under a cancelled context: %v, want context.Canceled", err)
	}
}
