package dp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/workload"
)

// randomStar is a star of n relations whose hub is a random relation and
// whose edges are added in a random order, so that g.Edges lists the hub
// first or second (graph.AddEdge keeps A < B) and the dimensions in an order
// of their own. Each query draws one statistics regime: spread rows and
// selectivities, or rows from 0.1 to 10 joined at selectivity one, where
// estimates fall below one row and equal-cost splits are everywhere. Half of
// the dimensions have a primary-key index. With wrapped set, every relation
// comes as a leaf wrapper as IDP2 hands its units in (relation id and
// statistics, no children), and the hub as a composite plan — the previous
// window's temporary, which no index nested loop can probe.
func randomStar(n int, wrapped bool, rng *rand.Rand) (*cost.Query, []*plan.Node) {
	hub := rng.Intn(n)
	ties := rng.Intn(2) == 0
	var cat catalog.Catalog
	for i := 0; i < n; i++ {
		rows := math.Pow(10, 1+5*rng.Float64())
		if ties {
			rows = math.Pow(10, float64(rng.Intn(3)-1))
		}
		r := catalog.NewRelation(fmt.Sprintf("r%d", i), rows, 40)
		r.HasPKIndex = rng.Intn(2) == 0
		cat.Add(r)
	}
	g := graph.New(n)
	for _, d := range rng.Perm(n) {
		if d == hub {
			continue
		}
		sel := 1.0
		if !ties {
			sel = math.Pow(10, -1-4*rng.Float64())
		}
		if rng.Intn(2) == 0 {
			g.AddEdge(hub, d, sel)
		} else {
			g.AddEdge(d, hub, sel)
		}
	}
	q := &cost.Query{Cat: cat, G: g}
	if !wrapped {
		return q, nil
	}
	leaves := make([]*plan.Node, n)
	for i := range leaves {
		leaves[i] = &plan.Node{RelID: i, Rows: cat.Rels[i].Rows, Cost: cat.Rels[i].Rows * (0.5 + rng.Float64())}
	}
	h := leaves[hub]
	scan := func(rows float64) *plan.Node { return &plan.Node{RelID: hub, Rows: rows, Cost: rows / 100} }
	leaves[hub] = &plan.Node{RelID: hub, Op: plan.OpHashJoin, Rows: h.Rows, Cost: 2 * h.Cost, Left: scan(h.Rows), Right: scan(1)}
	return q, leaves
}

// starSets returns the connected sets and the pairs (Stats.Evaluated) of a
// star of n relations: 2^(n−1) + n − 1 sets, two pairs per edge of each.
func starSets(n int) (sets, pairs uint64) {
	m := uint64(n - 1)
	return 1<<m + m, m << m
}

// TestStarLatticeMatchesMPDPTree: the star lattice is Algorithm 2 on a star
// by other means — no census, no table, unranked levels — so it must return
// what the census path (MPDPTree, EvaluateSetMPDPTree behind RunLevels at
// one worker) returns: the same tree node for node, cost and cardinality
// bits included, and the same counters, which on a star are closed-form:
// 2^(n−1) + n − 1 connected sets and 2 pairs per edge of each. Random stars
// of 2 to 18 relations, the hub anywhere, edges in any order and either
// orientation, plain scans and IDP2's wrapper leaves around a composite hub,
// statistics with and without ties; at 1, 2 and 4 workers, half of them on
// one workspace that every run leaves dirty.
func TestStarLatticeMatchesMPDPTree(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m := cost.DefaultModel()
	ws := new(Workspace)
	sizes := []int{2, 3, 4, 18, 17, 16}
	for i := 0; i < 60; i++ {
		sizes = append(sizes, 2+rng.Intn(13))
	}
	if testing.Short() {
		sizes = sizes[:20]
	}
	for i, n := range sizes {
		q, leaves := randomStar(n, i%3 == 2, rng)
		in := Input{Q: q, M: m, Leaves: leaves}
		hub, ok := starHub(q.G)
		if !ok || q.G.AdjMask(hub).Count() != n-1 {
			t.Fatalf("star %d of %d relations: no hub found", i, n)
		}
		want, wantStats, err := MPDPTree(in)
		if err != nil {
			t.Fatal(err)
		}
		sets, pairs := starSets(n)
		if wantStats != (Stats{Evaluated: pairs, CCP: pairs, ConnectedSets: sets}) {
			t.Fatalf("star %d of %d relations: the census path counts %+v, want %d sets and %d pairs", i, n, wantStats, sets, pairs)
		}
		if i%2 == 1 {
			in.Workspace = ws
		}
		for _, workers := range []int{1, 2, 4} {
			got, gotStats, err := RunMPDP(in, workers)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("star %d of %d relations (hub %d, wrapped %v), %d workers", i, n, hub, leaves != nil, workers)
			if err := sameTree(got, want); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if gotStats != wantStats {
				t.Fatalf("%s: counts %+v, the census path %+v", what, gotStats, wantStats)
			}
		}
	}
}

// TestStarLatticeTakesOnlyStars: the graph alone selects the lattice. A
// star of any orientation is taken; a tree with one vertex off the hub's
// neighbourhood, a star with one extra edge, a lone relation and a star past
// what the census could hold are not.
func TestStarLatticeTakesOnlyStars(t *testing.T) {
	star := func(n, hub int) *graph.Graph {
		g := graph.New(n)
		for v := 0; v < n; v++ {
			if v != hub {
				g.AddEdge(v, hub, 0.1)
			}
		}
		return g
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		hub  int
		ok   bool
	}{
		{"star-2", star(2, 1), 0, true},
		{"star-3 hub 1", star(3, 1), 1, true},
		{"star-14 hub 13", star(14, 13), 13, true},
		{"star-26", star(26, 5), 5, true},
		{"star-27", star(27, 0), 0, false},
		{"star-64", star(64, 63), 0, false},
		{"chain-4", graph.Chain(4), 0, false},
		{"relation", graph.New(1), 0, false},
	} {
		hub, ok := starHub(tc.g)
		if ok != tc.ok || ok && hub != tc.hub {
			t.Errorf("%s: hub %d (%v), want %d (%v)", tc.name, hub, ok, tc.hub, tc.ok)
		}
	}
	g := star(6, 0)
	g.AddEdge(1, 2, 0.1)
	if _, ok := starHub(g); ok {
		t.Error("a star with an edge between two dimensions was taken")
	}
}

// TestStarLatticeStopsMidLevel: a star run polls its workers' deadlines per
// pair, as the census path does, so a run whose budget has passed, or whose
// context was cancelled, before it began stops at its workers' first poll,
// 8 192 pairs into each worker's run — inside the fourth to sixth level of a
// star-17, by the worker count — with the error the census path returns, no
// plan and no helper left running. The runs that follow on the
// same workspace, the failed query among them, are the census path's bit
// for bit.
func TestStarLatticeStopsMidLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	m := cost.DefaultModel()
	failing := topoQuery(graph.Star(17), rng)
	after := []*cost.Query{topoQuery(graph.Star(13), rng), failing, topoQuery(graph.Clique(9), rng)}
	ws := new(Workspace)
	for _, workers := range []int{1, 2, 4} {
		for _, mode := range []string{"deadline", "cancelled"} {
			ctx, cancel := context.WithCancelCause(context.Background())
			in := Input{Q: failing, M: m, Workspace: ws}
			var want error
			switch mode {
			case "deadline":
				in.Ctx, want = spentBudget(), ErrTimeout
			case "cancelled":
				want = errors.New("stop")
				in.Ctx = ctx
				cancel(want)
			}
			_, _, censusErr := MPDPTree(in)
			p, st, err := RunMPDP(in, workers)
			cancel(nil)
			what := fmt.Sprintf("%d workers, %s", workers, mode)
			if !errors.Is(err, want) || !errors.Is(censusErr, want) || p != nil {
				t.Fatalf("%s: plan %v, err %v, census path %v; want no plan and %v", what, p != nil, err, censusErr, want)
			}
			sets, _ := starSets(failing.N())
			if st.ConnectedSets <= uint64(failing.N())+16+120+560 || st.ConnectedSets >= sets {
				t.Errorf("%s: the stopped run counts %d connected sets: it did not stop past the third level and before the last", what, st.ConnectedSets)
			}
			if left := levelHelpers(time.Second); len(left) != 0 {
				t.Fatalf("%s: %d helpers outlived the run: %v", what, len(left), left)
			}
			for _, q := range after {
				want, wantStats, err := referenceMPDP(Input{Q: q, M: m})
				if err != nil {
					t.Fatal(err)
				}
				got, gotStats, err := RunMPDP(Input{Q: q, M: m, Workspace: ws}, workers)
				if err != nil {
					t.Fatalf("after %s: %v", what, err)
				}
				if d := sameRun(got, gotStats, want, wantStats); d != nil {
					t.Errorf("after %s, %d relations: %v", what, q.N(), d)
				}
			}
		}
	}
}

// TestStarLatticeWorkspace: the lanes are the workspace's and count against
// its retention bound like table slots. A star-18 has 2^17 sets: a warm
// workspace (2^18) keeps its lanes, so the next star-18, under other
// statistics, allocates its base plans and little else, while a plain one
// (2^16) lets them go when the run returns and allocates them again. Both
// return the census path's plans.
func TestStarLatticeWorkspace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight star-18s")
	}
	rng := rand.New(rand.NewSource(46))
	m := cost.DefaultModel()
	warm, plain := NewWarmWorkspace(), new(Workspace)
	var warmBytes, plainBytes uint64
	for round := 0; round < 2; round++ {
		q, err := workload.Generate(workload.KindStar, 18, rng)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := MPDPTree(Input{Q: q, M: m})
		if err != nil {
			t.Fatal(err)
		}
		for _, ws := range []*Workspace{warm, plain} {
			got, bytes := runBytes(t, MPDP, Input{Q: q, M: m, Workspace: ws})
			if err := sameTree(got, want); err != nil {
				t.Fatalf("round %d, warm=%v: %v", round, ws.warm, err)
			}
			if ws == warm {
				warmBytes = bytes
			} else {
				plainBytes = bytes
			}
		}
		if got := warm.star.capacity(); got != 1<<17 {
			t.Fatalf("round %d: the warm workspace kept lanes for %d sets, want a star-18's %d", round, got, 1<<17)
		}
		if got := plain.star.capacity(); got != 0 {
			t.Fatalf("round %d: a plain workspace kept lanes for %d sets past its bound %d", round, got, retainSlots)
		}
	}
	t.Logf("the second star-18: %d B on a warm workspace, %d B on a plain one", warmBytes, plainBytes)
	if warmBytes > 16<<10 {
		t.Errorf("a star-18 on a warm workspace that ran one before allocated %d B, want ≤ 16 KB", warmBytes)
	}
	if plainBytes < 3<<20 {
		t.Errorf("a star-18 on a plain workspace allocated only %d B: the test no longer sees the lanes regrow", plainBytes)
	}
}
