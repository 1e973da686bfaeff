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
	return q, wrappedLeaves(cat, hub, rng)
}

// wrappedLeaves is every relation of cat as a leaf wrapper, as IDP2 hands
// its units in, and the hub as a composite plan.
func wrappedLeaves(cat catalog.Catalog, hub int, rng *rand.Rand) []*plan.Node {
	leaves := make([]*plan.Node, len(cat.Rels))
	for i := range leaves {
		leaves[i] = &plan.Node{RelID: i, Rows: cat.Rels[i].Rows, Cost: cat.Rels[i].Rows * (0.5 + rng.Float64())}
	}
	h := leaves[hub]
	scan := func(rows float64) *plan.Node { return &plan.Node{RelID: hub, Rows: rows, Cost: rows / 100} }
	leaves[hub] = &plan.Node{RelID: hub, Op: plan.OpHashJoin, Rows: h.Rows, Cost: 2 * h.Cost, Left: scan(h.Rows), Right: scan(1)}
	return leaves
}

// randomSpider is a spider with arms of the given lengths, its relations
// numbered at random and its edges added in a random order, so that g.Edges
// interleaves the arms and lists an edge's end nearer the hub first or
// second. Its statistics are one of randomStar's two regimes, and with
// wrapped set its leaves are IDP2's wrappers around a composite hub. It
// returns the hub too.
func randomSpider(arms []int, wrapped bool, rng *rand.Rand) (*cost.Query, []*plan.Node, int) {
	n := 1
	for _, l := range arms {
		n += l
	}
	label := rng.Perm(n) // label[0] is the hub
	var edges [][2]int
	for v, arm := 1, 0; arm < len(arms); arm++ {
		for d := 0; d < arms[arm]; d, v = d+1, v+1 {
			inner := 0
			if d > 0 {
				inner = v - 1
			}
			edges = append(edges, [2]int{label[inner], label[v]})
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
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
	for _, e := range edges {
		sel := 1.0
		if !ties {
			sel = math.Pow(10, -1-4*rng.Float64())
		}
		g.AddEdge(e[0], e[1], sel)
	}
	q := &cost.Query{Cat: cat, G: g}
	if !wrapped {
		return q, nil, label[0]
	}
	return q, wrappedLeaves(cat, label[0], rng), label[0]
}

// starSets returns the connected sets and the pairs (Stats.Evaluated) of a
// star of n relations: 2^(n−1) + n − 1 sets, two pairs per edge of each.
func starSets(n int) (sets, pairs uint64) {
	m := uint64(n - 1)
	return 1<<m + m, m << m
}

// TestStarLatticeMatchesMPDPTree: the spider lattice on a star, its radix-2
// case, is Algorithm 2 by other means — no census, no table, unranked levels
// — so it must return what the census path (MPDPTree, EvaluateSetMPDPTree
// behind RunLevels at one worker) returns: the same tree node for node, cost and cardinality
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
		hub, ok := spiderHub(q.G)
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
			got, gotStats, err := RunMPDP(in, workers, nil)
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

// spiderTaken reports whether MPDP takes g to the spider lattice, and
// around which hub: a spider (spiderHub) that the lattice can lay out.
func spiderTaken(g *graph.Graph) (int, bool) {
	hub, ok := spiderHub(g)
	return hub, ok && new(spiderLattice).layout(g, hub)
}

// TestStarLatticeTakesOnlyStars: the graph alone selects the lattice. A
// star of any orientation is taken around its centre; a star with one extra
// edge, a lone relation and a star past what the census could hold are not.
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
		{"relation", graph.New(1), 0, false},
	} {
		hub, ok := spiderTaken(tc.g)
		if ok != tc.ok || ok && hub != tc.hub {
			t.Errorf("%s: hub %d (%v), want %d (%v)", tc.name, hub, ok, tc.hub, tc.ok)
		}
	}
	g := star(6, 0)
	g.AddEdge(1, 2, 0.1)
	if _, ok := spiderTaken(g); ok {
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
	failing := topoQuery(graph.Star(17), rng)
	sets, _ := starSets(failing.N())
	checkStopsMidLevel(t, failing, uint64(failing.N())+16+120+560+1, sets,
		[]*cost.Query{topoQuery(graph.Star(13), rng), failing, topoQuery(graph.Clique(9), rng)})
}

// checkStopsMidLevel runs failing at 1, 2 and 4 workers on one workspace,
// once with its budget spent and once with its context cancelled before the
// run began: each must return no plan and the census path's error, having
// counted at least early and fewer than all connected sets, with no helper
// left running, and the runs of after that follow on the same workspace
// must be the census path's bit for bit.
func checkStopsMidLevel(t *testing.T, failing *cost.Query, early, all uint64, after []*cost.Query) {
	t.Helper()
	m := cost.DefaultModel()
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
			p, st, err := RunMPDP(in, workers, nil)
			cancel(nil)
			what := fmt.Sprintf("%d workers, %s", workers, mode)
			if !errors.Is(err, want) || !errors.Is(censusErr, want) || p != nil {
				t.Fatalf("%s: plan %v, err %v, census path %v; want no plan and %v", what, p != nil, err, censusErr, want)
			}
			if st.ConnectedSets < early || st.ConnectedSets >= all {
				t.Errorf("%s: the stopped run counts %d connected sets, want at least %d and fewer than all %d", what, st.ConnectedSets, early, all)
			}
			if left := levelHelpers(time.Second); len(left) != 0 {
				t.Fatalf("%s: %d helpers outlived the run: %v", what, len(left), left)
			}
			for _, q := range after {
				want, wantStats, err := referenceMPDP(Input{Q: q, M: m})
				if err != nil {
					t.Fatal(err)
				}
				got, gotStats, err := RunMPDP(Input{Q: q, M: m, Workspace: ws}, workers, nil)
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

// TestSpiderLatticeLanes: the lanes are the workspace's and count against
// its retention bound like table slots, one per hub set. A star-18 has 2^17
// hub sets and a snowflake-30 156 250: a warm workspace (2^18) keeps the
// lanes of either, so the next star-18, under other statistics, allocates
// its base plans and little else, while a plain one (2^16) lets them go when
// the run returns and allocates them again; a snowflake-28's 62 500 it
// keeps. Every run returns the census path's plan.
func TestSpiderLatticeLanes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight star-18s")
	}
	rng := rand.New(rand.NewSource(46))
	m := cost.DefaultModel()
	warm, plain := NewWarmWorkspace(), new(Workspace)
	run := func(kind workload.Kind, n int, ws *Workspace) uint64 {
		t.Helper()
		q, err := workload.Generate(kind, n, rng)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := MPDPTree(Input{Q: q, M: m})
		if err != nil {
			t.Fatal(err)
		}
		got, bytes := runBytes(t, MPDP, Input{Q: q, M: m, Workspace: ws})
		if err := sameTree(got, want); err != nil {
			t.Fatalf("%s-%d, warm=%v: %v", kind, n, ws.warm, err)
		}
		return bytes
	}
	lanes := func(what string, ws *Workspace, want int) {
		t.Helper()
		if got := cap(ws.spider.cost); got != want {
			t.Fatalf("after a %s, warm=%v: the workspace kept lanes for %d hub sets, want %d (bound %d)", what, ws.warm, got, want, ws.retained())
		}
	}
	var warmBytes, plainBytes uint64
	for round := 0; round < 2; round++ {
		warmBytes, plainBytes = run(workload.KindStar, 18, warm), run(workload.KindStar, 18, plain)
		lanes("star-18", warm, 1<<17)
		lanes("star-18", plain, 0)
	}
	t.Logf("the second star-18: %d B on a warm workspace, %d B on a plain one", warmBytes, plainBytes)
	if warmBytes > 16<<10 {
		t.Errorf("a star-18 on a warm workspace that ran one before allocated %d B, want ≤ 16 KB", warmBytes)
	}
	if plainBytes < 3<<20 {
		t.Errorf("a star-18 on a plain workspace allocated only %d B: the test no longer sees the lanes regrow", plainBytes)
	}
	for _, ws := range []*Workspace{warm, plain} {
		run(workload.KindSnowflake, 30, ws)
	}
	lanes("snowflake-30", warm, 156250)
	lanes("snowflake-30", plain, 0)
	run(workload.KindSnowflake, 28, plain)
	lanes("snowflake-28", plain, 62500)
}

// TestSpiderLatticeMatchesMPDPTree: on any spider the lattice returns what
// the census path (MPDPTree) returns — the same tree node for node, cost and
// cardinality bits included, and the same counters. Random spiders of 1 to 8
// arms of 1 to 6 relations (at most 20 000 hub sets), the hub anywhere, the
// arms' edges interleaved in g.Edges, plain scans and IDP2's wrapper leaves
// around a composite hub, statistics with and without ties; at 1, 2 and 4
// workers, half of them on one workspace that every run leaves dirty.
func TestSpiderLatticeMatchesMPDPTree(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m := cost.DefaultModel()
	ws := new(Workspace)
	spiders := 60
	if testing.Short() {
		spiders = 20
	}
	for i := 0; i < spiders; i++ {
		var arms []int
		for hubSets := 0; hubSets == 0 || hubSets > 20000; {
			arms, hubSets = make([]int, 1+rng.Intn(8)), 1
			for a := range arms {
				arms[a] = 1 + rng.Intn(6)
				hubSets *= arms[a] + 1
			}
		}
		q, leaves, hub := randomSpider(arms, i%3 == 2, rng)
		in := Input{Q: q, M: m, Leaves: leaves}
		what := fmt.Sprintf("spider %d (arms %v, hub %d, wrapped %v)", i, arms, hub, leaves != nil)
		if got, ok := spiderTaken(q.G); !ok || len(arms) >= 3 && got != hub {
			t.Fatalf("%s: taken %v around %d", what, ok, got)
		}
		want, wantStats, err := MPDPTree(in)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			in.Workspace = ws
		}
		for _, workers := range []int{1, 2, 4} {
			got, gotStats, err := RunMPDP(in, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameTree(got, want); err != nil {
				t.Fatalf("%s, %d workers: %v", what, workers, err)
			}
			if gotStats != wantStats {
				t.Fatalf("%s, %d workers: counts %+v, the census path %+v", what, workers, gotStats, wantStats)
			}
		}
	}
}

// TestSpiderLatticeTakesOnlySpiders: a tree with at most one relation of
// degree three or more is taken around the relation of the highest degree,
// the lowest-numbered on a tie — a chain around an inner relation, a
// snowflake around its fact table wherever it is numbered — unless it has
// more connected sets than the census materializes; a tree with two such
// relations, a cycle and a disconnected graph are not.
func TestSpiderLatticeTakesOnlySpiders(t *testing.T) {
	relabel := func(g *graph.Graph, perm []int) *graph.Graph {
		out := graph.New(g.N)
		for _, e := range g.Edges {
			out.AddEdge(perm[e.A], perm[e.B], e.Sel)
		}
		return out
	}
	perm := rand.New(rand.NewSource(48)).Perm(23)
	twoHubs := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {3, 4}, {3, 5}} {
		twoHubs.AddEdge(e[0], e[1], 0.1)
	}
	split := graph.New(4) // a triangle and a lone relation: n − 1 edges, no tree
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		split.AddEdge(e[0], e[1], 0.1)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		hub  int
		ok   bool
	}{
		{"chain-2", graph.Chain(2), 0, true},
		{"chain-4", graph.Chain(4), 1, true},
		{"chain-64", graph.Chain(64), 1, true},
		{"snowflake-28", graph.SnowflakeN(28, 4), 0, true},
		{"relabelled snowflake-23", relabel(graph.SnowflakeN(23, 4), perm), perm[0], true},
		{"snowflake-45", graph.SnowflakeN(45, 4), 0, true},  // 5^11 + 110 sets
		{"snowflake-46", graph.SnowflakeN(46, 4), 0, false}, // 2·5^11 + 111 sets
		{"two branch relations", twoHubs, 0, false},
		{"cycle-5", graph.Cycle(5), 0, false},
		{"triangle and a relation", split, 0, false},
	} {
		hub, ok := spiderTaken(tc.g)
		if ok != tc.ok || ok && hub != tc.hub {
			t.Errorf("%s: hub %d (%v), want %d (%v)", tc.name, hub, ok, tc.hub, tc.ok)
		}
	}
}

// TestSpiderLatticeStopsMidLevel: a spider run polls its workers' deadlines
// per pair, so a run whose budget has passed, or whose context was
// cancelled, before it began stops at its workers' first poll, 8 192 pairs
// into each worker's run — past the first two levels of a snowflake-26 and
// well before its last — with the error the census path returns, no plan
// and no helper left running. The runs that follow on the same workspace,
// the failed query among them, are the census path's bit for bit.
func TestSpiderLatticeStopsMidLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	failing := topoQuery(graph.SnowflakeN(26, 4), rng)
	var lat spiderLattice
	if !lat.layout(failing.G, 0) {
		t.Fatal("a snowflake-26 is not laid out")
	}
	early, all := uint64(failing.N()+lat.sets(2)+lat.sets(3)), uint64(failing.N())
	for size := 2; size <= failing.N(); size++ {
		all += uint64(lat.sets(size))
	}
	checkStopsMidLevel(t, failing, early, all,
		[]*cost.Query{topoQuery(graph.SnowflakeN(20, 4), rng), failing, topoQuery(graph.Clique(9), rng)})
}
