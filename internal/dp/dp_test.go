package dp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/plan"
)

// randomQuery builds a random connected query with random statistics.
func randomQuery(n, extraEdges int, rng *rand.Rand) *cost.Query {
	g := graph.RandomConnected(n, extraEdges, rng)
	for i := range g.Edges {
		g.Edges[i].Sel = math.Pow(10, -1-3*rng.Float64())
	}
	// Rebuild the selectivity index to match mutated edges.
	g2 := graph.New(n)
	for _, e := range g.Edges {
		g2.AddEdge(e.A, e.B, e.Sel)
	}
	var cat catalog.Catalog
	for i := 0; i < n; i++ {
		r := catalog.NewRelation("r", math.Pow(10, 1+4*rng.Float64()), 40+rng.Intn(100))
		r.HasPKIndex = rng.Intn(2) == 0
		cat.Add(r)
	}
	return &cost.Query{Cat: cat, G: g2}
}

func topoQuery(g *graph.Graph, rng *rand.Rand) *cost.Query {
	var cat catalog.Catalog
	for i := 0; i < g.N; i++ {
		r := catalog.NewRelation("r", math.Pow(10, 1+4*rng.Float64()), 50)
		r.HasPKIndex = true
		cat.Add(r)
	}
	g2 := graph.New(g.N)
	for _, e := range g.Edges {
		g2.AddEdge(e.A, e.B, math.Pow(10, -1-3*rng.Float64()))
	}
	return &cost.Query{Cat: cat, G: g2}
}

// bruteForce is an independent reference optimizer: memoized recursion over
// all bipartitions of each connected set.
func bruteForce(q *cost.Query, m *cost.Model) *plan.Node {
	n := q.N()
	memo := map[bitset.Mask]*plan.Node{}
	var best func(s bitset.Mask) *plan.Node
	best = func(s bitset.Mask) *plan.Node {
		if p, ok := memo[s]; ok {
			return p
		}
		if s.Count() == 1 {
			p := m.Scan(q, s.Lowest())
			memo[s] = p
			return p
		}
		var b *plan.Node
		for lb := s.LowestBit(); !lb.Empty(); lb = lb.NextSubset(s) {
			rb := s.Diff(lb)
			if rb.Empty() || !q.G.Connected(lb) || !q.G.Connected(rb) || !q.G.ConnectedTo(lb, rb) {
				continue
			}
			l, r := best(lb), best(rb)
			if l == nil || r == nil {
				continue
			}
			if j := m.JoinWithRows(q, l, r, l.Rows*r.Rows*q.SelBetween(lb, rb)); b == nil || j.Cost < b.Cost {
				b = j
			}
		}
		memo[s] = b
		return b
	}
	return best(bitset.Full(n))
}

var allAlgorithms = []struct {
	name string
	f    Func
}{
	{"DPSize", DPSize},
	{"DPSub", DPSub},
	{"DPCCP", DPCCP},
	{"MPDP", MPDP},
	{"MPDPGeneral", MPDPGeneral},
}

func almostEqual(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	return diff <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func TestAllAlgorithmsAgreeOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := cost.DefaultModel()
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(9)
		extra := rng.Intn(n)
		q := randomQuery(n, extra, rng)
		ref := bruteForce(q, m)
		if ref == nil {
			t.Fatalf("trial %d: brute force found no plan", trial)
		}
		for _, alg := range allAlgorithms {
			p, _, err := alg.f(Input{Q: q, M: m})
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, alg.name, err)
			}
			if !almostEqual(p.Cost, ref.Cost) {
				t.Errorf("trial %d (n=%d extra=%d): %s cost %.6f, brute force %.6f",
					trial, n, extra, alg.name, p.Cost, ref.Cost)
			}
			if err := p.Validate(allRels(n)); err != nil {
				t.Errorf("trial %d: %s produced invalid plan: %v", trial, alg.name, err)
			}
			if !almostEqual(p.Rows, ref.Rows) {
				t.Errorf("trial %d: %s rows %.3f, want %.3f", trial, alg.name, p.Rows, ref.Rows)
			}
		}
	}
}

func allRels(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestCCPCountersAgreeAcrossAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := cost.DefaultModel()
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(9)
		q := randomQuery(n, rng.Intn(n), rng)
		var want uint64
		for i, alg := range allAlgorithms {
			_, st, err := alg.f(Input{Q: q, M: m})
			if err != nil {
				t.Fatalf("%s: %v", alg.name, err)
			}
			if i == 0 {
				want = st.CCP
				continue
			}
			if st.CCP != want {
				t.Errorf("trial %d: %s CCP=%d, %s CCP=%d", trial, alg.name, st.CCP, allAlgorithms[0].name, want)
			}
		}
		cnt, err := CCPCount(Input{Q: q, M: m})
		if err != nil {
			t.Fatal(err)
		}
		if cnt != want {
			t.Errorf("trial %d: CCPCount=%d, want %d", trial, cnt, want)
		}
	}
}

func TestMPDPTreeMeetsLowerBound(t *testing.T) {
	// Theorem 3: on tree join graphs EvaluatedCounter == CCPCounter.
	rng := rand.New(rand.NewSource(3))
	m := cost.DefaultModel()
	graphs := []*graph.Graph{
		graph.Star(8), graph.Chain(9), graph.SnowflakeN(10, 3),
		graph.RandomTree(11, rng),
	}
	for _, g := range graphs {
		q := topoQuery(g, rng)
		_, st, err := MPDP(Input{Q: q, M: m})
		if err != nil {
			t.Fatal(err)
		}
		if st.Evaluated != st.CCP {
			t.Errorf("tree graph n=%d: Evaluated=%d != CCP=%d", g.N, st.Evaluated, st.CCP)
		}
	}
}

func TestMPDPCliqueMeetsLowerBound(t *testing.T) {
	// Lemma 9: fully-connected blocks make every evaluated pair a CCP pair.
	rng := rand.New(rand.NewSource(4))
	m := cost.DefaultModel()
	for _, n := range []int{3, 5, 7} {
		q := topoQuery(graph.Clique(n), rng)
		_, st, err := MPDPGeneral(Input{Q: q, M: m})
		if err != nil {
			t.Fatal(err)
		}
		if st.Evaluated != st.CCP {
			t.Errorf("clique n=%d: Evaluated=%d != CCP=%d", n, st.Evaluated, st.CCP)
		}
	}
}

func TestMPDPEvaluatesFarFewerPairsThanDPSubOnStar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := cost.DefaultModel()
	q := topoQuery(graph.Star(14), rng)
	_, stSub, err := DPSub(Input{Q: q, M: m})
	if err != nil {
		t.Fatal(err)
	}
	_, stMPDP, err := MPDP(Input{Q: q, M: m})
	if err != nil {
		t.Fatal(err)
	}
	if stMPDP.Evaluated > stSub.Evaluated/10 {
		t.Errorf("expected order-of-magnitude gap: MPDP=%d DPSub=%d", stMPDP.Evaluated, stSub.Evaluated)
	}
	if stMPDP.CCP != stSub.CCP {
		t.Errorf("CCP mismatch: %d vs %d", stMPDP.CCP, stSub.CCP)
	}
}

func TestDisconnectedGraphRejected(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 0.1)
	g.AddEdge(2, 3, 0.1)
	q := &cost.Query{Cat: catalog.UniformCatalog(4), G: g}
	for _, alg := range allAlgorithms {
		if _, _, err := alg.f(Input{Q: q, M: cost.DefaultModel()}); err != ErrDisconnected {
			t.Errorf("%s: got %v, want ErrDisconnected", alg.name, err)
		}
	}
}

func TestSingleRelationQuery(t *testing.T) {
	q := &cost.Query{Cat: catalog.UniformCatalog(1), G: graph.New(1)}
	for _, alg := range allAlgorithms {
		p, _, err := alg.f(Input{Q: q, M: cost.DefaultModel()})
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		if !p.IsLeaf() || p.RelID != 0 {
			t.Errorf("%s: expected single scan, got %v", alg.name, p)
		}
	}
}

func TestCustomLeavesRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	q := randomQuery(5, 2, rng)
	m := cost.DefaultModel()
	leaves := make([]*plan.Node, 5)
	for i := range leaves {
		leaves[i] = &plan.Node{RelID: i, Rows: q.Rows(i), Cost: 12345 + float64(i)}
	}
	p, _, err := MPDP(Input{Q: q, M: m, Leaves: leaves})
	if err != nil {
		t.Fatal(err)
	}
	// Total cost must include each custom leaf cost exactly once.
	var leafSum float64
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if n.IsLeaf() {
			leafSum += n.Cost
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(p)
	want := 12345.0*5 + 0 + 1 + 2 + 3 + 4
	if math.Abs(leafSum-want) > 1e-6 {
		t.Errorf("leaf cost sum %.1f, want %.1f", leafSum, want)
	}
}

func TestTimeout(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	q := topoQuery(graph.Clique(16), rng)
	spent := spentBudget()
	for _, alg := range allAlgorithms {
		_, _, err := alg.f(Input{Q: q, M: cost.DefaultModel(), Ctx: spent})
		if err != ErrTimeout {
			t.Errorf("%s: got %v, want ErrTimeout", alg.name, err)
		}
	}
}

// testStarQuery builds an n-relation star: vertex 0 is the hub, so the
// connected-set lattice has ~2^(n-1) members.
func testStarQuery(t *testing.T, n int) *cost.Query {
	t.Helper()
	var cat catalog.Catalog
	for i := 0; i < n; i++ {
		cat.Add(catalog.NewRelation(fmt.Sprintf("r%d", i), 1000, 32))
	}
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i, 0.001)
	}
	return &cost.Query{Cat: cat, G: g}
}

// TestConnectedBucketsHonorsDeadline: a hub-heavy graph's connected-set
// lattice is ~2^(n-1); once the deadline trips, the enumeration must
// abort instead of walking the remaining lattice (the GPU band routes
// graphs up to 41 relations here, where a non-aborting walk takes hours).
func TestConnectedBucketsHonorsDeadline(t *testing.T) {
	q := testStarQuery(t, 30)
	ctx, cancel := context.WithTimeoutCause(context.Background(), 30*time.Millisecond, ErrTimeout)
	defer cancel()
	in := Input{Q: q, M: cost.DefaultModel(), Ctx: ctx}
	start := time.Now()
	_, err := ConnectedBuckets(in)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// Generous bound: the abort happens at the next sparse deadline poll,
	// not after the full 2^29 walk (which takes minutes).
	if elapsed > 5*time.Second {
		t.Errorf("enumeration ran %v past a 30ms deadline", elapsed)
	}
}

// TestCsgWalkVisitsEachConnectedSubsetOnce checks the block-confined walk
// against the definition: over random graphs and random vertex subsets
// (connected or not — a walk confined to a disconnected subset must still
// stay inside each component), next hands out exactly the subsets of
// within that induce a connected subgraph, each once.
func TestCsgWalkVisitsEachConnectedSubsetOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	var w csgWalk
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(11)
		g := graph.RandomConnected(n, rng.Intn(2*n), rng)
		within := bitset.Mask(rng.Uint64()) & bitset.Full(n)
		if trial%4 == 0 {
			within = bitset.Full(n)
		}
		seen := map[bitset.Mask]int{}
		w.start(g, within)
		for s := w.next(); !s.Empty(); s = w.next() {
			seen[s]++
		}
		want := 0
		for s := within.LowestBit(); !s.Empty(); s = s.NextSubset(within) {
			if !g.Connected(s) {
				continue
			}
			want++
			if seen[s] != 1 {
				t.Fatalf("trial %d: connected subset %v of %v visited %d times", trial, s, within, seen[s])
			}
		}
		if len(seen) != want {
			t.Fatalf("trial %d: walk of %v visited %d sets, %d are connected", trial, within, len(seen), want)
		}
	}
}

// TestDeadlinePollsSparselyAndStaysTripped pins Expired's contract around
// its countdown fast path: nothing is polled before the
// deadlinePollInterval-th call, a tripped checker answers true on every
// later call, Err names the cause, and a checker with nothing to watch —
// the zero value included — never trips.
func TestDeadlinePollsSparselyAndStaysTripped(t *testing.T) {
	cause := errors.New("caller went away")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	past, stopPast := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer stopPast()
	budgeted, stopBudget := context.WithTimeoutCause(past, time.Hour, ErrTimeout)
	defer stopBudget()
	for _, tc := range []struct {
		name string
		dl   *Deadline
		want error
	}{
		{"spent budget", (&Input{Ctx: spentBudget()}).NewDeadline(), ErrTimeout},
		{"cancelled context", (&Input{Ctx: ctx}).NewDeadline(), cause},
		{"the caller's deadline comes first", (&Input{Ctx: budgeted}).NewDeadline(), context.DeadlineExceeded},
	} {
		for i := 1; i < deadlinePollInterval; i++ {
			if tc.dl.Expired() {
				t.Fatalf("%s: tripped at call %d, before the first poll", tc.name, i)
			}
		}
		for i := 0; i < 3; i++ {
			if !tc.dl.Expired() {
				t.Fatalf("%s: not tripped %d calls after the first poll", tc.name, i)
			}
		}
		if err := tc.dl.Err(); err != tc.want {
			t.Errorf("%s: Err = %v, want %v", tc.name, err, tc.want)
		}
	}
	live, stop := context.WithCancel(context.Background())
	defer stop()
	for name, dl := range map[string]*Deadline{
		"no context":   (&Input{}).NewDeadline(),
		"zero value":   {},
		"live context": (&Input{Ctx: live}).NewDeadline(),
	} {
		for i := 0; i < 3*deadlinePollInterval; i++ {
			if dl.Expired() {
				t.Fatalf("%s: tripped at call %d", name, i)
			}
		}
	}
}

// TestTreeEdgesInMatchesTheEdgeLoop: Algorithm 2's evaluator visits the
// edges treeEdgesIn marks, lowest bit first. That must be exactly the edges,
// in exactly the order, of the plain loop over g.Edges that skips every edge
// with an end outside S — the order breaks ties between equal-cost splits —
// for any set of any tree up to 64 relations, the 63-edge tree whose vertex
// 63 puts an end in the mask's top bit included.
func TestTreeEdgesInMatchesTheEdgeLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{2, 3, 5, 17, 31, 32, 33, 62, 63, 64, 64, 64} {
		label := rng.Perm(n)
		g := graph.New(n)
		for v := 1; v < n; v++ {
			g.AddEdge(label[v], label[rng.Intn(v)], 1)
		}
		cuts := g.TreeCuts(nil)
		full := bitset.Full(n)
		for i := 0; i < 20000; i++ {
			var s bitset.Mask
			switch i % 4 {
			case 0:
				s = bitset.Mask(rng.Uint64())
			case 1:
				s = bitset.Mask(rng.Uint64() & rng.Uint64())
			case 2:
				s = bitset.Mask(rng.Uint64() | rng.Uint64())
			default:
				s = full &^ bitset.Single(rng.Intn(n))
			}
			s &= full
			var want []int
			for e, c := range cuts {
				if s&c.Ends == c.Ends {
					want = append(want, e)
				}
			}
			var got []int
			for m := treeEdgesIn(cuts, s); m != 0; m &= m - 1 {
				got = append(got, bits.TrailingZeros64(m))
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("tree of %d, set %v: visits edges %v, the edge loop %v", n, s, got, want)
			}
		}
		if m := treeEdgesIn(cuts, full); bits.OnesCount64(m) != n-1 {
			t.Fatalf("tree of %d: the whole set holds %d edges", n, bits.OnesCount64(m))
		}
	}
}
