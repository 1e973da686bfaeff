package heuristic

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/graph"
	"repro/internal/plan"
)

func randomQuery(n, extraEdges int, rng *rand.Rand) *cost.Query {
	g := graph.RandomConnected(n, extraEdges, rng)
	g2 := graph.New(n)
	for _, e := range g.Edges {
		g2.AddEdge(e.A, e.B, math.Pow(10, -1-3*rng.Float64()))
	}
	var cat catalog.Catalog
	for i := 0; i < n; i++ {
		r := catalog.NewRelation("r", math.Pow(10, 1+4*rng.Float64()), 60)
		r.HasPKIndex = true
		cat.Add(r)
	}
	return &cost.Query{Cat: cat, G: g2}
}

func starQuery(n int) *cost.Query {
	g := graph.Star(n)
	cat := catalog.StarCatalog(n)
	g2 := graph.New(n)
	for _, e := range g.Edges {
		dim := e.B
		if dim == 0 {
			dim = e.A
		}
		g2.AddEdge(e.A, e.B, 1/cat.Rels[dim].Rows)
	}
	return &cost.Query{Cat: cat, G: g2}
}

type namedHeuristic struct {
	name string
	f    func(q *cost.Query, opt Options) (*plan.Node, error)
}

var allHeuristics = []namedHeuristic{
	{"GOO", GOO},
	{"IKKBZ", IKKBZ},
	{"LinDP", LinDP},
	{"Adaptive", Adaptive},
	{"IDP2", IDP2},
	{"UnionDP", UnionDP},
}

func allRels(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestHeuristicsNeverBeatOptimalAndAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := cost.DefaultModel()
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(8)
		q := randomQuery(n, rng.Intn(n/2+1), rng)
		optPlan, _, err := dp.MPDPGeneral(dp.Input{Q: q, M: m})
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range allHeuristics {
			p, err := h.f(q, Options{Model: m, K: 5, Threads: 1})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, h.name, err)
			}
			if err := p.Validate(allRels(n)); err != nil {
				t.Errorf("trial %d %s: invalid plan: %v", trial, h.name, err)
			}
			// Recost to guard against stale costs, then compare.
			rp := Recost(q, m, p)
			if rp.Cost < optPlan.Cost*(1-1e-9) {
				t.Errorf("trial %d %s: heuristic cost %.4f beats optimal %.4f",
					trial, h.name, rp.Cost, optPlan.Cost)
			}
			if math.Abs(rp.Rows-optPlan.Rows) > 1e-6*math.Max(1, optPlan.Rows) {
				t.Errorf("trial %d %s: output rows %.3f, want %.3f", trial, h.name, rp.Rows, optPlan.Rows)
			}
		}
	}
}

func TestIDP2AndUnionDPFindOptimalWhenKCoversQuery(t *testing.T) {
	// With k >= n the heuristics reduce to a single MPDP call.
	rng := rand.New(rand.NewSource(22))
	m := cost.DefaultModel()
	for trial := 0; trial < 8; trial++ {
		n := 5 + rng.Intn(5)
		q := randomQuery(n, 2, rng)
		optPlan, _, err := dp.MPDPGeneral(dp.Input{Q: q, M: m})
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []namedHeuristic{{"IDP2", IDP2}, {"UnionDP", UnionDP}} {
			p, err := h.f(q, Options{Model: m, K: n, Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(p.Cost-optPlan.Cost) > 1e-6*math.Max(1, optPlan.Cost) {
				t.Errorf("trial %d: %s with k=n cost %.4f, optimal %.4f", trial, h.name, p.Cost, optPlan.Cost)
			}
		}
	}
}

func TestUnionDPPartitionInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	q := randomQuery(40, 10, rng)
	m := cost.DefaultModel()
	groups, sets := baseScans(q, m)
	k := 7
	parts := partitionUnits(q, Options{Model: m, K: k}, groups, sets, unitOwners(q, sets), k)
	covered := 0
	for _, members := range parts {
		if len(members) > k {
			t.Errorf("partition size %d exceeds k=%d", len(members), k)
		}
		covered += len(members)
		if len(members) >= 2 {
			// Each multi-unit partition must induce a connected subgraph.
			sub, _ := q.G.Subgraph(members)
			if !sub.IsTree() && !connectedLocal(sub) {
				t.Errorf("partition %v is disconnected", members)
			}
		}
	}
	if covered != 40 {
		t.Errorf("partitions cover %d relations, want 40", covered)
	}
}

func connectedLocal(g *graph.Graph) bool {
	if g.N == 0 {
		return true
	}
	seen := make([]bool, g.N)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == g.N
}

func TestHeuristicsScaleToLargeQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("large-query test skipped in -short mode")
	}
	n := 300
	g := graph.SnowflakeN(n, 4)
	cat := catalog.SnowflakeCatalog(n, 4)
	q := &cost.Query{Cat: cat, G: graph.New(n)}
	for _, e := range g.Edges {
		q.G.AddEdge(e.A, e.B, 1/math.Max(cat.Rels[e.B].Rows, 2))
	}
	ctx, cancel := context.WithTimeoutCause(context.Background(), 60*time.Second, ErrTimeout)
	defer cancel()
	opt := Options{K: 10, Ctx: ctx, Threads: 4}
	for _, h := range []namedHeuristic{{"GOO", GOO}, {"IDP2", IDP2}, {"UnionDP", UnionDP}, {"Adaptive", Adaptive}} {
		start := time.Now()
		p, err := h.f(q, opt)
		if err != nil {
			t.Fatalf("%s on %d relations: %v", h.name, n, err)
		}
		if err := p.Validate(allRels(n)); err != nil {
			t.Errorf("%s: invalid plan: %v", h.name, err)
		}
		t.Logf("%s: n=%d cost=%.3g in %v", h.name, n, p.Cost, time.Since(start))
	}
}

func TestIKKBZProducesLeftDeepPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 10; trial++ {
		q := randomQuery(8+rng.Intn(6), rng.Intn(4), rng)
		p, err := IKKBZ(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !p.IsLeftDeep() {
			t.Errorf("trial %d: IKKBZ plan is not left-deep: %v", trial, p)
		}
	}
}

func TestIKKBZOptimalOnLeftDeepChainSpace(t *testing.T) {
	// On a star query whose optimal plan is left-deep, IKKBZ should be near
	// the best left-deep order found by brute force over permutations.
	q := starQuery(7)
	m := cost.DefaultModel()
	p, err := IKKBZ(q, Options{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	best := bruteForceLeftDeepCout(q)
	got := coutOfOrder(q, leftDeepOrder(p), make([]int32, q.N()))
	if got > best*1.000001 {
		t.Errorf("IKKBZ Cout %.4g worse than best left-deep %.4g", got, best)
	}
}

func leftDeepOrder(p *plan.Node) []int {
	var out []int
	for !p.IsLeaf() {
		out = append([]int{p.Right.RelID}, out...)
		p = p.Left
	}
	return append([]int{p.RelID}, out...)
}

func bruteForceLeftDeepCout(q *cost.Query) float64 {
	n := q.N()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			if validOrder(q, perm) {
				if c := coutOfOrder(q, perm, make([]int32, n)); c < best {
					best = c
				}
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}

// validOrder reports whether each prefix of the order is connected (no
// cross products in the left-deep chain).
func validOrder(q *cost.Query, order []int) bool {
	in := map[int]bool{order[0]: true}
	for _, v := range order[1:] {
		ok := false
		for _, w := range q.G.Neighbors(v) {
			if in[w] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
		in[v] = true
	}
	return true
}

func TestHeuristicTimeoutRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	q := randomQuery(30, 10, rng)
	spent, stop := context.WithTimeoutCause(context.Background(), -time.Second, ErrTimeout)
	stop() // already done: the cause stays ErrTimeout
	opt := Options{Ctx: spent, K: 10}
	// Heuristics either return ErrTimeout or degrade to an any-time answer;
	// they must not run long.
	for _, h := range allHeuristics {
		start := time.Now()
		_, err := h.f(q, opt)
		if err != nil && err != ErrTimeout {
			t.Errorf("%s: unexpected error %v", h.name, err)
		}
		if time.Since(start) > 5*time.Second {
			t.Errorf("%s: ignored expired deadline (%v)", h.name, time.Since(start))
		}
	}
}
