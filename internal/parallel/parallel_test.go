package parallel

import (
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
		r.HasPKIndex = rng.Intn(2) == 0
		cat.Add(r)
	}
	return &cost.Query{Cat: cat, G: g2}
}

var parallelAlgorithms = []struct {
	name string
	f    dp.Func
}{
	{"MPDPParallel", MPDP},
	{"DPSubParallel", DPSubParallel},
}

func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := cost.DefaultModel()
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(10)
		q := randomQuery(n, rng.Intn(n), rng)
		ref, refStats, err := dp.MPDPGeneral(dp.Input{Q: q, M: m})
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 4, 0} {
			for _, alg := range parallelAlgorithms {
				p, st, err := alg.f(dp.Input{Q: q, M: m, Threads: threads})
				if err != nil {
					t.Fatalf("%s threads=%d: %v", alg.name, threads, err)
				}
				if math.Abs(p.Cost-ref.Cost) > 1e-6*math.Max(1, ref.Cost) {
					t.Errorf("trial %d %s threads=%d: cost %.4f want %.4f",
						trial, alg.name, threads, p.Cost, ref.Cost)
				}
				if st.CCP != refStats.CCP {
					t.Errorf("trial %d %s: CCP=%d want %d", trial, alg.name, st.CCP, refStats.CCP)
				}
			}
		}
	}
}

// TestParallelMPDPCountersMatchSequential is the count behind the paper's
// Fig. 12: adding threads divides the work and never changes it. Every
// counter of a run is the sequential run's at any worker count, on a tree
// (Algorithm 2, thick levels), a cycle (one block, thin levels) and a
// random graph (Algorithm 3 proper).
func TestParallelMPDPCountersMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := cost.DefaultModel()
	for _, tc := range []struct {
		name string
		q    *cost.Query
	}{
		{"random-12", randomQuery(12, 5, rng)},
		{"star-12", shapedQuery(graph.Star(12), rng)},
		{"cycle-14", shapedQuery(graph.Cycle(14), rng)},
	} {
		_, seq, err := dp.MPDP(dp.Input{Q: tc.q, M: m})
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 2, 4, 8} {
			_, par, err := MPDP(dp.Input{Q: tc.q, M: m, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			if par != seq {
				t.Errorf("%s, %d threads: counters %+v != sequential %+v", tc.name, threads, par, seq)
			}
		}
	}
}

func TestParallelTimeout(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	q := randomQuery(18, 30, rng)
	deadline := time.Now().Add(-time.Second)
	for _, alg := range parallelAlgorithms {
		_, _, err := alg.f(dp.Input{Q: q, M: cost.DefaultModel(), Deadline: deadline, Threads: 4})
		if err != dp.ErrTimeout {
			t.Errorf("%s: got %v, want ErrTimeout", alg.name, err)
		}
	}
}

func TestParallelCustomLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	q := randomQuery(6, 2, rng)
	m := cost.DefaultModel()
	leaves := make([]*plan.Node, 6)
	for i := range leaves {
		leaves[i] = &plan.Node{RelID: i, Rows: q.Rows(i), Cost: 500}
	}
	seqPlan, _, err := dp.MPDPGeneral(dp.Input{Q: q, M: m, Leaves: leaves})
	if err != nil {
		t.Fatal(err)
	}
	parPlan, _, err := MPDP(dp.Input{Q: q, M: m, Leaves: leaves, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(seqPlan.Cost-parPlan.Cost) > 1e-9 {
		t.Errorf("custom-leaf costs differ: %f vs %f", seqPlan.Cost, parPlan.Cost)
	}
}

// TestTableLayoutsUnderLevelWorkers runs every parallel driver with four
// workers on censuses that put the shared plan.Table in each of its
// regimes the level drivers' exact census sizing reaches — direct-addressed
// (clique-11, star-13, star-14: workers read the cost lane and the presence
// bitmap with plain loads between the barrier's writes) and hashed
// (cycle-14). Costs and CCP counts must equal the sequential run's
// (bit-identity is the root suite's TestBitIdentity…); the race suite
// repeats it under the detector.
func TestTableLayoutsUnderLevelWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := cost.DefaultModel()
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"clique-11", graph.Clique(11)},
		{"star-13", graph.Star(13)},
		{"star-14", graph.Star(14)},
		{"cycle-14", graph.Cycle(14)},
	} {
		q := shapedQuery(tc.g, rng)
		ref, refStats, err := dp.MPDP(dp.Input{Q: q, M: m})
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range parallelAlgorithms {
			if alg.name == "DPSubParallel" && tc.g.N > 13 {
				continue // 2^|S| subsets per set: minutes under the detector
			}
			p, st, err := alg.f(dp.Input{Q: q, M: m, Threads: 4})
			if err != nil {
				t.Fatalf("%s on %s: %v", alg.name, tc.name, err)
			}
			if math.Abs(p.Cost-ref.Cost) > 1e-9*math.Max(1, ref.Cost) || st.CCP != refStats.CCP {
				t.Errorf("%s on %s: cost %v over %d CCP pairs, sequential MPDP %v over %d",
					alg.name, tc.name, p.Cost, st.CCP, ref.Cost, refStats.CCP)
			}
		}
	}
}
