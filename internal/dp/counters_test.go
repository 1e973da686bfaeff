package dp

import (
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/graph"
)

// TestCountersMatchInstrumentedRuns cross-checks the census-based counter
// report against the counters measured by actually running each algorithm.
// DPSub and DPSize examine exactly what the census predicts. For MPDP the
// census is the paper's count, every proper subset of every block, and the
// run examines only the connected ones among them: never more than the
// census, never fewer than the valid pairs, and the same valid pairs. The
// census itself is ordered the way Figs. 2 and 4 draw it on every graph:
// CCP <= MPDP <= DPSub.
func TestCountersMatchInstrumentedRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	m := cost.DefaultModel()
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(9)
		q := randomQuery(n, rng.Intn(n), rng)
		rep, err := Counters(Input{Q: q, M: m})
		if err != nil {
			t.Fatal(err)
		}
		_, subStats, err := DPSub(Input{Q: q, M: m})
		if err != nil {
			t.Fatal(err)
		}
		if rep.DPSubEvaluated != subStats.Evaluated {
			t.Errorf("trial %d: census DPSub=%d, run=%d", trial, rep.DPSubEvaluated, subStats.Evaluated)
		}
		if rep.CCP != subStats.CCP {
			t.Errorf("trial %d: census CCP=%d, run=%d", trial, rep.CCP, subStats.CCP)
		}
		if rep.CCP > rep.MPDPEvaluated || rep.MPDPEvaluated > rep.DPSubEvaluated {
			t.Errorf("trial %d: census CCP=%d MPDP=%d DPSub=%d, want CCP <= MPDP <= DPSub",
				trial, rep.CCP, rep.MPDPEvaluated, rep.DPSubEvaluated)
		}
		for _, alg := range []struct {
			name string
			f    Func
		}{{"MPDP", MPDP}, {"MPDPGeneral", MPDPGeneral}} {
			_, st, err := alg.f(Input{Q: q, M: m})
			if err != nil {
				t.Fatal(err)
			}
			if st.Evaluated > rep.MPDPEvaluated || st.Evaluated < st.CCP || st.CCP != rep.CCP {
				t.Errorf("trial %d: %s examined %d pairs (CCP %d), want CCP %d <= examined <= census %d",
					trial, alg.name, st.Evaluated, st.CCP, rep.CCP, rep.MPDPEvaluated)
			}
		}
		_, sizeStats, err := DPSize(Input{Q: q, M: m})
		if err != nil {
			t.Fatal(err)
		}
		if rep.DPSizeEvaluated != sizeStats.Evaluated {
			t.Errorf("trial %d: census DPSize=%d, run=%d", trial, rep.DPSizeEvaluated, sizeStats.Evaluated)
		}
	}
}

// TestMPDPEvaluatedOnExtremeShapes pins where the CPU evaluator's count
// meets the paper's and where it leaves it. On trees every block is a
// bridge and on cliques every subset of a block is connected, so the run
// examines exactly the census. On a cycle every connected proper subset of
// the one big block is a path whose complement is a path too: every pair
// examined is valid, while the census counts all 2^n − 2 subsets.
func TestMPDPEvaluatedOnExtremeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	m := cost.DefaultModel()
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		atCensus bool // run.Evaluated == census MPDPEvaluated
	}{
		{"tree-12", graph.RandomTree(12, rng), true},
		{"star-10", graph.Star(10), true},
		{"clique-9", graph.Clique(9), true},
		{"cycle-12", graph.Cycle(12), false},
	} {
		in := Input{Q: topoQuery(tc.g, rng), M: m}
		rep, err := Counters(in)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := MPDPGeneral(in)
		if err != nil {
			t.Fatal(err)
		}
		if st.CCP != rep.CCP {
			t.Errorf("%s: run CCP=%d, census %d", tc.name, st.CCP, rep.CCP)
		}
		if (st.Evaluated == rep.MPDPEvaluated) != tc.atCensus || st.Evaluated > rep.MPDPEvaluated {
			t.Errorf("%s: run examined %d, census %d (want equal: %v)", tc.name, st.Evaluated, rep.MPDPEvaluated, tc.atCensus)
		}
		if st.Evaluated != st.CCP {
			t.Errorf("%s: run examined %d pairs, %d of them valid: want all", tc.name, st.Evaluated, st.CCP)
		}
	}
}

// TestCountersStarClosedForm pins the star-graph counters to their closed
// forms: cnt[i] = C(n-1, i-1), CCP = 2(n-1)·2^(n-2),
// DPSubEvaluated = Σ C(n-1, i-1)·2^i = 2·3^(n-1) - 2n - ... (computed
// directly), which is what makes Fig. 4's ratio grow as (3/2)^n.
func TestCountersStarClosedForm(t *testing.T) {
	prevRatio := 0.0
	for _, n := range []int{5, 10, 15} {
		q := topoQuery(graph.Star(n), rand.New(rand.NewSource(1)))
		rep, err := Counters(Input{Q: q, M: cost.DefaultModel()})
		if err != nil {
			t.Fatal(err)
		}
		// Closed-form CCP for a star: connected sets of size i contain the
		// hub and any i-1 dimensions; the only valid bipartitions cut off a
		// single dimension (2(i-1) ordered pairs per set).
		var ccp, sub uint64
		binom := func(a, b int) uint64 {
			r := uint64(1)
			for i := 0; i < b; i++ {
				r = r * uint64(a-i) / uint64(i+1)
			}
			return r
		}
		for i := 2; i <= n; i++ {
			cnt := binom(n-1, i-1)
			ccp += cnt * uint64(2*(i-1))
			sub += cnt << uint(i)
		}
		if rep.CCP != ccp {
			t.Errorf("n=%d: CCP=%d, closed form %d", n, rep.CCP, ccp)
		}
		if rep.DPSubEvaluated != sub {
			t.Errorf("n=%d: DPSub=%d, closed form %d", n, rep.DPSubEvaluated, sub)
		}
		if rep.MPDPEvaluated != ccp {
			t.Errorf("n=%d: MPDP=%d must meet the CCP bound on trees", n, rep.MPDPEvaluated)
		}
		ratio := float64(rep.DPSubEvaluated) / float64(rep.CCP)
		if ratio <= prevRatio {
			t.Errorf("n=%d: DPSub/CCP = %.2f, not above the previous size's %.2f", n, ratio, prevRatio)
		}
		prevRatio = ratio
	}
}

func TestCountersRejectsOversizedQuery(t *testing.T) {
	q := &cost.Query{G: graph.New(65)}
	if _, err := Counters(Input{Q: q, M: cost.DefaultModel()}); err != ErrTooLarge {
		t.Errorf("got %v, want ErrTooLarge", err)
	}
}
