package core

import (
	"context"
	"math"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/leaktest"
	"repro/internal/workload"
)

func TestEveryAlgorithmOptimizesAStarQuery(t *testing.T) {
	q := workload.Star(10, rand.New(rand.NewSource(1)))
	var optimal float64
	for _, alg := range Algorithms() {
		res, err := Optimize(context.Background(), q, Options{Algorithm: alg, Timeout: 30 * time.Second, K: 5})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Plan == nil {
			t.Fatalf("%s: nil plan", alg)
		}
		if alg.IsExact() {
			if optimal == 0 {
				optimal = res.Plan.Cost
			} else if math.Abs(res.Plan.Cost-optimal) > 1e-6*optimal {
				t.Errorf("%s: exact cost %.4f differs from %.4f", alg, res.Plan.Cost, optimal)
			}
		} else if res.Plan.Cost < optimal*(1-1e-9) {
			t.Errorf("%s: heuristic cost %.4f beats optimal %.4f", alg, res.Plan.Cost, optimal)
		}
		if err := res.Plan.Validate([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}); err != nil {
			t.Errorf("%s: invalid plan: %v", alg, err)
		}
	}
}

func TestGPUAlgorithmsReportDeviceStats(t *testing.T) {
	q := workload.Snowflake(12, rand.New(rand.NewSource(2)))
	for _, alg := range []Algorithm{AlgMPDPGPU, AlgDPSubGPU, AlgDPSizeGPU} {
		res, err := Optimize(context.Background(), q, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if res.GPU == nil || res.GPU.SimTimeMS <= 0 || res.GPU.KernelLaunches == 0 {
			t.Errorf("%s: missing GPU stats: %+v", alg, res.GPU)
		}
	}
	res, err := Optimize(context.Background(), q, Options{Algorithm: AlgMPDP})
	if err != nil {
		t.Fatal(err)
	}
	if res.GPU != nil {
		t.Error("CPU algorithm must not report GPU stats")
	}
}

// TestAutoPolicySwitchesAtFallbackLimit: auto runs the algorithm Route
// picks and reports it — exact through the ladder's bands, the GPU model
// past the paper's fall-back limit of 25 relations, a heuristic beyond.
func TestAutoPolicySwitchesAtFallbackLimit(t *testing.T) {
	for _, tc := range []struct {
		q    *cost.Query
		want Algorithm
	}{
		{workload.Chain(8, rand.New(rand.NewSource(3))), AlgDPCCP},
		{workload.Star(8, rand.New(rand.NewSource(3))), AlgMPDPParallel},
		{workload.Cycle(25, rand.New(rand.NewSource(4))), AlgMPDPParallel},
		{workload.Cycle(30, rand.New(rand.NewSource(4))), AlgMPDPGPU},
		{workload.Cycle(60, rand.New(rand.NewSource(4))), AlgIDP2},
		{workload.MusicBrainzQuery(60, rand.New(rand.NewSource(4))), AlgLinDP},
	} {
		if got, _ := Route(tc.q); got != tc.want {
			t.Fatalf("%d relations: Route picks %s, want %s", tc.q.N(), got, tc.want)
		}
		res, err := Optimize(context.Background(), tc.q, Options{Algorithm: AlgAuto, Timeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if res.Algorithm != tc.want {
			t.Errorf("%d relations: auto ran %s, want %s", tc.q.N(), res.Algorithm, tc.want)
		}
		if (res.GPU != nil) != (tc.want == AlgMPDPGPU) {
			t.Errorf("%d relations: %s reported GPU stats %v", tc.q.N(), res.Algorithm, res.GPU)
		}
	}
}

func TestUnknownAlgorithmRejected(t *testing.T) {
	q := workload.Star(5, rand.New(rand.NewSource(5)))
	if _, err := Optimize(context.Background(), q, Options{Algorithm: "nope"}); err == nil {
		t.Error("unknown algorithm must error")
	}
}

func TestExplainUsesRelationNames(t *testing.T) {
	q := workload.MusicBrainzQuery(6, rand.New(rand.NewSource(6)))
	res, err := Optimize(context.Background(), q, Options{Algorithm: AlgMPDP})
	if err != nil {
		t.Fatal(err)
	}
	out := Explain(q, res.Plan)
	found := false
	for _, name := range q.Names() {
		if strings.Contains(out, name) {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("Explain output has no relation names:\n%s", out)
	}
}

// TestExplainNamesWithoutCopying holds Explain to the allocations of the
// plan's own unnamed rendering: relation names are read off the query, not
// copied into an n-entry slice on every /v1/explain answer.
func TestExplainNamesWithoutCopying(t *testing.T) {
	if leaktest.RaceEnabled() {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	q := workload.Chain(1000, rand.New(rand.NewSource(8)))
	res, err := Optimize(context.Background(), q, Options{Algorithm: AlgGOO})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Plan
	// A collection empties the pool Explain's scratch lives in, so whichever
	// rendering a collection falls into pays an allocation the other does
	// not; with the collector off, both are measured on the same heap.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	unnamed := testing.AllocsPerRun(20, func() { p.Explain(nil) })
	if got := testing.AllocsPerRun(20, func() { Explain(q, p) }); got > unnamed {
		t.Errorf("Explain of a 1000-relation chain allocates %v times, the unnamed plan text %v", got, unnamed)
	}
}

func TestTimeoutPropagates(t *testing.T) {
	q := workload.Clique(18, rand.New(rand.NewSource(7)))
	start := time.Now()
	_, err := Optimize(context.Background(), q, Options{Algorithm: AlgDPSub, Timeout: 50 * time.Millisecond})
	if err == nil {
		t.Skip("machine fast enough to finish; nothing to assert")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("timeout ignored")
	}
}
