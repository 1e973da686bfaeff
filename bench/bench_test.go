package bench

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The smoke test runs every workload at toy scale, untraced and traced. It
// does not run the vet suite, which takes as long as the whole test:
// `go run ./cmd/mpdpvet ./...` from the repository root covers this
// directory too.

// firstRuns keeps each workload's first seed-1 run so that the second test
// need not repeat it.
var firstRuns = map[string]*runResult{}

func toyRun(t *testing.T, workload string, seed int64, trace bool) *runResult {
	t.Helper()
	key := fmt.Sprint(workload, seed, trace)
	if res := firstRuns[key]; res != nil {
		delete(firstRuns, key)
		return res
	}
	res, err := runWorkload(context.Background(), runConfig{
		workload: workload, seed: seed, seconds: 0.2, trace: trace, toy: true, outDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%s seed %d trace %v: %d of %d operations failed: %v", workload, seed, trace, res.failed, res.attempted, res.notes)
	}
	return res
}

// Every metric BENCHMARK.json names is emitted by every workload with the
// unit it names, and nothing else is.
func TestEmitsExactlyTheSpecifiedMetrics(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the driver %q", i, w.Name, workloadNames[i])
		}
		for _, mode := range []struct {
			trace bool
			want  []specMetric
		}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
			res := toyRun(t, w.Name, 1, mode.trace)
			firstRuns[fmt.Sprint(w.Name, 1, mode.trace)] = res
			got := map[string]string{}
			for _, m := range res.metrics {
				got[m.Name] = m.Unit
			}
			for _, m := range mode.want {
				if unit, ok := got[m.Name]; !ok {
					t.Errorf("%s trace=%v: %s is specified but not emitted", w.Name, mode.trace, m.Name)
				} else if unit != m.Unit {
					t.Errorf("%s trace=%v: %s has unit %q, specified %q", w.Name, mode.trace, m.Name, unit, m.Unit)
				}
				delete(got, m.Name)
			}
			for name := range got {
				t.Errorf("%s trace=%v: %s is emitted but not specified", w.Name, mode.trace, name)
			}
			if !mode.trace {
				for _, m := range res.metrics {
					// slo_ok_frac depends on how fast the host is: under
					// the race detector no request makes 5 ms.
					if m.Value == 0 && m.Name != "slo_ok_frac" {
						t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
					}
				}
			}
		}
	}
}

// Counts repeat exactly for a seed. What depends on statistics, order or
// mix changes with the seed; what depends on the join graphs alone does not,
// because every seed draws the same graphs (see shapeSeed).
func TestCountsFollowTheSeed(t *testing.T) {
	value := func(r *runResult, name string) float64 {
		for _, m := range r.metrics {
			if m.Name == name {
				return m.Value
			}
		}
		t.Fatalf("%s: no %s", r.workload, name)
		return 0
	}
	for _, c := range []struct {
		workload string
		trace    bool
		counts   []string // repeat for a seed and differ between seeds
		modelled []string // repeat for a seed and between seeds: a function of the join graphs alone
	}{
		{"exact-sparse", true, nil, []string{"dp.evaluated_pairs", "dp.ccp_pairs", "gpusim.sim_ms"}},
		{"heuristic-large", false, []string{"plan_cost_ratio"}, nil},
		{"serve-churn", false, nil, nil},
	} {
		a, b, other := toyRun(t, c.workload, 1, c.trace), toyRun(t, c.workload, 1, c.trace), toyRun(t, c.workload, 2, c.trace)
		for _, name := range append(c.counts, c.modelled...) {
			if value(a, name) != value(b, name) || value(a, name) == 0 {
				t.Errorf("%s: %s is %v and %v for the same seed", c.workload, name, value(a, name), value(b, name))
			}
		}
		for _, name := range c.modelled {
			if value(a, name) != value(other, name) {
				t.Errorf("%s: %s is %v for seed 1 and %v for seed 2", c.workload, name, value(a, name), value(other, name))
			}
		}
		for _, name := range c.counts {
			if value(a, name) == value(other, name) {
				t.Errorf("%s: %s is %v for seeds 1 and 2", c.workload, name, value(a, name))
			}
		}
		if !reflect.DeepEqual(a.mix, b.mix) {
			t.Errorf("%s: request mix %v and %v for the same seed", c.workload, a.mix, b.mix)
		}
	}
}

// serve-churn's mix is two new walks, one window and one re-analysed twin in
// every four requests from the first request on, in an order the seed
// decides; the pool sent in set-up holds no twin; nothing repeats.
func TestChurnMixHoldsFromTheFirstRequest(t *testing.T) {
	const seeded, n = 40, 200
	classes := func(seed int64) (order string) {
		pool, stream, err := churnStream(seeded, n, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkDistinct(append(pool, stream...)); err != nil {
			t.Error(err)
		}
		for _, o := range pool {
			if o.class == "stale" || o.bump {
				t.Errorf("seed %d: the pool holds a %s request (bump=%v)", seed, o.class, o.bump)
			}
		}
		bumps := 0
		for i := 0; i < len(stream); i += 4 {
			got := map[string]int{}
			for _, o := range stream[i : i+4] {
				got[o.class]++
				order += o.class[:1]
				if o.bump {
					bumps++
				}
			}
			if got["cold"] != 2 || got["window"] != 1 || got["stale"] != 1 {
				t.Errorf("seed %d: requests %d-%d are %v, want 2 cold, 1 window, 1 stale", seed, i, i+3, got)
			}
		}
		if want := n / (seeded / 2); bumps != want {
			t.Errorf("seed %d: %d re-analyses in %d requests, want %d", seed, bumps, n, want)
		}
		return order
	}
	if a, b := classes(1), classes(2); a == b {
		t.Errorf("seeds 1 and 2 order the classes alike: %s", a)
	} else if a != classes(1) {
		t.Errorf("seed 1 orders the classes differently the second time")
	}
}

// The plan checker must reject what it exists to catch.
func TestCheckPlanRejectsBadPlans(t *testing.T) {
	ops, err := genMix([]mixItem{{"chain", 3, 1}}, "cold", nil, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	q := ops[0].q
	n := q.Names()
	scan := func(indent, name string) string { return indent + "Scan " + name + "  (rows=1 cost=1.0)\n" }
	join := func(indent string) string { return indent + "HashJoin  (rows=1 cost=1.0)\n" }
	good := join("") + join("  ") + scan("    ", n[0]) + scan("    ", n[1]) + scan("  ", n[2])
	if err := checkPlan(q, good); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	for name, bad := range map[string]string{
		"cross product":    join("") + join("  ") + scan("    ", n[0]) + scan("    ", n[2]) + scan("  ", n[1]),
		"relation twice":   join("") + join("  ") + scan("    ", n[0]) + scan("    ", n[1]) + scan("  ", n[1]),
		"relation missing": join("") + scan("  ", n[0]) + scan("  ", n[1]),
	} {
		if checkPlan(q, bad) == nil {
			t.Errorf("%s: invalid plan accepted", name)
		}
	}
}
