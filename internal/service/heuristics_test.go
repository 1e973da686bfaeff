package service

import (
	"context"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/workload"
)

// TestHeuristicOverOptimum holds each large-query heuristic's cost, over
// the DPCCP optimum, to a bound of its own on the shapes the router sends
// past the exact band, seeds 1-3. Each bound sits about 1 % above the worst
// of the three ratios. The heuristics are deterministic, so a bound that
// breaks means a plan changed. The table is why core.HeuristicFor routes
// as it does: IDP2 stays within 1.33x on cycles and chains, where LinDP
// reaches 8.2x on a cycle-64; LinDP stays within 1.08x on MusicBrainz walks; UnionDP
// is 12-7 400x everywhere but on stars. Each shape is also routed, at a
// size past the exact band, to the heuristic its row says.
func TestHeuristicOverOptimum(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	for _, row := range []struct {
		kind workload.Kind
		n    int
		// bound per algorithm: IDP2, LinDP, UnionDP, GOO.
		bound [4]float64
		// routedN is a size of the shape past the exact band, and routed
		// the heuristic the router picks for it.
		routedN int
		routed  core.Algorithm
	}{
		{workload.KindCycle, 42, [4]float64{1.33, 2.01, 262, 3460}, 42, core.AlgIDP2},
		{workload.KindCycle, 64, [4]float64{1.03, 8.29, 1360, 9010}, 64, core.AlgIDP2},
		{workload.KindChain, 60, [4]float64{1.07, 1.001, 812, 5340}, 60, core.AlgIDP2},
		{workload.KindMB, 20, [4]float64{1.09, 1.09, 7490, 10050}, 56, core.AlgLinDP},
		{workload.KindStar, 18, [4]float64{1.001, 1.03, 1.001, 1.92}, 40, core.AlgIDP2},
	} {
		algs := [4]core.Algorithm{core.AlgIDP2, core.AlgLinDP, core.AlgUnionDP, core.AlgGOO}
		for seed := int64(1); seed <= 3; seed++ {
			q := genQuery(t, row.kind, row.n, seed)
			opt, err := core.Optimize(context.Background(), q, core.Options{Algorithm: core.AlgDPCCP})
			if err != nil {
				t.Fatal(err)
			}
			for i, alg := range algs {
				res, err := core.Optimize(context.Background(), q, core.Options{Algorithm: alg, Threads: 1})
				if err != nil {
					t.Fatalf("%s on %s-%d seed %d: %v", alg, row.kind, row.n, seed, err)
				}
				ratio := res.Plan.Cost / opt.Plan.Cost
				if ratio < 1-1e-9 || ratio > row.bound[i] {
					t.Errorf("%s on %s-%d seed %d: %.4g x the optimum, want 1 to %g", alg, row.kind, row.n, seed, ratio, row.bound[i])
				}
			}
		}
		alg, bid, _ := s.Route(genQuery(t, row.kind, row.routedN, 1))
		if alg != row.routed || bid != backend.Heuristic {
			t.Errorf("%s-%d routed to %s on %s, want %s on heuristic", row.kind, row.routedN, alg, bid, row.routed)
		}
	}
}
