package service

import (
	"context"
	"testing"

	"repro/internal/core"
)

// TestAutoTakesTheServedRoute: core.Optimize's AlgAuto runs the algorithm
// Service.Route names on every row of routePins, and on the exact rows its
// plan costs what DPCCP's does. The exact rows of cliques, near-cliques and
// circulants past 14 relations and of stars past 16 cost 3^n join pairs or
// 2^n hub or connected sets, seconds to hours per run, so they are held to
// core.Route only.
func TestAutoTakesTheServedRoute(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	for _, row := range routePins {
		q := pinQuery(t, row)
		want, _, _ := s.Route(q)
		if got, _ := core.Route(q); got != want {
			t.Errorf("%s-%d: core.Route picks %s, Service.Route %s", row.family, row.n, got, want)
		}
		dense := row.family == "clique" || row.family == "near-clique" || row.family == "circulant"
		if want.IsExact() && (dense && row.n > 14 || row.family == "star" && row.n > 16) {
			continue
		}
		res, err := core.Optimize(context.Background(), q, core.Options{})
		if err != nil {
			t.Fatalf("%s-%d: %v", row.family, row.n, err)
		}
		if res.Algorithm != want {
			t.Errorf("%s-%d: auto ran %s, Service.Route names %s", row.family, row.n, res.Algorithm, want)
		}
		if want.IsExact() {
			if c := dpccpCost(t, q); !relEq(res.Plan.Cost, c) {
				t.Errorf("%s-%d: auto cost %g, DPCCP cost %g", row.family, row.n, res.Plan.Cost, c)
			}
		}
	}
}
