package service

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/workload"
)

// routePin is one (family, n, seed) → (algorithm, backend) row of the
// router's ladder, read at a band edge.
type routePin struct {
	family string
	n      int
	seed   int64
	alg    core.Algorithm
	bid    backend.ID
}

// routePins walks every band edge of the router's ladder (sized for the GTX
// 1080 model and a 5 s budget): the small band at 12/13, the clique caps at 14/15 and 16/17,
// dense general graphs at 18, 25/26 and 30, the CPU band at 25/26, the GPU
// band at 41/42 and at its dense-edge cap (4n edges, then 4n+1), and past it
// the heuristic split between graphs of n and of n+1 edges.
var routePins = []routePin{
	{"chain", 12, 1, core.AlgDPCCP, backend.CPUSeq},
	{"cycle", 12, 1, core.AlgDPCCP, backend.CPUSeq},
	{"musicbrainz", 12, 1, core.AlgDPCCP, backend.CPUSeq},
	{"clique", 12, 1, core.AlgMPDPParallel, backend.CPUParallel},
	{"star", 12, 1, core.AlgMPDPParallel, backend.CPUParallel},
	{"chain", 13, 1, core.AlgMPDPParallel, backend.CPUParallel},
	{"cycle", 13, 1, core.AlgMPDPParallel, backend.CPUParallel},
	{"musicbrainz", 13, 1, core.AlgMPDPParallel, backend.CPUParallel},
	{"clique", 13, 1, core.AlgMPDPParallel, backend.CPUParallel},

	{"clique", 14, 1, core.AlgMPDPParallel, backend.CPUParallel},
	{"clique", 15, 1, core.AlgMPDPGPU, backend.GPU},
	{"clique", 16, 1, core.AlgMPDPGPU, backend.GPU},
	{"clique", 17, 1, core.AlgLinDP, backend.Heuristic},

	{"near-clique", 18, 1, core.AlgMPDPParallel, backend.CPUParallel},
	{"near-clique", 25, 1, core.AlgMPDPParallel, backend.CPUParallel},
	{"near-clique", 26, 1, core.AlgLinDP, backend.Heuristic},
	{"near-clique", 30, 1, core.AlgLinDP, backend.Heuristic},

	{"chain", 25, 1, core.AlgMPDPParallel, backend.CPUParallel},
	{"cycle", 25, 1, core.AlgMPDPParallel, backend.CPUParallel},
	{"star", 25, 1, core.AlgMPDPParallel, backend.CPUParallel},
	{"chain", 26, 1, core.AlgMPDPGPU, backend.GPU},
	{"cycle", 26, 1, core.AlgMPDPGPU, backend.GPU},
	{"star", 26, 1, core.AlgIDP2, backend.Heuristic},

	{"chain", 41, 1, core.AlgMPDPGPU, backend.GPU},
	{"cycle", 41, 1, core.AlgMPDPGPU, backend.GPU},
	{"cycle+chord", 41, 1, core.AlgMPDPGPU, backend.GPU},
	{"chain", 42, 1, core.AlgIDP2, backend.Heuristic},
	{"cycle", 42, 1, core.AlgIDP2, backend.Heuristic},
	{"cycle+chord", 42, 1, core.AlgLinDP, backend.Heuristic},

	{"circulant", 30, 1, core.AlgMPDPGPU, backend.GPU},
	{"circulant+chord", 30, 1, core.AlgLinDP, backend.Heuristic},

	{"cycle", 70, 1, core.AlgIDP2, backend.Heuristic},
	{"cycle+chord", 70, 1, core.AlgLinDP, backend.Heuristic},
}

// TestRoutePins holds the router to every row of routePins.
func TestRoutePins(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	for _, row := range routePins {
		alg, bid, _ := s.Route(pinQuery(t, row))
		if alg != row.alg || bid != row.bid {
			t.Errorf("%s-%d: routed to %s on %s, want %s on %s", row.family, row.n, alg, bid, row.alg, row.bid)
		}
	}
}

// pinQuery builds a row's query: a workload family, a clique minus the
// edge between its first and last relation ("near-clique"), a cycle plus
// the chord between relations 0 and 2 ("cycle+chord"), a cycle whose every
// relation also joins the three after the next around it, 4n edges
// ("circulant", for n > 8), or that plus the chord between relations 0 and
// n/2 ("circulant+chord").
func pinQuery(t testing.TB, row routePin) *cost.Query {
	t.Helper()
	switch row.family {
	case "near-clique":
		return withEdges(genQuery(t, workload.KindClique, row.n, row.seed), 0, row.n-1, false)
	case "cycle+chord":
		return withEdges(genQuery(t, workload.KindCycle, row.n, row.seed), 0, 2, true)
	case "circulant", "circulant+chord":
		q := genQuery(t, workload.KindCycle, row.n, row.seed)
		for d := 2; d <= 4; d++ {
			for v := 0; v < row.n; v++ {
				q = withEdges(q, v, (v+d)%row.n, true)
			}
		}
		if row.family == "circulant+chord" {
			q = withEdges(q, 0, row.n/2, true)
		}
		return q
	}
	return genQuery(t, workload.Kind(row.family), row.n, row.seed)
}

// withEdges rebuilds q's join graph without the edge (a, b), or with it
// added at selectivity 0.1.
func withEdges(q *cost.Query, a, b int, add bool) *cost.Query {
	g := graph.New(q.N())
	for _, e := range q.G.Edges {
		if !(e.A == a && e.B == b) && !(e.A == b && e.B == a) {
			g.AddEdge(e.A, e.B, e.Sel)
		}
	}
	if add {
		g.AddEdge(a, b, 0.1)
	}
	return &cost.Query{Cat: q.Cat, G: g}
}
