// Cross-algorithm equivalence: every exact enumerator — sequential,
// CPU-parallel and GPU-model — must return a plan of identical cost on the
// same query. The per-package tests check each algorithm against small
// oracles; this suite cross-checks the implementations against each other
// over a few hundred randomized queries, which is what catches enumerator
// divergence (a pruned pair one algorithm considers and another silently
// skips). Every query is then planned a second time by every enumerator in
// shuffled order on one dp.Workspace per shape that is never cleaned, at one
// thread or two: borrowed memory must not move a cost either.
package repro

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/gpusim"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/workload"
)

// gpuEquiv adapts a GPU-backend run to dp.Func for the lineup.
func gpuEquiv(devices int) dp.Func {
	cfg := gpusim.DefaultConfig()
	cfg.Devices = devices
	return func(in dp.Input) (*plan.Node, dp.Stats, error) {
		p, st, _, err := gpusim.Run(in, cfg, gpusim.AlgoMPDP)
		return p, st, err
	}
}

// exactAlgs is the lineup under test; DPSize is the reference. The GPU
// rows run the device model on one device and on three (each level's sets
// split across the devices' workers behind the level barrier, with MPDP's
// evaluator), so the cross-backend equivalence of the service router's
// three exact substrates is enforced here.
var exactAlgs = []struct {
	name string
	f    dp.Func
}{
	{"DPSize", dp.DPSize},
	{"DPSub", dp.DPSub},
	{"DPCCP", dp.DPCCP},
	{"MPDP", dp.MPDP},
	{"MPDP-CPU", parallel.MPDP},
	{"MPDP-GPU", gpuEquiv(1)},
	{"MPDP-GPU-3dev", gpuEquiv(3)},
}

func TestExactAlgorithmsAgreeOnRandomizedQueries(t *testing.T) {
	const queriesPerShape = 50
	shapes := []workload.Kind{
		workload.KindChain, workload.KindCycle, workload.KindStar, workload.KindClique,
	}
	minN, maxN := 4, 14
	if testing.Short() {
		maxN = 9
	}
	span := maxN - minN + 1

	for si, kind := range shapes {
		si, kind := si, kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			dirty := &dirtyRuns{ws: new(dp.Workspace), rng: rand.New(rand.NewSource(int64(si)))}
			for i := 0; i < queriesPerShape; i++ {
				n := minN + i%span
				if kind == workload.KindClique && n > 11 {
					// Clique enumeration is Theta(3^n); 11 keeps the
					// 50-query sweep fast while still crossing the
					// DPSub/DPCCP crossover the paper shows.
					n = 4 + i%8
				}
				seed := int64(i*1000 + n)
				q, err := workload.Generate(kind, n, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				if !checkAgreement(t, q, fmt.Sprintf("%s/n=%d/seed=%d", kind, n, seed), dirty) {
					return // one divergence per shape is enough signal
				}
			}
		})
	}
}

// dirtyRuns is the state of a shape's second pass: the one workspace every
// enumerator runs on, and the source of the order and thread counts.
type dirtyRuns struct {
	ws  *dp.Workspace
	rng *rand.Rand
}

func checkAgreement(t *testing.T, q *cost.Query, label string, dirty *dirtyRuns) bool {
	t.Helper()
	in := dp.Input{Q: q, M: cost.DefaultModel()}
	ref := 0.0
	ok := true
	check := func(name string, in dp.Input, f dp.Func, first bool) bool {
		p, _, err := f(in)
		if err != nil {
			t.Errorf("%s: %s failed: %v", label, name, err)
			return false
		}
		if err := p.Validate(identityPerm(q.N())); err != nil {
			t.Errorf("%s: %s produced an invalid plan: %v", label, name, err)
			ok = false
		}
		if first {
			ref = p.Cost
		} else if !costEq(p.Cost, ref) {
			t.Errorf("%s: %s cost %.10g != %s cost %.10g",
				label, name, p.Cost, exactAlgs[0].name, ref)
			ok = false
		}
		return true
	}
	for i, alg := range exactAlgs {
		if !check(alg.name, in, alg.f, i == 0) {
			return false
		}
	}
	in.Workspace = dirty.ws
	for _, i := range dirty.rng.Perm(len(exactAlgs)) {
		in.Threads = 1 + dirty.rng.Intn(2)
		name := fmt.Sprintf("%s on a dirty workspace, %d threads,", exactAlgs[i].name, in.Threads)
		if !check(name, in, exactAlgs[i].f, false) {
			return false
		}
	}
	return ok
}

// costEq compares plan costs with a tiny relative tolerance: equal-cost
// plans built in different association orders can differ in the last float
// bits.
func costEq(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// edgeQuery builds a query over the given undirected edges with the
// synthetic workloads' statistics: uniform catalog, PK-FK selectivities,
// random local selections.
func edgeQuery(n int, edges [][2]int, rng *rand.Rand) *cost.Query {
	cat := catalog.UniformCatalog(n)
	g := graph.New(n)
	for _, e := range edges {
		g.AddEdge(e[0], e[1], 1/math.Max(1, math.Min(cat.Rels[e[0]].Rows, cat.Rels[e[1]].Rows)))
	}
	for i := range cat.Rels {
		cat.Rels[i].Rows = math.Max(1, cat.Rels[i].Rows*math.Pow(10, -2*rng.Float64()))
	}
	return &cost.Query{Cat: cat, G: g}
}

// twoCyclesEdges is a cycle of a vertices and a cycle of b vertices sharing
// vertex 0, their cut vertex: two big blocks, so every set spanning both
// goes through grow.
func twoCyclesEdges(a, b int) (n int, edges [][2]int) {
	for i := 0; i < a; i++ {
		edges = append(edges, [2]int{i, (i + 1) % a})
	}
	// The second cycle is 0, a, a+1, …, a+b-2, back to 0.
	second := func(i int) int {
		if i%b == 0 {
			return 0
		}
		return a + i%b - 1
	}
	for i := 0; i < b; i++ {
		edges = append(edges, [2]int{second(i), second(i + 1)})
	}
	return a + b - 1, edges
}

// triangleRingEdges is a cycle of k vertices with an apex over every edge:
// one block, most of whose connected subsets fall apart into triangles and
// bridges.
func triangleRingEdges(k int) (n int, edges [][2]int) {
	for i := 0; i < k; i++ {
		j := (i + 1) % k
		edges = append(edges, [2]int{i, j}, [2]int{i, k + i}, [2]int{j, k + i})
	}
	return 2 * k, edges
}

// gridEdges is the rows × cols lattice, the densest sparse block shape:
// connected subsets whose complement inside the block is disconnected are
// common, so the examined count leaves the CCP count.
func gridEdges(rows, cols int) (n int, edges [][2]int) {
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, [2]int{r*cols + c, r*cols + c + 1})
			}
			if r+1 < rows {
				edges = append(edges, [2]int{r*cols + c, (r+1)*cols + c})
			}
		}
	}
	return rows * cols, edges
}

// bigBlockQueries are join graphs whose blocks are large enough that
// walking a block's connected subsets and unranking all of its subsets are
// different algorithms (a cycle-24 block: 553 against 16.7 M).
func bigBlockQueries(t *testing.T) map[string]*cost.Query {
	t.Helper()
	out := map[string]*cost.Query{}
	gen := func(kind workload.Kind, sizes ...int) {
		for _, n := range sizes {
			q, err := workload.Generate(kind, n, rand.New(rand.NewSource(int64(n))))
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%s-%d", kind, n)] = q
		}
	}
	gen(workload.KindCycle, 16, 20, 24)
	gen(workload.KindMB, 14, 16, 18)
	rng := rand.New(rand.NewSource(12))
	n, edges := twoCyclesEdges(8, 9)
	out["two-cycles-8+9"] = edgeQuery(n, edges, rng)
	n, edges = triangleRingEdges(7)
	out["triangle-ring-7"] = edgeQuery(n, edges, rng)
	n, edges = gridEdges(4, 5)
	out["grid-4x5"] = edgeQuery(n, edges, rng)
	return out
}

// TestMPDPAgreesWithDPCCPOnBigBlocks: on graphs with big blocks the three
// MPDP drivers return DPCCP's cost, count the same valid pairs and the same
// lattice, and examine no fewer pairs than are valid and no more than the
// paper's every-subset-of-every-block census.
func TestMPDPAgreesWithDPCCPOnBigBlocks(t *testing.T) {
	for name, q := range bigBlockQueries(t) {
		name, q := name, q
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			in := dp.Input{Q: q, M: cost.DefaultModel()}
			ref, refStats, err := dp.DPCCP(in)
			if err != nil {
				t.Fatal(err)
			}
			census, err := dp.Counters(in)
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range []struct {
				name string
				f    dp.Func
			}{{"MPDP", dp.MPDP}, {"MPDPGeneral", dp.MPDPGeneral}, {"MPDP-CPU", parallel.MPDP}} {
				p, st, err := alg.f(in)
				if err != nil {
					t.Fatalf("%s: %v", alg.name, err)
				}
				if !costEq(p.Cost, ref.Cost) {
					t.Errorf("%s: cost %.10g, DPCCP %.10g", alg.name, p.Cost, ref.Cost)
				}
				if st.CCP != refStats.CCP || st.ConnectedSets != refStats.ConnectedSets {
					t.Errorf("%s: CCP %d over %d sets, DPCCP %d over %d",
						alg.name, st.CCP, st.ConnectedSets, refStats.CCP, refStats.ConnectedSets)
				}
				if st.Evaluated < st.CCP || st.Evaluated > census.MPDPEvaluated {
					t.Errorf("%s: examined %d pairs, want between CCP %d and census %d",
						alg.name, st.Evaluated, st.CCP, census.MPDPEvaluated)
				}
			}
		})
	}
}

// TestTreeDriversRefuseOversizedTrees: Algorithm 2's drivers build a mask
// index of the tree before anything else; a tree past the mask width is the
// caller's input, so it is refused as one, by every driver, and not a panic.
func TestTreeDriversRefuseOversizedTrees(t *testing.T) {
	q, err := workload.Generate(workload.KindChain, 65, rand.New(rand.NewSource(65)))
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []struct {
		name string
		f    dp.Func
	}{{"MPDP", dp.MPDP}, {"MPDPTree", dp.MPDPTree}, {"MPDP-CPU", parallel.MPDP}, {"MPDP-GPU", gpuEquiv(1)}, {"MPDP-GPU-2", gpuEquiv(2)}} {
		if p, _, err := alg.f(dp.Input{Q: q, M: cost.DefaultModel()}); !errors.Is(err, dp.ErrTooLarge) || p != nil {
			t.Errorf("%s on a chain-65: plan %v, err %v; want dp.ErrTooLarge", alg.name, p != nil, err)
		}
	}
}
