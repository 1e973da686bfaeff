// Bit-identity goldens: the equivalence suite compares enumerators to 1e-9,
// which a reordered floating-point operand or a tie that flipped passes.
// This suite pins, for a fixed list of join graphs and every exact
// enumerator that shares plan.Table, the exact bits of the optimal cost, a
// digest of the rendered plan, a digest of every node of the tree and the
// three instrumentation counters. The lines in testdata/bitidentity.golden
// were generated at the commit before the DP table was rebuilt (PR 17) — the
// larger trees and the IDP2 rows at the commit before Algorithm 2's kernel
// was rebuilt — and must not change when the table or the pruning order
// does. An evaluator change may move one field alone, evaluated=, of the
// rows of the enumerator it changed, and only by examining a different
// number of candidate pairs: cost, explain, tree, ccp and sets are the plan
// and the census, and stay byte-identical on every row. The CPU MPDP rows'
// evaluated= moved once that way, when Algorithm 3 began to find each
// block pair from one side only (grid-4x4 992 300 → 752 983,
// triangle-ring-7 76 826 → 53 867, musicbrainz-16 28 132 → 27 628).
package repro

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/heuristic"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/workload"
)

var updateBitIdentity = flag.Bool("update-bitidentity", false, "rewrite testdata/bitidentity.golden from the current enumerators")

// bitIdentityCase is one join graph of the fixed list. baselines marks the
// graphs on which the two vertex-based baselines are run too: DPSub walks
// 2^|S| subsets per set and DPSize the cross product of two size classes,
// which on the larger sparse graphs is minutes of work that pins nothing the
// smaller ones do not. wide marks the graphs run through the multi-device
// GPU model as well, whose tree path is the level barrier the service's gpu
// route reaches, and large the ones only a heuristic takes.
type bitIdentityCase struct {
	name      string
	q         *cost.Query
	baselines bool
	wide      bool
	large     bool
}

func bitIdentityCases(t *testing.T) []bitIdentityCase {
	t.Helper()
	var out []bitIdentityCase
	generate := func(kind workload.Kind, n int) *cost.Query {
		q, err := workload.Generate(kind, n, rand.New(rand.NewSource(int64(1700+n))))
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	gen := func(kind workload.Kind, baselines bool, sizes ...int) {
		for _, n := range sizes {
			out = append(out, bitIdentityCase{name: fmt.Sprintf("%s-%d", kind, n), q: generate(kind, n), baselines: baselines})
		}
	}
	gen(workload.KindClique, true, 8, 9, 10, 11, 12)
	gen(workload.KindStar, true, 12, 13, 14)
	gen(workload.KindStar, false, 15, 16)
	gen(workload.KindCycle, true, 16)
	gen(workload.KindChain, false, 25)
	gen(workload.KindSnowflake, false, 20)
	gen(workload.KindMB, true, 14, 16)
	rng := rand.New(rand.NewSource(17))
	n, edges := gridEdges(4, 4)
	out = append(out, bitIdentityCase{name: "grid-4x4", q: edgeQuery(n, edges, rng), baselines: true})
	n, edges = twoCyclesEdges(8, 9)
	out = append(out, bitIdentityCase{name: "two-cycles-8+9", q: edgeQuery(n, edges, rng), baselines: true})
	n, edges = triangleRingEdges(7)
	out = append(out, bitIdentityCase{name: "triangle-ring-7", q: edgeQuery(n, edges, rng), baselines: true})

	// Trees past the sizes above, where Algorithm 2 is the whole run, through
	// every level driver that reaches it.
	out = append(out,
		bitIdentityCase{name: "tree-22", q: edgeQuery(22, randomTreeEdges(22, rand.New(rand.NewSource(22))), rng), wide: true},
		bitIdentityCase{name: "snowflake-26", q: generate(workload.KindSnowflake, 26), wide: true},
		bitIdentityCase{name: "chain-40", q: generate(workload.KindChain, 40), wide: true})
	// IDP2's inner DPs run on composite units handed in as dp.Input.Leaves —
	// wrapper leaves whose relation id is the unit's, with an index only
	// where the unit is still a plain scan — which no graph above does.
	out = append(out,
		bitIdentityCase{name: "star-60", q: generate(workload.KindStar, 60), large: true},
		bitIdentityCase{name: "snowflake-60", q: generate(workload.KindSnowflake, 60), large: true})
	return out
}

// randomTreeEdges is a random recursive tree under a random relabelling, so
// that an edge's lower-numbered end is as often the child as the parent.
func randomTreeEdges(n int, rng *rand.Rand) [][2]int {
	label := rng.Perm(n)
	edges := make([][2]int, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{label[v], label[rng.Intn(v)]})
	}
	return edges
}

// idp2 is IDP2 as a dp.Func; a heuristic has no counters to report.
func idp2(in dp.Input) (*plan.Node, dp.Stats, error) {
	p, err := heuristic.IDP2(in.Q, heuristic.Options{Model: in.M, Threads: in.Threads, Workspace: in.Workspace})
	return p, dp.Stats{}, err
}

func withThreads(f dp.Func, threads int) dp.Func {
	return func(in dp.Input) (*plan.Node, dp.Stats, error) {
		in.Threads = threads
		return f(in)
	}
}

// bitIdentityAlgs: every enumerator that reads and writes plan.Table on the
// serving path, plus the two vertex-based baselines. Each runs on the cases
// of its class: exact ones on every graph of at most 64 relations (the
// baselines and the multi-device model where the case asks for them), IDP2
// on the large ones.
var bitIdentityAlgs = []struct {
	name     string
	f        dp.Func
	baseline bool
	wide     bool
	large    bool
}{
	{name: "DPCCP", f: dp.DPCCP},
	{name: "MPDP", f: dp.MPDP},
	{name: "MPDP-CPU-1", f: withThreads(parallel.MPDP, 1)},
	{name: "MPDP-CPU-2", f: withThreads(parallel.MPDP, 2)},
	{name: "MPDP-GPU", f: gpuEquiv(1)},
	{name: "MPDP-GPU-2", f: gpuEquiv(2), wide: true},
	{name: "DPSub", f: dp.DPSub, baseline: true},
	{name: "DPSize", f: dp.DPSize, baseline: true},
	{name: "IDP2-1", f: withThreads(idp2, 1), large: true},
	{name: "IDP2-2", f: withThreads(idp2, 2), large: true},
}

// treeDigest hashes every node of the plan in preorder with the exact bits
// of its cardinality and cost, which the rendered text rounds away.
func treeDigest(p *plan.Node) uint64 {
	h := fnv.New64a()
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		fmt.Fprintf(h, "%x/%d/%d/%x/%x;", uint64(n.Set), n.Op, n.RelID, math.Float64bits(n.Rows), math.Float64bits(n.Cost))
		if !n.IsLeaf() {
			walk(n.Left)
			walk(n.Right)
		}
	}
	walk(p)
	return h.Sum64()
}

func bitIdentityLine(label, alg string, q *cost.Query, p *plan.Node, st dp.Stats) string {
	h := fnv.New64a()
	h.Write([]byte(core.Explain(q, p)))
	if st == (dp.Stats{}) {
		return fmt.Sprintf("%s %s cost=%016x explain=%016x tree=%016x", label, alg, math.Float64bits(p.Cost), h.Sum64(), treeDigest(p))
	}
	// "seeded=0" is what is left of the warm-start column: the golden's cold
	// lines predate the sub-plan memo's removal and stay byte-identical.
	return fmt.Sprintf("%s %s cost=%016x explain=%016x tree=%016x evaluated=%d ccp=%d sets=%d seeded=0",
		label, alg, math.Float64bits(p.Cost), h.Sum64(), treeDigest(p), st.Evaluated, st.CCP, st.ConnectedSets)
}

// bitIdentityRow is one (join graph, enumerator) line of the golden.
type bitIdentityRow struct {
	tc  bitIdentityCase
	alg int // index into bitIdentityAlgs
}

// bitIdentityLines runs the rows in the order given, each on ws, and returns
// their lines sorted, as the golden stores them.
func bitIdentityLines(t *testing.T, rows []bitIdentityRow, ws *dp.Workspace) []string {
	t.Helper()
	lines := make([]string, 0, len(rows))
	for _, r := range rows {
		alg := bitIdentityAlgs[r.alg]
		p, st, err := alg.f(dp.Input{Q: r.tc.q, M: cost.DefaultModel(), Workspace: ws})
		if err != nil {
			t.Fatalf("%s: %s: %v", r.tc.name, alg.name, err)
		}
		// The line is taken at once: on a workspace the tree dies with the next run.
		lines = append(lines, bitIdentityLine(r.tc.name, alg.name, r.tc.q, p, st))
	}
	sort.Strings(lines)
	return lines
}

func TestBitIdentityAcrossEnumerators(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every enumerator on 25 join graphs, twice")
	}
	var rows []bitIdentityRow
	for _, tc := range bitIdentityCases(t) {
		for i, alg := range bitIdentityAlgs {
			if alg.baseline && !tc.baselines || alg.wide && !tc.wide || alg.large != tc.large {
				continue
			}
			rows = append(rows, bitIdentityRow{tc, i})
		}
	}
	lines := bitIdentityLines(t, rows, nil)

	path := filepath.Join("testdata", "bitidentity.golden")
	if *updateBitIdentity {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	check := func(what string, lines []string) {
		t.Helper()
		if len(wantLines) != len(lines) {
			t.Fatalf("%s: %d lines, golden has %d", what, len(lines), len(wantLines))
		}
		for i := range lines {
			if lines[i] != wantLines[i] {
				t.Errorf("%s drifted from the golden:\n got: %s\nwant: %s", what, lines[i], wantLines[i])
			}
		}
	}
	check("a run without a workspace", lines)

	// The same rows once more, shuffled, all on one workspace nobody cleans:
	// every run finds the table, census, winners, scratch and arena of some
	// other enumerator on some other graph, sequential after two-threaded
	// and back. No bit of the golden may depend on that.
	rand.New(rand.NewSource(20)).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	check("a run on a dirty workspace", bitIdentityLines(t, rows, new(dp.Workspace)))
}
