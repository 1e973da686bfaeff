// Bit-identity goldens: the equivalence suite compares enumerators to 1e-9,
// which a reordered floating-point operand or a tie that flipped passes.
// This suite pins, for a fixed list of join graphs and every exact
// enumerator that shares plan.Table, the exact bits of the optimal cost, a
// digest of the rendered plan, a digest of every node of the tree and the
// three instrumentation counters. The lines in testdata/bitidentity.golden
// were generated at the commit before the DP table was rebuilt (PR 17) and
// must not change when the table, the pruning order or an evaluator does.
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
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/workload"
)

var updateBitIdentity = flag.Bool("update-bitidentity", false, "rewrite testdata/bitidentity.golden from the current enumerators")

// bitIdentityCase is one join graph of the fixed list. baselines marks the
// graphs on which the two vertex-based baselines are run too: DPSub walks
// 2^|S| subsets per set and DPSize the cross product of two size classes,
// which on the larger sparse graphs is minutes of work that pins nothing the
// smaller ones do not.
type bitIdentityCase struct {
	name      string
	q         *cost.Query
	baselines bool
}

func bitIdentityCases(t *testing.T) []bitIdentityCase {
	t.Helper()
	var out []bitIdentityCase
	gen := func(kind workload.Kind, baselines bool, sizes ...int) {
		for _, n := range sizes {
			q, err := workload.Generate(kind, n, rand.New(rand.NewSource(int64(1700+n))))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, bitIdentityCase{fmt.Sprintf("%s-%d", kind, n), q, baselines})
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
	out = append(out, bitIdentityCase{"grid-4x4", edgeQuery(n, edges, rng), true})
	n, edges = twoCyclesEdges(8, 9)
	out = append(out, bitIdentityCase{"two-cycles-8+9", edgeQuery(n, edges, rng), true})
	n, edges = triangleRingEdges(7)
	out = append(out, bitIdentityCase{"triangle-ring-7", edgeQuery(n, edges, rng), true})
	return out
}

func withThreads(f dp.Func, threads int) dp.Func {
	return func(in dp.Input) (*plan.Node, dp.Stats, error) {
		in.Threads = threads
		return f(in)
	}
}

// bitIdentityAlgs: every enumerator that reads and writes plan.Table on the
// serving path, plus the two vertex-based baselines.
var bitIdentityAlgs = []struct {
	name     string
	f        dp.Func
	baseline bool
}{
	{"DPCCP", dp.DPCCP, false},
	{"MPDP", dp.MPDP, false},
	{"MPDP-CPU-1", withThreads(parallel.MPDP, 1), false},
	{"MPDP-CPU-2", withThreads(parallel.MPDP, 2), false},
	{"MPDP-GPU", gpuEquiv(1), false},
	{"DPSub", dp.DPSub, true},
	{"DPSize", dp.DPSize, true},
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
		t.Skip("runs every enumerator on 20 join graphs, twice")
	}
	var rows []bitIdentityRow
	for _, tc := range bitIdentityCases(t) {
		for i, alg := range bitIdentityAlgs {
			if alg.baseline && !tc.baselines {
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
