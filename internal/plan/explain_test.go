package plan

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/explain_*.golden from the current renderer")

// explainCases are the plan shapes whose rendering is pinned byte for byte:
// the benchmark re-parses every rendered plan, and clients diff them.
func explainCases() map[string]struct {
	plan  *Node
	names []string
} {
	op := func(o Op, l, r *Node, rows, cost float64) *Node {
		n := join(l, r)
		n.Op, n.Rows, n.Cost = o, rows, cost
		return n
	}
	names := []string{"artist", "release", "release_group", "medium", "track"}
	a, b, c, d, e := leaf(0, 1e6, 4424.5), leaf(1, 2.5e6, 11061.95), leaf(2, 12, 0.05), leaf(3, 0.4, 1), leaf(4, 7e12, 1e15)
	return map[string]struct {
		plan  *Node
		names []string
	}{
		"leaf":       {leaf(1, 2.5e6, 11061.95), names},
		"leaf_index": {leaf(3, 42, 0), nil},
		"left_deep":  {op(OpIndexNestLoop, op(OpMergeJoin, op(OpHashJoin, a, b, 3.25e9, 123456.789), c, 0.5, 2e5+0.05), d, 1, 200001.25), names},
		"bushy":      {op(OpNestLoop, op(OpHashJoin, a, b, 1e21, 1e22+0.5), op(OpMergeJoin, c, op(OpHashJoin, d, e, 2.8e12, 1.5), 99.5, 100.45), 2.8e33, 1e34+1), names},
		"inf":        {op(OpHashJoin, op(OpNestLoop, a, b, math.Inf(1), math.Inf(1)), leaf(2, math.NaN(), math.Inf(-1)), math.Inf(1), math.Inf(1)), nil},
	}
}

func TestExplainGolden(t *testing.T) {
	for name, tc := range explainCases() {
		got := tc.plan.Explain(tc.names)
		path := filepath.Join("testdata", "explain_"+name+".golden")
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: Explain drifted from its golden:\n got:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// fmtExplain is the fmt-based renderer Explain replaced, kept as the test's
// reference: the append-based one must agree with it on every float.
func fmtExplain(b *strings.Builder, n *Node, names []string, indent int) {
	pad := strings.Repeat("  ", indent)
	if n.IsLeaf() {
		name := fmt.Sprintf("R%d", n.RelID)
		if names != nil {
			name = names[n.RelID]
		}
		fmt.Fprintf(b, "%sScan %s  (rows=%.0f cost=%.1f)\n", pad, name, n.Rows, n.Cost)
		return
	}
	fmt.Fprintf(b, "%s%s  (rows=%.0f cost=%.1f)\n", pad, n.Op, n.Rows, n.Cost)
	fmtExplain(b, n.Left, names, indent+1)
	fmtExplain(b, n.Right, names, indent+1)
}

func TestExplainMatchesFmtReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	float := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return math.Inf(1)
		case 1:
			return 0
		case 2:
			return math.Float64frombits(rng.Uint64()) // any magnitude, NaNs and negatives included
		}
		return math.Exp(rng.Float64()*80 - 10)
	}
	var build func(lo, hi int) *Node
	build = func(lo, hi int) *Node {
		if hi-lo == 1 {
			return leaf(lo, float(), float())
		}
		mid := lo + 1 + rng.Intn(hi-lo-1)
		n := join(build(lo, mid), build(mid, hi))
		n.Op, n.Rows, n.Cost = Op(1+rng.Intn(4)), float(), float()
		return n
	}
	for i := 0; i < 200; i++ {
		p := build(0, 1+rng.Intn(20))
		var want strings.Builder
		fmtExplain(&want, p, nil, 0)
		if got := p.Explain(nil); got != want.String() {
			t.Fatalf("plan %d: Explain differs from the fmt reference:\n got:\n%s\nwant:\n%s", i, got, want.String())
		}
	}
}
