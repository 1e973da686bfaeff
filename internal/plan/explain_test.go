package plan

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/leaktest"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/explain_*.golden from the current renderer")

// nameList is a Namer over a slice indexed by relation id.
type nameList []string

func (s nameList) Name(i int) string { return s[i] }

// explainCases are the plan shapes whose rendering is pinned byte for byte:
// the benchmark re-parses every rendered plan, and clients diff them.
func explainCases() map[string]struct {
	plan  *Node
	names Namer
} {
	op := func(o Op, l, r *Node, rows, cost float64) *Node {
		n := join(l, r)
		n.Op, n.Rows, n.Cost = o, rows, cost
		return n
	}
	names := nameList{"artist", "release", "release_group", "medium", "track"}
	a, b, c, d, e := leaf(0, 1e6, 4424.5), leaf(1, 2.5e6, 11061.95), leaf(2, 12, 0.05), leaf(3, 0.4, 1), leaf(4, 7e12, 1e15)
	return map[string]struct {
		plan  *Node
		names Namer
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
	// Plans of a thousand relations, left-deep (the deepest indentation
	// there is) and bushy, named and unnamed: the texts a large query's
	// EXPLAIN answers with.
	names := make([]string, 1000)
	for i := range names {
		names[i] = fmt.Sprintf("rel_%d", i)
	}
	deep := leaf(0, float(), float())
	for i := 1; i < 1000; i++ {
		deep = join(deep, leaf(i, float(), float()))
		deep.Op, deep.Rows, deep.Cost = Op(1+rng.Intn(4)), float(), float()
	}
	for _, p := range []*Node{deep, build(0, 1000)} {
		for _, nm := range [][]string{nil, names} {
			var want strings.Builder
			fmtExplain(&want, p, nm, 0)
			var namer Namer
			if nm != nil {
				namer = nameList(nm)
			}
			if got := p.Explain(namer); got != want.String() {
				t.Fatalf("%d-relation plan of depth %d: Explain differs from the fmt reference", p.Size(), p.Depth())
			}
		}
	}
}

// TestAppendFixedIsStrconv pins the renderer to strconv byte for byte, for
// the two precisions Explain uses, on 2 M seeded doubles aimed at where a
// digit count or a rounding can go wrong.
func TestAppendFixedIsStrconv(t *testing.T) {
	var got, want []byte
	check := func(v float64) {
		for p := 0; p <= 1; p++ {
			got, want = appendFixed(got[:0], v, p), strconv.AppendFloat(want[:0], v, 'f', p, 64)
			if string(got) != string(want) {
				t.Fatalf("appendFixed(%v [%#x], %d) = %q, strconv says %q", v, math.Float64bits(v), p, got, want)
			}
		}
	}
	// Every power of ten and its two neighbours, and the values just under a
	// rounding carry at each magnitude (9.5, 99.95, 999.96, ...).
	for e := 0; e <= 17; e++ {
		p := math.Pow(10, float64(e))
		for _, v := range []float64{p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)),
			p - 0.5, p - 0.05, p - 0.04, p - 0.06, math.Nextafter(p-0.5, 0), math.Nextafter(p-0.05, 0)} {
			check(v)
		}
	}
	for _, v := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.MaxFloat64, -1, -999.96, 0.5, 0.95, 0.96, 1, 9.5, 999.96, 1e16 - 2, 1e16} {
		check(v)
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 800_000; i++ {
		check(math.Pow(10, rng.Float64()*18-1)) // log-uniform over 1e-1 … 1e17
	}
	for i := 0; i < 400_000; i++ {
		// Integers of every magnitude, at the ties (±0.5, ±0.05) where the two
		// precisions round and one ulp either side of them.
		n := math.Floor(math.Pow(10, rng.Float64()*16))
		v := n + []float64{0.5, -0.5, 0.05, -0.05, 0.25, 0.75}[i%6]
		check(v)
		check(math.Nextafter(v, 0))
		check(math.Nextafter(v, math.Inf(1)))
	}
	// Raw bit patterns (NaN payloads, denormals, negatives, 1e300) nearly all
	// take the fallback, where strconv writes hundreds of digits: few of them.
	for i := 0; i < 50_000; i++ {
		check(math.Float64frombits(rng.Uint64()))
	}
}

// TestExplainAllocatesOnlyItsString holds Explain to its result: the render
// buffer is recycled scratch (2 allocations before: buffer, then string).
func TestExplainAllocatesOnlyItsString(t *testing.T) {
	if leaktest.RaceEnabled() {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	p := leaf(0, 1234.5, 99.96)
	names := nameList{"r0"}
	for i := 1; i < 14; i++ {
		n := join(p, leaf(i, float64(i)*1e3+0.5, float64(i)*7.77))
		n.Op, n.Rows, n.Cost = OpHashJoin, float64(i)*3.3e5, float64(i)*1e4+0.05
		p = n
		names = append(names, fmt.Sprintf("r%d", i))
	}
	var namer Namer = names
	p.Explain(namer) // fills the pool
	if got := testing.AllocsPerRun(200, func() { p.Explain(namer) }); got > 1 {
		t.Errorf("Explain of a 14-relation plan allocates %v times, want <= 1", got)
	}
}

// TestExplainOfADeepPlanAllocatesItsTextOnce: the text of a 600-deep plan
// is 765 KB, 718 KB of it indentation. Explain measures the text before it
// writes it, so the call allocates the string once at its size, where a
// buffer regrown by doubling and copied into the string cost 4-8 times the
// text.
func TestExplainOfADeepPlanAllocatesItsTextOnce(t *testing.T) {
	if leaktest.RaceEnabled() {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	p := leaf(0, 1234.5, 99.96)
	for i := 1; i < 600; i++ {
		p = join(p, leaf(i, float64(i)*1e3+0.5, float64(i)*7.77))
		p.Op, p.Rows, p.Cost = OpHashJoin, float64(i)*3.3e5, float64(i)*1e4+0.05
	}
	text := len(p.Explain(nil)) // also fills the pool
	if got := testing.AllocsPerRun(20, func() { p.Explain(nil) }); got > 2 {
		t.Errorf("Explain of a 600-deep plan allocates %v times, want <= 2", got)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Explain(nil)
		}
	})
	if got := res.AllocedBytesPerOp(); float64(got) > 1.5*float64(text) {
		t.Errorf("Explain of a 600-deep plan allocates %d B for %d B of text, want <= 1.5x", got, text)
	} else {
		t.Logf("%d B allocated for %d B of text, %d allocations", got, text, res.AllocsPerOp())
	}
}
