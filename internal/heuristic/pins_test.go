package heuristic

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/workload"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/pins.golden from the current heuristics")

// pinQueries are the join graphs whose heuristic plans are pinned bit for
// bit: every large-query family of 14 to 120 relations, cliques included,
// and the cycle-200 that heuristic-large draws most often. heavy marks the cliques past 15, where IDP2 and UnionDP are one
// clique-15 MPDP after another and pin nothing the smaller rows do not.
func pinQueries(t *testing.T) []struct {
	name  string
	q     *cost.Query
	heavy bool
} {
	t.Helper()
	var out []struct {
		name  string
		q     *cost.Query
		heavy bool
	}
	for _, f := range []struct {
		kind  workload.Kind
		sizes []int
	}{
		{workload.KindChain, []int{14, 60, 120}},
		{workload.KindCycle, []int{14, 42, 64, 120, 200}},
		{workload.KindStar, []int{14, 60, 120}},
		{workload.KindSnowflake, []int{20, 60, 120}},
		{workload.KindMB, []int{14, 20, 42, 56}},
		{workload.KindClique, []int{14, 17, 20, 40}},
	} {
		for _, n := range f.sizes {
			q, err := workload.Generate(f.kind, n, rand.New(rand.NewSource(int64(4100+n))))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, struct {
				name  string
				q     *cost.Query
				heavy bool
			}{fmt.Sprintf("%s-%d", f.kind, n), q, f.kind == workload.KindClique && n > 15})
		}
	}
	return out
}

// pinTreeDigest hashes every node of a plan in preorder with the exact bits
// of its cardinality and cost.
func pinTreeDigest(p *plan.Node) uint64 {
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

func pinDigest(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// TestHeuristicPins holds IKKBZ's orders, the plans of GOO, IKKBZ, LinDP,
// the adaptive LinDP, IDP2 and UnionDP, and their rendered EXPLAIN text (with
// relation names and without), to testdata/pins.golden, which was generated
// before the IKKBZ chains, the LinDP interval table, IDP2's window loop and
// EXPLAIN's buffer were rebuilt. A rewrite of any of them changes no byte of
// it. Regenerate only on purpose: -update-pins.
func TestHeuristicPins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every heuristic on 23 graphs")
	}
	var lines []string
	for _, pq := range pinQueries(t) {
		order, err := IKKBZOrder(pq.q, Options{})
		if err != nil {
			t.Fatalf("IKKBZOrder on %s: %v", pq.name, err)
		}
		lines = append(lines, fmt.Sprintf("%s IKKBZOrder order=%016x", pq.name, pinDigest(fmt.Sprint(order))))
		for _, h := range allHeuristics {
			if pq.heavy && (h.name == "IDP2" || h.name == "UnionDP") {
				continue
			}
			p, err := h.f(pq.q, Options{Threads: 1})
			if err != nil {
				t.Fatalf("%s on %s: %v", h.name, pq.name, err)
			}
			lines = append(lines, fmt.Sprintf("%s %s cost=%016x explain=%016x bare=%016x tree=%016x",
				pq.name, h.name, math.Float64bits(p.Cost), pinDigest(p.Explain(pq.q)),
				pinDigest(p.Explain(nil)), pinTreeDigest(p)))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "pins.golden")
	if *updatePins {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%d pinned lines, the golden has %d", len(lines), len(wantLines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("drifted from the golden:\n got: %s\nwant: %s", lines[i], wantLines[i])
		}
	}
}
