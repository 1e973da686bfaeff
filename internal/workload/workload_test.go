package workload

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/cost"
)

func fullSet(q *cost.Query) bitset.Set {
	s := bitset.NewSet(q.N())
	for i := 0; i < q.N(); i++ {
		s.Add(i)
	}
	return s
}

func checkQuery(t *testing.T, kind Kind, q *cost.Query, n int) {
	t.Helper()
	if q.N() != n {
		t.Fatalf("%s: got %d relations, want %d", kind, q.N(), n)
	}
	if !q.G.ConnectedSet(fullSet(q)) {
		t.Fatalf("%s(%d): join graph disconnected", kind, n)
	}
	for i := 0; i < n; i++ {
		if q.Rows(i) < 1 {
			t.Errorf("%s: relation %d has %v rows", kind, i, q.Rows(i))
		}
	}
	for _, e := range q.G.Edges {
		if e.Sel <= 0 || e.Sel > 1 {
			t.Errorf("%s: edge (%d,%d) selectivity %v out of (0,1]", kind, e.A, e.B, e.Sel)
		}
	}
}

func TestGenerateAllFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kind := range []Kind{KindStar, KindSnowflake, KindChain, KindCycle, KindClique, KindMB} {
		for _, n := range []int{2, 5, 12, 25} {
			q, err := Generate(kind, n, rng)
			if err != nil {
				t.Fatalf("%s(%d): %v", kind, n, err)
			}
			checkQuery(t, kind, q, n)
		}
	}
}

func TestGenerateDeterministicForSeed(t *testing.T) {
	for _, kind := range []Kind{KindStar, KindMB} {
		a, err := Generate(kind, 15, rand.New(rand.NewSource(99)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(kind, 15, rand.New(rand.NewSource(99)))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 15; i++ {
			if a.Rows(i) != b.Rows(i) {
				t.Fatalf("%s: nondeterministic rows for relation %d", kind, i)
			}
		}
		if len(a.G.Edges) != len(b.G.Edges) {
			t.Fatalf("%s: nondeterministic edge count", kind)
		}
	}
}

func TestStarShape(t *testing.T) {
	q := Star(10, rand.New(rand.NewSource(2)))
	// Every edge touches the fact table (vertex 0).
	for _, e := range q.G.Edges {
		if e.A != 0 && e.B != 0 {
			t.Errorf("star edge (%d,%d) misses the fact table", e.A, e.B)
		}
	}
	if len(q.G.Edges) != 9 {
		t.Errorf("star(10) has %d edges, want 9", len(q.G.Edges))
	}
}

func TestCliqueShape(t *testing.T) {
	q := Clique(7, rand.New(rand.NewSource(3)))
	if len(q.G.Edges) != 21 {
		t.Errorf("clique(7) has %d edges, want 21", len(q.G.Edges))
	}
}

func TestSnowflakeIsTree(t *testing.T) {
	q := Snowflake(25, rand.New(rand.NewSource(4)))
	if !q.G.IsTree() {
		t.Error("snowflake join graph must be a tree")
	}
}

func TestMusicBrainzWalkProducesPKFKSelectivities(t *testing.T) {
	q := MusicBrainzQuery(20, rand.New(rand.NewSource(5)))
	checkQuery(t, KindMB, q, 20)
	// PK-FK joins: every selectivity is 1/|PK| for some table, i.e. < 0.5.
	for _, e := range q.G.Edges {
		if e.Sel >= 0.5 {
			t.Errorf("PK-FK selectivity %v suspiciously high", e.Sel)
		}
	}
}

func TestGenerateUnknownKind(t *testing.T) {
	if _, err := Generate("nonsense", 5, rand.New(rand.NewSource(1))); err == nil {
		t.Error("unknown kind must error")
	}
}
