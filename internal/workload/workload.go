// Package workload generates the query suites of the paper's evaluation
// (§7): synthetic star, snowflake, chain, cycle and clique queries of a
// given relation count, and MusicBrainz random-walk queries over PK-FK
// joins. Generation is deterministic for a given seed.
//
// Join selectivities are derived from the *unfiltered* primary-key
// cardinality (1/|PK|); local selections then shrink the base relations.
// This is the standard System-R estimation semantics and is what makes join
// orders differ in cost: joining through a heavily filtered dimension early
// shrinks every downstream intermediate.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/graph"
)

// Kind names a workload family.
type Kind string

// Workload families used across the experiments.
const (
	KindStar      Kind = "star"
	KindSnowflake Kind = "snowflake"
	KindChain     Kind = "chain"
	KindCycle     Kind = "cycle"
	KindClique    Kind = "clique"
	KindMB        Kind = "musicbrainz"
)

// pkSel returns the selectivity of a PK-FK equi-join where the PK side has
// pkRows tuples before filtering: 1/pkRows.
func pkSel(pkRows float64) float64 {
	if pkRows < 1 {
		pkRows = 1
	}
	return 1 / pkRows
}

// Star returns an n-relation star query: dimension i joins the fact table on
// the dimension's primary key. Dimensions carry random selections (as in
// §7.3, "we generate queries with selections so that different join orders
// would result in different costs").
func Star(n int, rng *rand.Rand) *cost.Query {
	cat := catalog.StarCatalog(n)
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i, pkSel(cat.Rels[i].Rows))
	}
	applySelections(cat.Rels[1:], rng)
	return &cost.Query{Cat: cat, G: g}
}

// Snowflake returns an n-relation snowflake query with arms of depth <= 4,
// matching the paper's synthetic snowflake workload (§7.2.1). Following
// §7.3, snowflake queries use pure PK-FK joins with no extra selections
// (the paper adds selections only to the star schema); rng is accepted for
// interface uniformity and future variations.
func Snowflake(n int, rng *rand.Rand) *cost.Query {
	_ = rng
	const depth = 4
	cat := catalog.SnowflakeCatalog(n, depth)
	shape := graph.SnowflakeN(n, depth)
	g := graph.New(n)
	for _, e := range shape.Edges {
		// The deeper endpoint is the PK side.
		pk := e.B
		if e.A > e.B {
			pk = e.A
		}
		g.AddEdge(e.A, e.B, pkSel(cat.Rels[pk].Rows))
	}
	return &cost.Query{Cat: cat, G: g}
}

// Chain returns an n-relation chain query.
func Chain(n int, rng *rand.Rand) *cost.Query {
	cat := catalog.UniformCatalog(n)
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i-1, i, pkSel(math.Min(cat.Rels[i-1].Rows, cat.Rels[i].Rows)))
	}
	applySelections(cat.Rels, rng)
	return &cost.Query{Cat: cat, G: g}
}

// Cycle returns an n-relation cycle query.
func Cycle(n int, rng *rand.Rand) *cost.Query {
	cat := catalog.UniformCatalog(n)
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i-1, i, pkSel(math.Min(cat.Rels[i-1].Rows, cat.Rels[i].Rows)))
	}
	if n >= 3 {
		g.AddEdge(n-1, 0, pkSel(math.Min(cat.Rels[n-1].Rows, cat.Rels[0].Rows)))
	}
	applySelections(cat.Rels, rng)
	return &cost.Query{Cat: cat, G: g}
}

// Clique returns an n-relation clique query: every pair of relations is
// joined (equivalently, the cross-join scenario of §7.2.1).
func Clique(n int, rng *rand.Rand) *cost.Query {
	cat := catalog.UniformCatalog(n)
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j, pkSel(math.Min(cat.Rels[i].Rows, cat.Rels[j].Rows))*10)
		}
	}
	applySelections(cat.Rels, rng)
	return &cost.Query{Cat: cat, G: g}
}

// applySelections shrinks each relation by a random filter factor, modeling
// local predicates. Factors span two orders of magnitude so join orders
// differ meaningfully in cost.
func applySelections(rels []catalog.Relation, rng *rand.Rand) {
	for i := range rels {
		f := math.Pow(10, -2*rng.Float64())
		rels[i].Rows = math.Max(1, rels[i].Rows*f)
	}
}

// Generate builds one query of the given family and size.
func Generate(kind Kind, n int, rng *rand.Rand) (*cost.Query, error) {
	switch kind {
	case KindStar:
		return Star(n, rng), nil
	case KindSnowflake:
		return Snowflake(n, rng), nil
	case KindChain:
		return Chain(n, rng), nil
	case KindCycle:
		return Cycle(n, rng), nil
	case KindClique:
		return Clique(n, rng), nil
	case KindMB:
		return MusicBrainzQuery(n, rng), nil
	}
	return nil, fmt.Errorf("workload: unknown kind %q", kind)
}

// PermuteQuery relabels q's relations through perm (perm[old] = new),
// producing a structurally identical query whose relations are renamed and
// reordered — the same join problem as written by a different client.
// Canonical fingerprinting (internal/service) must treat both as one query;
// tests, examples and benchmarks use this to generate isomorphic twins.
func PermuteQuery(q *cost.Query, perm []int) *cost.Query {
	n := q.N()
	rels := make([]catalog.Relation, n)
	for i, r := range q.Cat.Rels {
		r.Name = fmt.Sprintf("renamed_%d", perm[i])
		rels[perm[i]] = r
	}
	var cat catalog.Catalog
	for _, r := range rels {
		cat.Add(r)
	}
	g := graph.New(n)
	for _, e := range q.G.Edges {
		g.AddEdge(perm[e.A], perm[e.B], e.Sel)
	}
	return &cost.Query{Cat: cat, G: g}
}
