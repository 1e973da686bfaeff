// Package cost implements the PostgreSQL-like cost model of §7.1: cardinality
// estimation from per-edge join selectivities, and operator costing for
// sequential scans, hash joins, (index) nested loops and merge joins. The
// paper deliberately replaces PostgreSQL's full cost model with a close
// approximation restricted to inner equi-joins (footnote 7); this package is
// that approximation.
package cost

import (
	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/graph"
)

// Query bundles everything the optimizer needs about one input query: the
// relations (with statistics) and the join graph whose edges carry predicate
// selectivities.
type Query struct {
	Cat catalog.Catalog
	G   *graph.Graph
}

// N returns the number of relations in the FROM clause.
func (q *Query) N() int { return q.G.N }

// Rows returns the estimated base cardinality of relation i.
func (q *Query) Rows(i int) float64 { return q.Cat.Rels[i].Rows }

// Name returns relation i's name; it makes a Query a plan.Namer.
func (q *Query) Name(i int) string { return q.Cat.Rels[i].Name }

// Names returns the relation names indexed by relation id.
func (q *Query) Names() []string {
	names := make([]string, q.N())
	for i := range names {
		names[i] = q.Cat.Rels[i].Name
	}
	return names
}

// SelBetween returns the product of the selectivities of all join edges with
// one endpoint in l and the other in r. Valid for queries of <= 64 relations.
func (q *Query) SelBetween(l, r bitset.Mask) float64 {
	// Delegated to the graph's adjacency-indexed selectivity walk: the same
	// iteration order and arithmetic as the historical per-edge map lookups,
	// minus the map probes (this runs once per candidate join pair).
	return q.G.CrossSel(l, r)
}

// SelBetweenSets is SelBetween for dynamic sets (queries of any size).
func (q *Query) SelBetweenSets(l, r bitset.Set) float64 {
	sel := 1.0
	if r.Count() < l.Count() {
		l, r = r, l
	}
	l.ForEach(func(v int) {
		sels := q.G.NeighborSels(v)
		for j, w := range q.G.Neighbors(v) {
			if r.Has(w) {
				sel *= sels[j]
			}
		}
	})
	return sel
}

// SubsetRows returns the estimated cardinality of the join of the relations
// in s: the product of base cardinalities times the selectivity of every
// edge internal to s. This estimate is order-independent, so any join order
// over s produces the same output cardinality.
func (q *Query) SubsetRows(s bitset.Mask) float64 {
	rows := 1.0
	s.ForEach(func(v int) { rows *= q.Rows(v) })
	for _, e := range q.G.Edges {
		if s.Has(e.A) && s.Has(e.B) {
			rows *= e.Sel
		}
	}
	return rows
}
