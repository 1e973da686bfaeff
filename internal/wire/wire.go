// Package wire holds the JSON wire form of an optimizer query: the one
// serialization both the public /v1 HTTP surface (internal/httpapi) and the
// cluster's socket transport (internal/cluster's HTTPTransport) put on the
// network. It lives in its own leaf package because httpapi depends on
// cluster (to adapt the coordinator as an Engine) while cluster's transport
// needs the same wire types — a shared leaf is what keeps the two
// serializations from drifting apart without an import cycle.
package wire

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/sql"
)

// Relation is one base relation of a structured wire query.
type Relation struct {
	Name string  `json:"name"`
	Rows float64 `json:"rows"`
	// Pages, when zero, is derived from Rows and Width the same way the
	// catalog does for SQL-bound queries.
	Pages   float64 `json:"pages,omitempty"`
	Width   int     `json:"width,omitempty"`
	PKIndex bool    `json:"pk_index,omitempty"`
}

// Edge is one join predicate of a structured wire query.
type Edge struct {
	A   int     `json:"a"`
	B   int     `json:"b"`
	Sel float64 `json:"sel"`
}

// Query is the JSON wire form of one optimization request: either a SQL
// statement in the internal dialect (bound against the server's schema) or
// an explicit catalog + join graph, which lets clients ship
// programmatically built queries with exact statistics.
type Query struct {
	SQL       string     `json:"sql,omitempty"`
	Relations []Relation `json:"relations,omitempty"`
	Edges     []Edge     `json:"edges,omitempty"`
}

// ToQuery materializes the wire query against schema. Structured queries
// (no SQL) never consult the schema, so a nil schema is valid for them.
func (wq *Query) ToQuery(schema sql.Schema) (*cost.Query, error) {
	if wq.SQL != "" {
		if len(wq.Relations) > 0 || len(wq.Edges) > 0 {
			return nil, fmt.Errorf("wire query carries both sql and relations")
		}
		bound, err := sql.Compile(wq.SQL, schema)
		if err != nil {
			return nil, err
		}
		return bound.Query, nil
	}
	n := len(wq.Relations)
	if n == 0 {
		return nil, fmt.Errorf("wire query has no sql and no relations")
	}
	var cat catalog.Catalog
	for i, r := range wq.Relations {
		if r.Name == "" {
			return nil, fmt.Errorf("relation %d has no name", i)
		}
		if r.Rows < 0 {
			return nil, fmt.Errorf("relation %q has negative rows", r.Name)
		}
		rel := catalog.Relation{
			Name: r.Name, Rows: r.Rows, Pages: r.Pages, Width: r.Width,
			HasPKIndex: r.PKIndex,
		}
		if rel.Pages == 0 {
			width := rel.Width
			if width == 0 {
				width = 100
			}
			derived := catalog.NewRelation(r.Name, r.Rows, width)
			derived.HasPKIndex = r.PKIndex
			rel = derived
			rel.Width = r.Width
		}
		cat.Add(rel)
	}
	g := graph.New(n)
	for _, e := range wq.Edges {
		if e.A < 0 || e.A >= n || e.B < 0 || e.B >= n || e.A == e.B {
			return nil, fmt.Errorf("edge (%d,%d) out of range for %d relations", e.A, e.B, n)
		}
		if e.Sel <= 0 {
			return nil, fmt.Errorf("edge (%d,%d) has non-positive selectivity %g", e.A, e.B, e.Sel)
		}
		g.AddEdge(e.A, e.B, e.Sel)
	}
	// Parallel edges merged by multiplication: a product that underflowed
	// is a predicate nothing satisfies, and would not re-encode as a valid
	// wire query on its way to another node.
	for _, e := range g.Edges {
		if e.Sel <= 0 {
			return nil, fmt.Errorf("edges (%d,%d) multiply to a non-positive selectivity", e.A, e.B)
		}
	}
	return &cost.Query{Cat: cat, G: g}, nil
}

// FromQuery serializes a query into wire form. The round trip through
// ToQuery preserves every statistic bit-for-bit (Go's JSON float encoding
// is exact for float64), so fingerprints and plan costs survive the wire.
func FromQuery(q *cost.Query) *Query {
	wq := &Query{
		Relations: make([]Relation, q.N()),
		Edges:     make([]Edge, 0, len(q.G.Edges)),
	}
	for i, r := range q.Cat.Rels {
		wq.Relations[i] = Relation{
			Name: r.Name, Rows: r.Rows, Pages: r.Pages, Width: r.Width,
			PKIndex: r.HasPKIndex,
		}
	}
	for _, e := range q.G.Edges {
		wq.Edges = append(wq.Edges, Edge{A: e.A, B: e.B, Sel: e.Sel})
	}
	return wq
}
