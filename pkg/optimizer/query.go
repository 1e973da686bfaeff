package optimizer

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/internal/sql"
)

// Query is one join-order optimization problem: relations with statistics
// plus a join graph whose edges carry predicate selectivities. Build one
// with NewQueryBuilder, Catalog.Query, CompileSQL or the workload
// constructors; a Query is immutable and safe to share across goroutines
// and drivers.
//
// The immutability is load-bearing: a Query derives its canonical
// fingerprint and its encoded wire body on first use and keeps them, so
// asking the same Query again costs a driver neither a canonicalisation nor
// a JSON encoding. Always handle a Query by pointer; it must not be copied.
type Query struct {
	q *cost.Query

	prepOnce sync.Once
	prep     *service.Prepared

	wireOnce sync.Once
	wire     []byte
	wireErr  error
}

// prepared returns the query with its canonical fingerprint, computed once.
func (q *Query) prepared() *service.Prepared {
	q.prepOnce.Do(func() { q.prep = service.Prepare(q.q) })
	return q.prep
}

// wireBody returns the query's /v1 request body, encoded once. Callers only
// read it.
func (q *Query) wireBody() ([]byte, error) {
	q.wireOnce.Do(func() { q.wire, q.wireErr = json.Marshal(httpapi.FromQuery(q.q)) })
	return q.wire, q.wireErr
}

// Relations returns the number of relations.
func (q *Query) Relations() int { return q.q.N() }

// Joins returns the number of join predicates (graph edges).
func (q *Query) Joins() int { return len(q.q.G.Edges) }

// Names returns the relation names, indexed by relation id.
func (q *Query) Names() []string { return q.q.Names() }

// Rel is an opaque handle to a relation added to a builder or catalog.
type Rel int

// RelStats describes one relation's optimizer-visible statistics.
type RelStats struct {
	// Rows is the estimated tuple count after local selections.
	Rows float64
	// Width is the average tuple width in bytes (0: 100). Pages are
	// derived from Rows and Width unless set explicitly.
	Width int
	// Pages overrides the derived heap page count when non-zero.
	Pages float64
	// PKIndex marks a usable primary-key index, enabling the
	// index-nested-loop path of the cost model.
	PKIndex bool
}

// validate rejects rows the cost model cannot use: not a number, infinite
// or negative.
func (s RelStats) validate(name string) error {
	if !(s.Rows >= 0 && s.Rows <= math.MaxFloat64) {
		return fmt.Errorf("optimizer: relation %q: rows %g is not a finite non-negative number", name, s.Rows)
	}
	return nil
}

func (s RelStats) toRelation(name string) catalog.Relation {
	width := s.Width
	if width == 0 {
		width = 100
	}
	rel := catalog.NewRelation(name, s.Rows, width)
	rel.HasPKIndex = s.PKIndex
	if s.Pages > 0 {
		rel.Pages = s.Pages
	}
	if s.Width == 0 {
		rel.Width = width
	}
	return rel
}

// Catalog is a reusable collection of relation statistics: add relations
// once, then derive any number of queries joining subsets of them.
type Catalog struct {
	cat catalog.Catalog
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{} }

// Relation registers a relation and returns its handle. Rows that are not
// a finite non-negative number are an error, and nothing is registered.
func (c *Catalog) Relation(name string, stats RelStats) (Rel, error) {
	if err := stats.validate(name); err != nil {
		return -1, err
	}
	return Rel(c.cat.Add(stats.toRelation(name))), nil
}

// Len returns the number of registered relations.
func (c *Catalog) Len() int { return c.cat.Len() }

// UpdateStats replaces a relation's statistics in place. Queries already
// built keep the statistics they were built with (builders copy relations
// out of the catalog); only queries built afterwards see the update —
// which is exactly the staleness boundary the servers' stats epoch tracks.
// Pair it with CacheController.UpdateStats to tell a serving driver the
// statistics moved.
func (c *Catalog) UpdateStats(r Rel, stats RelStats) error {
	if int(r) < 0 || int(r) >= c.cat.Len() {
		return fmt.Errorf("optimizer: unknown relation handle %d", r)
	}
	name := c.cat.Rel(int(r)).Name
	if err := stats.validate(name); err != nil {
		return err
	}
	c.cat.Rels[r] = stats.toRelation(name)
	return nil
}

// Query starts a builder joining relations of this catalog. Only the
// relations actually referenced by AddRelation appear in the query, in
// call order.
func (c *Catalog) Query() *QueryBuilder {
	return &QueryBuilder{from: c, indexOf: make(map[Rel]int)}
}

// QueryBuilder assembles a Query: relations first, then the join
// predicates between them. The zero value is not usable; construct with
// NewQueryBuilder or Catalog.Query.
type QueryBuilder struct {
	from    *Catalog // nil for standalone builders
	indexOf map[Rel]int
	cat     catalog.Catalog
	edges   []graph.Edge
	err     error
}

// NewQueryBuilder starts a standalone builder with its own implicit
// catalog.
func NewQueryBuilder() *QueryBuilder {
	return &QueryBuilder{indexOf: make(map[Rel]int)}
}

// Relation adds a relation with its statistics and returns its handle
// (standalone builders only). Rows that are not a finite non-negative
// number fail the builder.
func (b *QueryBuilder) Relation(name string, stats RelStats) Rel {
	if b.from != nil {
		b.fail(fmt.Errorf("optimizer: Relation on a catalog-backed builder; use AddRelation"))
		return -1
	}
	if err := stats.validate(name); err != nil {
		b.fail(err)
		return -1
	}
	id := Rel(b.cat.Add(stats.toRelation(name)))
	b.indexOf[id] = int(id)
	return id
}

// AddRelation brings a catalog relation into the query (catalog-backed
// builders only). Adding the same relation twice is an error.
func (b *QueryBuilder) AddRelation(r Rel) *QueryBuilder {
	if b.from == nil {
		b.fail(fmt.Errorf("optimizer: AddRelation on a standalone builder; use Relation"))
		return b
	}
	if int(r) < 0 || int(r) >= b.from.cat.Len() {
		b.fail(fmt.Errorf("optimizer: unknown relation handle %d", r))
		return b
	}
	if _, dup := b.indexOf[r]; dup {
		b.fail(fmt.Errorf("optimizer: relation %q added twice", b.from.cat.Rel(int(r)).Name))
		return b
	}
	b.indexOf[r] = b.cat.Add(b.from.cat.Rel(int(r)))
	return b
}

// Join adds a join predicate between two previously added relations with
// the given selectivity in (0, 1].
func (b *QueryBuilder) Join(x, y Rel, sel float64) *QueryBuilder {
	ix, okx := b.indexOf[x]
	iy, oky := b.indexOf[y]
	switch {
	case !okx || !oky:
		b.fail(fmt.Errorf("optimizer: join references a relation not in the query"))
	case ix == iy:
		b.fail(fmt.Errorf("optimizer: self-join on one relation handle"))
	case !(sel > 0 && sel <= 1):
		b.fail(fmt.Errorf("optimizer: join selectivity %g outside (0, 1]", sel))
	default:
		b.edges = append(b.edges, graph.Edge{A: ix, B: iy, Sel: sel})
	}
	return b
}

func (b *QueryBuilder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Build validates and freezes the query. The join graph must be connected
// (the optimizers consider no cross products).
func (b *QueryBuilder) Build() (*Query, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := b.cat.Len()
	if n == 0 {
		return nil, fmt.Errorf("optimizer: query has no relations")
	}
	g := graph.New(n)
	for _, e := range b.edges {
		g.AddEdge(e.A, e.B, e.Sel)
	}
	return &Query{q: &cost.Query{Cat: b.cat, G: g}}, nil
}

// CompileSQL parses and binds one SQL statement in the internal dialect
// against the built-in MusicBrainz schema — the same path the servers use
// for text requests.
func CompileSQL(statement string) (*Query, error) {
	bound, err := sql.Compile(statement, sql.MusicBrainzSchema())
	if err != nil {
		return nil, err
	}
	return &Query{q: bound.Query}, nil
}
