package sql

import (
	"fmt"
	"math"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/graph"
)

// Table describes one bindable table: base statistics plus per-column
// distinct counts for selectivity estimation. Columns absent from Distinct
// fall back to heuristics (primary keys are unique; foreign keys inherit
// the referenced key's domain; others default to rows/10).
type Table struct {
	Rel      catalog.Relation
	PK       string
	Distinct map[string]float64
}

// distinct returns the estimated distinct count of a column. A stated count
// below one is taken as one, as catalog.NewRelation takes rows, so that no
// filter divides a relation's rows by a fraction.
func (t Table) distinct(col string) float64 {
	if d, ok := t.Distinct[col]; ok {
		return math.Max(d, 1)
	}
	if col == t.PK {
		return t.Rel.Rows
	}
	return math.Max(1, t.Rel.Rows/10)
}

// Schema maps table names to bindable tables.
type Schema map[string]Table

// Bound is the result of binding a statement: the optimizer-ready query and
// the alias of each relation index.
type Bound struct {
	Query *cost.Query
	// Aliases[i] names relation i of the query.
	Aliases []string
	// ImplicitEdges counts join edges added by equivalence-class closure
	// beyond the literal predicates (the paper's footnote 8).
	ImplicitEdges int
}

// Bind resolves a parsed statement against a schema and builds the join
// graph: vertices are FROM entries; explicit equi-join predicates become
// edges with selectivity 1/max(distinct sides); constant predicates shrink
// their relation; and the transitive closure of column equalities adds
// implicit edges (selectivity 1 — pure connectivity, as the predicate is
// already accounted for by the class's explicit edges).
func Bind(stmt *Statement, schema Schema) (*Bound, error) {
	n := len(stmt.Tables)
	if n == 0 {
		return nil, fmt.Errorf("sql: empty FROM clause")
	}
	aliasIdx := make(map[string]int, n)
	var cat catalog.Catalog
	tables := make([]Table, n)
	for i, ref := range stmt.Tables {
		tb, ok := schema[ref.Name]
		if !ok {
			return nil, fmt.Errorf("sql: unknown table %q", ref.Name)
		}
		if _, dup := aliasIdx[ref.Alias]; dup {
			return nil, fmt.Errorf("sql: duplicate alias %q", ref.Alias)
		}
		aliasIdx[ref.Alias] = i
		tables[i] = tb
		rel := tb.Rel
		rel.Name = ref.Alias
		cat.Add(rel)
	}

	resolve := func(c Column) (int, Column, error) {
		if c.Table == "" {
			return 0, c, fmt.Errorf("sql: unqualified column %q (qualify as alias.column)", c.Column)
		}
		i, ok := aliasIdx[c.Table]
		if !ok {
			return 0, c, fmt.Errorf("sql: unknown alias %q", c.Table)
		}
		return i, c, nil
	}

	// Validate qualified projections early; unqualified ones are accepted
	// as-is (projection lists do not affect join ordering, and the paper's
	// Figure 1 query projects an unqualified column).
	for _, c := range stmt.Projections {
		if c.Table == "" {
			continue
		}
		if _, _, err := resolve(c); err != nil {
			return nil, err
		}
	}

	g := graph.New(n)
	// Equivalence classes over (relation, column) pairs.
	type rc struct {
		rel int
		col string
	}
	classID := map[rc]int{}
	uf := graph.NewUnionFind(2 * len(stmt.Predicates))
	nextClass := 0
	classOf := func(k rc) int {
		if id, ok := classID[k]; ok {
			return id
		}
		classID[k] = nextClass
		nextClass++
		return classID[k]
	}

	for _, pred := range stmt.Predicates {
		switch pred.Kind {
		case PredJoin:
			li, _, err := resolve(pred.Left)
			if err != nil {
				return nil, err
			}
			ri, _, err := resolve(pred.Right)
			if err != nil {
				return nil, err
			}
			if li == ri {
				// Same-relation equality: a local filter.
				cat.Rels[li].Rows = math.Max(1, cat.Rels[li].Rows/10)
				continue
			}
			dl := tables[li].distinct(pred.Left.Column)
			dr := tables[ri].distinct(pred.Right.Column)
			g.AddEdge(li, ri, 1/math.Max(math.Max(dl, dr), 1))
			uf.Union(classOf(rc{li, pred.Left.Column}), classOf(rc{ri, pred.Right.Column}))
		case PredConstEq:
			li, _, err := resolve(pred.Left)
			if err != nil {
				return nil, err
			}
			cat.Rels[li].Rows = math.Max(1, cat.Rels[li].Rows/tables[li].distinct(pred.Left.Column))
		case PredConstRange:
			li, _, err := resolve(pred.Left)
			if err != nil {
				return nil, err
			}
			// PostgreSQL's DEFAULT_INEQ_SEL.
			cat.Rels[li].Rows = math.Max(1, cat.Rels[li].Rows/3)
		}
	}

	// Equivalence-class closure (footnote 8): members of one class in
	// different relations are implicitly joinable even without a literal
	// predicate between them.
	members := map[int][]rc{}
	for k, id := range classID {
		root := uf.Find(id)
		members[root] = append(members[root], k)
	}
	implicit := 0
	for _, ms := range members {
		for i := 0; i < len(ms); i++ {
			for j := i + 1; j < len(ms); j++ {
				a, b := ms[i], ms[j]
				if a.rel == b.rel || g.HasEdge(a.rel, b.rel) {
					continue
				}
				g.AddEdge(a.rel, b.rel, 1)
				implicit++
			}
		}
	}

	aliases := make([]string, n)
	for a, i := range aliasIdx {
		aliases[i] = a
	}
	return &Bound{
		Query:         &cost.Query{Cat: cat, G: g},
		Aliases:       aliases,
		ImplicitEdges: implicit,
	}, nil
}

// Compile parses and binds in one step.
func Compile(query string, schema Schema) (*Bound, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return Bind(stmt, schema)
}

// MusicBrainzSchema exposes the built-in 56-table MusicBrainz catalog as a
// bindable schema, so SQL text can be optimized directly against it (see
// cmd/mpdp-explain's -sql flag).
func MusicBrainzSchema() Schema {
	mb := catalog.MusicBrainz()
	s := make(Schema, mb.Catalog.Len())
	for _, rel := range mb.Catalog.Rels {
		s[rel.Name] = Table{Rel: rel, PK: "id"}
	}
	return s
}
