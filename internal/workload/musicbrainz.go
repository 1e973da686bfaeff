package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/graph"
)

// MusicBrainzQuery generates an n-relation query over the MusicBrainz
// schema exactly as described in §7.2.2: "We pick a relation at random and
// then do a random walk on the graph till we get the required number of
// rels". Only PK-FK joins are used and the resulting query graph can
// contain cycles. Relation indices are renumbered to the local query space.
func MusicBrainzQuery(n int, rng *rand.Rand) *cost.Query {
	schema := catalog.MusicBrainz()
	full := schema.Catalog
	// Schema join graph over all 56 tables.
	adj := make([][]catalog.FKEdge, full.Len())
	for _, fk := range schema.FKs {
		adj[fk.From] = append(adj[fk.From], fk)
		adj[fk.To] = append(adj[fk.To], fk)
	}

	// Start the walk inside the largest connected component so that n
	// tables are reachable (a few MusicBrainz type-lookup tables form tiny
	// satellite components).
	comp := largestComponent(full.Len(), schema.FKs)

	// Random walk until n distinct tables are collected.
	chosen := map[int]bool{}
	var order []int
	cur := comp[rng.Intn(len(comp))]
	chosen[cur] = true
	order = append(order, cur)
	guard := 0
	for len(order) < n {
		guard++
		if guard > 100000 {
			break // schema smaller than requested n; return what we have
		}
		es := adj[cur]
		e := es[rng.Intn(len(es))]
		next := e.From
		if next == cur {
			next = e.To
		}
		if !chosen[next] {
			chosen[next] = true
			order = append(order, next)
		}
		cur = next
	}

	local := make(map[int]int, len(order))
	var cat catalog.Catalog
	for li, gi := range order {
		local[gi] = li
		cat.Add(full.Rels[gi])
	}
	// Join selectivities derive from the unfiltered table cardinalities.
	g := graph.New(len(order))
	for _, fk := range schema.FKs {
		lf, okF := local[fk.From]
		lt, okT := local[fk.To]
		if !okF || !okT {
			continue
		}
		g.AddEdge(lf, lt, pkSel(cat.Rels[lt].Rows))
	}
	// Mild random selections, as query predicates would induce.
	for i := range cat.Rels {
		cat.Rels[i].Rows = math.Max(1, cat.Rels[i].Rows*math.Pow(10, -1.5*rng.Float64()))
	}
	return &cost.Query{Cat: cat, G: g}
}

// largestComponent returns the vertices of the largest connected component
// of the FK graph.
func largestComponent(n int, fks []catalog.FKEdge) []int {
	uf := graph.NewUnionFind(n)
	for _, fk := range fks {
		uf.Union(fk.From, fk.To)
	}
	groups := uf.Groups()
	var best []int
	for _, members := range groups {
		if len(members) > len(best) {
			best = members
		}
	}
	return best
}

// CycleSQL renders an n-relation cyclic join in the internal/sql dialect
// against the MusicBrainz schema: n aliases of artist joined in a ring,
// each edge on its own column pair so the binder's equivalence-class
// closure adds no extra edges and the bound join graph is an exact
// n-cycle. The serving layers' acceptance tests and demos use it to drive
// the optimizer's large-cyclic band end to end.
func CycleSQL(n int) string {
	var b strings.Builder
	b.WriteString("SELECT a0.id FROM ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "artist a%d", i)
	}
	b.WriteString(" WHERE ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(" AND ")
		}
		fmt.Fprintf(&b, "a%d.c%d = a%d.c%d", i, i, (i+1)%n, i)
	}
	return b.String()
}

// CliqueSQL renders an n-relation clique in the same dialect: n aliases of
// artist equated pairwise along a chain on one column, which the binder's
// equivalence-class closure completes to every pair. It is the statement
// the cancellation tests park on a worker: a clique has 2^n connected sets
// and 3^n valid join pairs, and every exact enumerator has to cost each of
// those pairs, so — unlike a big cycle, which only the subset-unranking
// enumerators choke on — no exact route finishes it quickly.
func CliqueSQL(n int) string { return cliqueSQL(n, n) }

// NearCliqueSQL renders CliqueSQL's clique minus the join of its first and
// last alias: two equivalence classes on different columns, a0…a(n−2) on
// id and a1…a(n−1) on c. The router plans it as a dense general graph,
// exactly on MPDP-CPU up to 25 relations, where it sends a clique of more
// than 14 to a heuristic; its enumeration costs a clique's.
func NearCliqueSQL(n int) string { return cliqueSQL(n, n-1) }

// cliqueSQL renders n aliases of artist, a0…a(k−1) equated along a chain
// on id and, when k < n, a(n−k)…a(n−1) along a chain on c.
func cliqueSQL(n, k int) string {
	var b strings.Builder
	b.WriteString("SELECT a0.id FROM ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "artist a%d", i)
	}
	b.WriteString(" WHERE ")
	for i := 1; i < k; i++ {
		if i > 1 {
			b.WriteString(" AND ")
		}
		fmt.Fprintf(&b, "a%d.id = a%d.id", i-1, i)
	}
	for i := n - k + 1; k < n && i < n; i++ {
		fmt.Fprintf(&b, " AND a%d.c = a%d.c", i-1, i)
	}
	return b.String()
}

// WedgeRelations is the size at which CliqueSQL and NearCliqueSQL outlast
// any test that cancels them: 3.5 billion pairs, about a minute on one
// thread and still seconds on all of a small host's cores, while the level
// drivers' pre-sized DP table stays near 130 MB.
// At 24 relations that table is 2.4 GB, and allocating it is the one
// stretch of a run that does not poll for cancellation.
const WedgeRelations = 20
