package bench

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/workload"
	"repro/pkg/optimizer"
)

// op is one generated request: the query in the form the program under test
// receives (sdk), the same query in internal form for the oracle and the
// layer probes (q), and what set-up computed about it.
type op struct {
	label string // family-size, e.g. "clique-13"
	class string // cold | rung | replay | twin | window | stale
	q     *cost.Query
	sdk   *optimizer.Query
	fp    string // canonical fingerprint, computed directly
	// ref is the reference plan cost: the exact optimum from dp.DPCCP when
	// exactRef, else min(GOO, LinDP). base, when non-nil, is the pool query
	// this op is an isomorphic twin of (it shares base's reference).
	ref      float64
	exactRef bool
	base     *op
	// bump: the catalog is re-analysed just before this request, so whoever
	// sends it advances the statistics epoch first (serve-churn).
	bump bool
	// slot numbers the join graphs of a round's mix: queries of one slot,
	// in this round or another, differ in their statistics alone
	// (closed-loop workloads).
	slot int
}

// mixItem is count queries of one family and size.
type mixItem struct {
	fam   string
	n     int
	count int
}

// shapeSeed seeds the sequence MusicBrainz join graphs are drawn from. What
// a query costs to optimize is decided by its join graph, and between two
// walks of one size that varies tenfold. So the walks come from a fixed
// sequence, and a run's seed decides every statistic, the order, the mix and
// the schedule: runs under different seeds then time the same population of
// graphs, and their timings can be compared. (The synthetic families have
// one graph per size anyway.)
const shapeSeed = 1

// genQuery builds one query of a family with statistics drawn from rng, so
// that successive calls give distinct fingerprints; shape supplies the join
// graph where the family has more than one per size.
func genQuery(fam string, n int, shape, rng *rand.Rand) (*cost.Query, error) {
	switch workload.Kind(fam) {
	case workload.KindMB:
		return reanalysed(workload.MusicBrainzQuery(n, shape), rng), nil
	case workload.KindSnowflake:
		// workload.Snowflake ignores its rng: every call returns the same
		// query, and the second one would be a cache hit. Filter the
		// relations the way the other families do.
		q := workload.Snowflake(n, rng)
		perturbRows(q, rng, 1)
		return q, nil
	}
	return workload.Generate(workload.Kind(fam), n, rng)
}

// perturbRows scales every relation's row count by 10^(-span*u), u uniform
// in [0,1): new local predicates, same join graph.
func perturbRows(q *cost.Query, rng *rand.Rand, span float64) {
	for i := range q.Cat.Rels {
		r := &q.Cat.Rels[i]
		r.Rows = math.Max(1, r.Rows*math.Pow(10, -span*rng.Float64()))
	}
}

// cloneQuery deep-copies a query so its statistics can be changed.
func cloneQuery(q *cost.Query) *cost.Query {
	var cat catalog.Catalog
	for _, r := range q.Cat.Rels {
		cat.Add(r)
	}
	g := graph.New(q.N())
	for _, e := range q.G.Edges {
		g.AddEdge(e.A, e.B, e.Sel)
	}
	return &cost.Query{Cat: cat, G: g}
}

// toSDK rebuilds q through the public query builder: the program under test
// is driven through its SDK, which has no constructor from internal types.
func toSDK(q *cost.Query) (*optimizer.Query, error) {
	b := optimizer.NewQueryBuilder()
	rels := make([]optimizer.Rel, q.N())
	for i, r := range q.Cat.Rels {
		rels[i] = b.Relation(r.Name, optimizer.RelStats{
			Rows: r.Rows, Width: r.Width, Pages: r.Pages, PKIndex: r.HasPKIndex,
		})
	}
	for _, e := range q.G.Edges {
		b.Join(rels[e.A], rels[e.B], e.Sel)
	}
	return b.Build()
}

// newOp wraps a generated query. The fingerprint is computed directly (not
// through the serving path) so that the answer's fingerprint can be checked
// against it: a mismatch means the SDK round trip changed the query.
func newOp(label, class string, q *cost.Query) (*op, error) {
	sdk, err := toSDK(q)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	return &op{label: label, class: class, q: q, sdk: sdk, fp: service.FingerprintQuery(q).Key}, nil
}

// genMix generates the queries of one mix in a seed-determined order. A
// synthetic family has one join graph per size, so the queries of a mix item
// share a slot; every MusicBrainz walk is a graph of its own.
func genMix(mix []mixItem, class string, shape, rng *rand.Rand) ([]*op, error) {
	var ops []*op
	slot := -1
	for _, it := range mix {
		slot++
		for i := 0; i < it.count; i++ {
			if i > 0 && workload.Kind(it.fam) == workload.KindMB {
				slot++
			}
			q, err := genQuery(it.fam, it.n, shape, rng)
			if err != nil {
				return nil, err
			}
			o, err := newOp(fmt.Sprintf("%s-%d", it.fam, it.n), class, q)
			if err != nil {
				return nil, err
			}
			o.slot = slot
			ops = append(ops, o)
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops, nil
}

// twinOf returns the query another client would write for the same problem:
// relations renamed and reordered. It must land on base's cache entry.
func twinOf(base *op, rng *rand.Rand) (*op, error) {
	o, err := newOp(base.label, "twin", workload.PermuteQuery(base.q, rng.Perm(base.q.N())))
	if err != nil {
		return nil, err
	}
	o.base = base
	return o, nil
}

// reanalysed returns q's join graph under shifted statistics.
func reanalysed(q *cost.Query, rng *rand.Rand) *cost.Query {
	q = cloneQuery(q)
	perturbRows(q, rng, 0.5)
	return q
}

// staleTwinOf is the query a client sends for base's join after the
// catalog was re-analysed.
func staleTwinOf(base *op, rng *rand.Rand) (*op, error) {
	return newOp(base.label, "stale", reanalysed(base.q, rng))
}

// mbWindows generates a chain of connected MusicBrainz sub-schemas in which
// each window keeps 50-75% of the previous window's relations, with the
// kept relations' statistics unchanged — the overlap band in which a
// sub-plan memo has something to reuse but not everything.
type mbWindows struct {
	schema *catalog.MusicBrainzSchema
	adj    [][]int
	factor []float64 // per-table selection factor, fixed for the chain
	cur    []int     // tables of the current window
	rng    *rand.Rand
}

func newMBWindows(rng *rand.Rand) *mbWindows {
	s := catalog.MusicBrainz()
	w := &mbWindows{schema: s, rng: rng, adj: make([][]int, s.Catalog.Len()), factor: make([]float64, s.Catalog.Len())}
	for _, fk := range s.FKs {
		w.adj[fk.From] = append(w.adj[fk.From], fk.To)
		w.adj[fk.To] = append(w.adj[fk.To], fk.From)
	}
	for i := range w.factor {
		w.factor[i] = math.Pow(10, -1.5*rng.Float64())
	}
	return w
}

// next slides the window to n relations and returns its query.
func (w *mbWindows) next(n int) *cost.Query {
	for attempt := 0; ; attempt++ {
		if len(w.cur) == 0 || attempt > 0 {
			// (Re)start from a table with enough reachable neighbours.
			w.cur = []int{w.rng.Intn(len(w.adj))}
		} else {
			// Drop 25-50% of the relations, one connectivity-preserving
			// removal at a time.
			drop := len(w.cur)/4 + w.rng.Intn(len(w.cur)/4+1)
			for i := 0; i < drop && len(w.cur) > 1; i++ {
				w.dropOne()
			}
		}
		if w.grow(n) {
			return w.query()
		}
	}
}

// dropOne removes a random relation whose removal keeps the rest connected.
func (w *mbWindows) dropOne() {
	for _, i := range w.rng.Perm(len(w.cur)) {
		rest := append(append([]int(nil), w.cur[:i]...), w.cur[i+1:]...)
		if w.connected(rest) {
			w.cur = rest
			return
		}
	}
}

func (w *mbWindows) connected(tables []int) bool {
	in := make(map[int]bool, len(tables))
	for _, t := range tables {
		in[t] = true
	}
	seen := map[int]bool{tables[0]: true}
	stack := []int{tables[0]}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range w.adj[v] {
			if in[u] && !seen[u] {
				seen[u] = true
				stack = append(stack, u)
			}
		}
	}
	return len(seen) == len(tables)
}

// grow adds random schema neighbours until the window has n relations; it
// reports false when the window sits in a component too small for that.
func (w *mbWindows) grow(n int) bool {
	in := make(map[int]bool, n)
	for _, t := range w.cur {
		in[t] = true
	}
	for len(w.cur) < n {
		var frontier []int
		for _, t := range w.cur {
			for _, u := range w.adj[t] {
				if !in[u] {
					frontier = append(frontier, u)
				}
			}
		}
		if len(frontier) == 0 {
			return false
		}
		t := frontier[w.rng.Intn(len(frontier))]
		in[t] = true
		w.cur = append(w.cur, t)
	}
	return true
}

// query builds the current window's query the way the random-walk
// generator does: PK-FK selectivities from unfiltered cardinalities.
func (w *mbWindows) query() *cost.Query {
	local := make(map[int]int, len(w.cur))
	var cat catalog.Catalog
	for _, t := range w.cur {
		r := w.schema.Catalog.Rels[t]
		r.Rows = math.Max(1, r.Rows*w.factor[t])
		local[t] = cat.Add(r)
	}
	g := graph.New(len(w.cur))
	for _, fk := range w.schema.FKs {
		a, okA := local[fk.From]
		b, okB := local[fk.To]
		if okA && okB && a != b {
			g.AddEdge(a, b, 1/math.Max(1, w.schema.Catalog.Rels[fk.To].Rows))
		}
	}
	return &cost.Query{Cat: cat, G: g}
}
