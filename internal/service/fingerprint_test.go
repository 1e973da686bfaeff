package service

import (
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/workload"
)

// permuteQuery relabels q's relations through perm (perm[old] = new),
// producing a structurally identical query with renamed/reordered
// relations — the cache should treat both as the same query.
func permuteQuery(q *cost.Query, perm []int) *cost.Query {
	return workload.PermuteQuery(q, perm)
}

func randPerm(n int, rng *rand.Rand) []int {
	return rng.Perm(n)
}

func genQuery(t testing.TB, kind workload.Kind, n int, seed int64) *cost.Query {
	t.Helper()
	q, err := workload.Generate(kind, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestFingerprintIsomorphismInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, kind := range []workload.Kind{
		workload.KindChain, workload.KindCycle, workload.KindStar,
		workload.KindClique, workload.KindSnowflake, workload.KindMB,
	} {
		for _, n := range []int{4, 9, 14} {
			q := genQuery(t, kind, n, int64(n))
			base := FingerprintQuery(q)
			if len(base.Perm) != n {
				t.Fatalf("%s/%d: perm length %d", kind, n, len(base.Perm))
			}
			for trial := 0; trial < 5; trial++ {
				perm := randPerm(n, rng)
				fp := FingerprintQuery(permuteQuery(q, perm))
				if fp.Key != base.Key {
					t.Errorf("%s/%d trial %d: isomorphic query changed fingerprint", kind, n, trial)
				}
			}
		}
	}
}

func TestFingerprintDistinguishesStatistics(t *testing.T) {
	q := genQuery(t, workload.KindStar, 8, 1)
	base := FingerprintQuery(q).Key

	bigger := permuteQuery(q, identity(8))
	bigger.Cat.Rels[3].Rows *= 2
	if FingerprintQuery(bigger).Key == base {
		t.Error("changed cardinality kept the same fingerprint")
	}

	// Every statistic the cost model reads must flow into the key: a query
	// differing only in pages, width or index availability can cost the
	// same join tree differently, so it must not share a cache entry.
	wider := permuteQuery(q, identity(8))
	wider.Cat.Rels[2].Width *= 2
	if FingerprintQuery(wider).Key == base {
		t.Error("changed tuple width kept the same fingerprint")
	}
	paged := permuteQuery(q, identity(8))
	paged.Cat.Rels[2].Pages *= 2
	if FingerprintQuery(paged).Key == base {
		t.Error("changed page count kept the same fingerprint")
	}
	indexed := permuteQuery(q, identity(8))
	indexed.Cat.Rels[2].HasPKIndex = !indexed.Cat.Rels[2].HasPKIndex
	if FingerprintQuery(indexed).Key == base {
		t.Error("changed index availability kept the same fingerprint")
	}

	resel := permuteQuery(q, identity(8))
	resel.G = graph.New(8)
	for i, e := range q.G.Edges {
		sel := e.Sel
		if i == 0 {
			sel *= 0.5
		}
		resel.G.AddEdge(e.A, e.B, sel)
	}
	if FingerprintQuery(resel).Key == base {
		t.Error("changed selectivity kept the same fingerprint")
	}
}

func TestFingerprintDistinguishesShape(t *testing.T) {
	// Same vertex statistics, different topology.
	chain := genQuery(t, workload.KindChain, 10, 3)
	cycle := genQuery(t, workload.KindCycle, 10, 3)
	if FingerprintQuery(chain).Key == FingerprintQuery(cycle).Key {
		t.Error("chain and cycle share a fingerprint")
	}
}

// TestFingerprintSymmetricStar exercises the individualization path: all
// dimensions share identical statistics, so colour refinement alone cannot
// order them.
func TestFingerprintSymmetricStar(t *testing.T) {
	build := func(order []int) *cost.Query {
		var cat catalog.Catalog
		for i := 0; i < 7; i++ {
			name := "fact"
			rows := 1e6
			if i != order[0] {
				name, rows = "dim", 1000
			}
			cat.Add(catalog.NewRelation(name, rows, 64))
		}
		g := graph.New(7)
		for _, i := range order[1:] {
			g.AddEdge(order[0], i, 1.0/1000)
		}
		return &cost.Query{Cat: cat, G: g}
	}
	a := build([]int{0, 1, 2, 3, 4, 5, 6})
	b := build([]int{3, 6, 0, 5, 1, 2, 4})
	if FingerprintQuery(a).Key != FingerprintQuery(b).Key {
		t.Error("symmetric stars with permuted labels got different fingerprints")
	}
}

// fingerprintByScan is FingerprintQuery as it was before the discrete-
// partition fast path: every position is filled by a scan for the minimum
// colour among the unplaced vertices. Kept as the oracle the fast path is
// compared against.
func fingerprintByScan(q *cost.Query) Fingerprint {
	n, g := q.N(), q.G
	selBits := func(a, b int) uint64 { return floatBits(g.EdgeSel(a, b)) }
	colors := make([]uint64, n)
	for v := 0; v < n; v++ {
		nb := g.Neighbors(v)
		var sels []uint64
		for _, w := range nb {
			sels = append(sels, selBits(v, w))
		}
		sortU64(sels)
		h := fnvU64(fnvOffset64, uint64(len(nb)))
		for _, s := range relStats(q, v) {
			h = fnvU64(h, s)
		}
		for _, s := range sels {
			h = fnvU64(h, s)
		}
		colors[v] = h
	}
	countClasses := func() int {
		seen := make(map[uint64]struct{}, n)
		for _, c := range colors {
			seen[c] = struct{}{}
		}
		return len(seen)
	}
	classes := countClasses()
	refine := func() {
		next := make([]uint64, n)
		for classes < n {
			for v := 0; v < n; v++ {
				var sig [][2]uint64
				for _, w := range g.Neighbors(v) {
					sig = append(sig, [2]uint64{selBits(v, w), colors[w]})
				}
				sortSig(sig)
				h := fnvU64(fnvOffset64, colors[v])
				for _, s := range sig {
					h = fnvU64(fnvU64(h, s[0]), s[1])
				}
				next[v] = h
			}
			copy(colors, next)
			nc := countClasses()
			if nc == classes {
				return
			}
			classes = nc
		}
	}
	refine()
	perm := make([]int, n)
	placed := make([]bool, n)
	for pos := 0; pos < n; pos++ {
		best, bestColor, classSize := -1, uint64(0), 0
		for v := 0; v < n; v++ {
			if placed[v] {
				continue
			}
			switch {
			case best < 0 || colors[v] < bestColor:
				best, bestColor, classSize = v, colors[v], 1
			case colors[v] == bestColor:
				classSize++
			}
		}
		perm[best] = pos
		placed[best] = true
		colors[best] = fnvU64(fnvU64(fnvOffset64, uint64(pos)), individualizedTag)
		if classSize > 1 {
			classes = countClasses()
			refine()
		}
	}
	return Fingerprint{Key: canonicalKey(q, perm), Perm: perm}
}

// TestFingerprintSortedPlacementMatchesScan: once refinement has made every
// colour class a singleton FingerprintQuery places the rest by one sort; Key
// and Perm must be the ones the position-by-position scan produces, on
// queries whose statistics are all distinct (the sort places everything),
// on ones where some tie (snowflakes as generated: the scan individualises
// until the partition is discrete, the sort finishes) and on ones where
// everything ties (uniform statistics: a cycle or a star is nothing but
// symmetry).
func TestFingerprintSortedPlacementMatchesScan(t *testing.T) {
	for _, kind := range []workload.Kind{
		workload.KindChain, workload.KindCycle, workload.KindStar,
		workload.KindClique, workload.KindSnowflake, workload.KindMB,
	} {
		for _, n := range []int{2, 13, 60, 250} {
			if n > 60 && kind == workload.KindClique {
				continue // 31k edges: 11 s of individualising the uniform one, no new case
			}
			q := genQuery(t, kind, n, int64(n)) // MusicBrainz stops at its 56 tables
			for name, q := range map[string]*cost.Query{"generated": q, "uniform": uniformStats(q)} {
				got, want := FingerprintQuery(q), fingerprintByScan(q)
				if got.Key != want.Key || !slices.Equal(got.Perm, want.Perm) {
					t.Errorf("%s-%d %s: the sorted placement and the scan disagree", kind, q.N(), name)
				}
			}
		}
	}
}

// canonicalKeyReference is canonicalKey as it was written before it
// appended into one buffer: one string per number, sort.Slice on the edges.
// Kept as the reference the key bytes are held to.
func canonicalKeyReference(q *cost.Query, perm []int) string {
	n := q.N()
	var b strings.Builder
	b.Grow(32 * (n + len(q.G.Edges)))
	b.WriteString("n")
	b.WriteString(strconv.Itoa(n))
	stats := make([][4]uint64, n)
	for v := 0; v < n; v++ {
		stats[perm[v]] = relStats(q, v)
	}
	for _, st := range stats {
		b.WriteByte('|')
		for i, s := range st {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatUint(s, 36))
		}
	}
	type cedge struct {
		a, b int
		sel  uint64
	}
	edges := make([]cedge, 0, len(q.G.Edges))
	for _, e := range q.G.Edges {
		a, bb := perm[e.A], perm[e.B]
		if a > bb {
			a, bb = bb, a
		}
		edges = append(edges, cedge{a, bb, floatBits(e.Sel)})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		return edges[i].b < edges[j].b
	})
	for _, e := range edges {
		b.WriteByte(';')
		b.WriteString(strconv.Itoa(e.a))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(e.b))
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(e.sel, 36))
	}
	return b.String()
}

// TestCanonicalKeyMatchesReference: the key is a cache key and travels
// between nodes, so building it in one buffer must not change a byte. Every
// family and size this file generates, as generated and with uniform
// statistics, under its canonical order and under a random one.
func TestCanonicalKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, kind := range []workload.Kind{
		workload.KindChain, workload.KindCycle, workload.KindStar,
		workload.KindClique, workload.KindSnowflake, workload.KindMB,
	} {
		for _, n := range []int{2, 4, 9, 13, 14, 60, 250} {
			if n > 60 && kind == workload.KindClique {
				continue
			}
			q := genQuery(t, kind, n, int64(n))
			for name, q := range map[string]*cost.Query{"generated": q, "uniform": uniformStats(q)} {
				for _, perm := range [][]int{FingerprintQuery(q).Perm, randPerm(q.N(), rng)} {
					if got, want := canonicalKey(q, perm), canonicalKeyReference(q, perm); got != want {
						t.Fatalf("%s-%d %s: key\n%s\nwant\n%s", kind, q.N(), name, got, want)
					}
				}
			}
		}
	}
}

// TestFingerprintAllocs: a cold cycle-200 fingerprint allocates its
// colouring and one key buffer, not a string per number.
func TestFingerprintAllocs(t *testing.T) {
	q := genQuery(t, workload.KindCycle, 200, 200)
	got := testing.AllocsPerRun(20, func() { FingerprintQuery(q) })
	if got > 20 {
		t.Errorf("FingerprintQuery on a cycle-200: %.0f allocations, ceiling 20", got)
	}
	t.Logf("FingerprintQuery on a cycle-200: %.0f allocations", got)
}

// uniformStats is q's join graph with every relation and every edge given
// the same statistics: nothing but symmetry to canonicalise.
func uniformStats(q *cost.Query) *cost.Query {
	var cat catalog.Catalog
	for range q.Cat.Rels {
		cat.Add(catalog.NewRelation("r", 1000, 64))
	}
	g := graph.New(q.N())
	for _, e := range q.G.Edges {
		g.AddEdge(e.A, e.B, 1e-3)
	}
	return &cost.Query{Cat: cat, G: g}
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}
