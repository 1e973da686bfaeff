// Package service turns the optimizer library into a concurrent
// optimizer-as-a-service front-end: a sharded LRU plan cache keyed by a
// canonical fingerprint of the join graph and its statistics, an adaptive
// Optimize entry point that routes each query to the enumeration algorithm
// the paper's evaluation recommends for its size and shape, request
// coalescing plus a worker pool so concurrent callers share CPU sanely, and
// an expvar-compatible stats struct. See SERVICE.md for the full design.
package service

import (
	"cmp"
	"math"
	"slices"
	"strconv"
	"sync/atomic"

	"repro/internal/cost"
)

// Fingerprint is the canonical identity of an optimization request. Two
// queries with isomorphic join graphs and identical statistics (base
// cardinalities and per-edge selectivities) produce the same Key even when
// their relations are listed in a different order, so a renamed-but-
// isomorphic query hits the cache entry of its twin.
//
// Perm maps the query's relation indices to canonical indices:
// Perm[queryIndex] = canonicalIndex. Cached plans are stored in canonical
// index space and remapped through Perm on both insert and lookup.
type Fingerprint struct {
	Key  string
	Perm []int
}

// labellings counts canonical labellings (FingerprintQuery calls). A served
// miss runs exactly one, and the cold-miss test holds it to that.
var labellings atomic.Uint64

// FingerprintQuery computes the canonical fingerprint of q.
//
// Canonicalization is colour refinement (1-WL) seeded with each relation's
// base cardinality and incident selectivity multiset, followed by an
// individualization-refinement loop: while some colour class holds several
// vertices, one member is individualized (given a fresh unique colour) and
// refinement is re-run. The resulting discrete colouring orders the
// vertices; the Key serializes cardinalities and edges in that order with
// exact float bits, so the Key always describes the query exactly — a
// canonicalization miss on a pathological symmetric graph can only cost a
// cache miss, never a wrong plan.
func FingerprintQuery(q *cost.Query) Fingerprint {
	labellings.Add(1)
	n := q.N()
	g := q.G

	// selBits returns the exact bit pattern of the edge selectivity so that
	// hashing and serialization are both exact.
	selBits := func(a, b int) uint64 {
		return floatBits(g.EdgeSel(a, b))
	}

	colors := make([]uint64, n)
	sels := make([]uint64, 0, n)
	for v := 0; v < n; v++ {
		nb := g.Neighbors(v)
		sels = sels[:0]
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

	// countClasses counts distinct colours; the partition can only split
	// from round to round (a cross-class hash collision, ~2^-64, would
	// merely coarsen the canonical order, never corrupt the key — the key
	// serializes the query itself, not the colours).
	seen := make(map[uint64]struct{}, n)
	countClasses := func() int {
		clear(seen)
		for _, c := range colors {
			seen[c] = struct{}{}
		}
		return len(seen)
	}

	// refine runs colour refinement until the partition stops splitting or
	// becomes discrete. This is the canonicalization hot loop — it runs on
	// every request the front door has not prepared — so it hashes inline
	// and sorts without reflection.
	next := make([]uint64, n)
	sig := make([][2]uint64, 0, n)
	classes := countClasses()
	refine := func() {
		for classes < n {
			for v := 0; v < n; v++ {
				sig = sig[:0]
				for _, w := range g.Neighbors(v) {
					sig = append(sig, [2]uint64{selBits(v, w), colors[w]})
				}
				sortSig(sig)
				h := fnvU64(fnvOffset64, colors[v])
				for _, s := range sig {
					h = fnvU64(h, s[0])
					h = fnvU64(h, s[1])
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

	// Individualization-refinement: place vertices in canonical order. At
	// each step the unplaced vertex with the smallest colour is placed; if
	// its colour class holds several vertices they are refinement-equivalent,
	// so placing the first and re-refining keeps the labeling canonical for
	// all graphs whose colour classes are true orbits (symmetric twins such
	// as identical star dimensions are interchangeable by construction).
	perm := make([]int, n)
	placed := make([]bool, n)
	for pos := 0; pos < n; pos++ {
		if classes == n {
			// Every class is a singleton (the normal case: distinct
			// statistics), so no placement from here on can tie or
			// re-refine, and the remaining minimum scans are one sort.
			rest := make([]int, 0, n-pos)
			for v := 0; v < n; v++ {
				if !placed[v] {
					rest = append(rest, v)
				}
			}
			slices.SortFunc(rest, func(a, b int) int { return cmp.Compare(colors[a], colors[b]) })
			for i, v := range rest {
				perm[v] = pos + i
			}
			break
		}
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
		// A fresh unique colour pins the vertex; tie-broken classes need a
		// re-refine so the choice propagates.
		colors[best] = fnvU64(fnvU64(fnvOffset64, uint64(pos)), individualizedTag)
		if classSize > 1 {
			classes = countClasses()
			refine()
		}
	}

	return Fingerprint{Key: canonicalKey(q, perm), Perm: perm}
}

// relStats returns every per-relation statistic the cost model reads —
// cardinality, heap pages, tuple width and index availability — as exact
// bits. The fingerprint must cover all of them: two queries that differ in
// any of these can cost the same join tree differently (e.g. HasPKIndex
// gates the index-nested-loop operator), so under-describing the relation
// here would hand one query the other's plan.
func relStats(q *cost.Query, v int) [4]uint64 {
	r := q.Cat.Rels[v]
	var pk uint64
	if r.HasPKIndex {
		pk = 1
	}
	return [4]uint64{floatBits(r.Rows), floatBits(r.Pages), uint64(r.Width), pk}
}

// canonicalKey serializes the query in canonical vertex order: relation
// statistics, then edges sorted by endpoints, all floats as exact bits. It
// appends every number into one buffer rather than making a string of each:
// a key is built on every request the front door has not prepared.
func canonicalKey(q *cost.Query, perm []int) string {
	n := q.N()
	stats := make([][4]uint64, n)
	for v := 0; v < n; v++ {
		stats[perm[v]] = relStats(q, v)
	}
	type cedge struct {
		a, b int
		sel  uint64
	}
	edges := make([]cedge, 0, len(q.G.Edges))
	for _, e := range q.G.Edges {
		a, b := perm[e.A], perm[e.B]
		if a > b {
			a, b = b, a
		}
		edges = append(edges, cedge{a, b, floatBits(e.Sel)})
	}
	// Endpoint pairs are unique (graph.AddEdge merges parallel edges), so
	// the order is total and the bytes do not depend on the sort.
	slices.SortFunc(edges, func(x, y cedge) int {
		if c := cmp.Compare(x.a, y.a); c != 0 {
			return c
		}
		return cmp.Compare(x.b, y.b)
	})

	b := make([]byte, 0, 32*(n+len(edges)))
	b = append(b, 'n')
	b = strconv.AppendInt(b, int64(n), 10)
	for _, st := range stats {
		for i, s := range st {
			if i == 0 {
				b = append(b, '|')
			} else {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, s, 36)
		}
	}
	for _, e := range edges {
		b = append(b, ';')
		b = strconv.AppendInt(b, int64(e.a), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(e.b), 10)
		b = append(b, ':')
		b = strconv.AppendUint(b, e.sel, 36)
	}
	return string(b)
}

func floatBits(f float64) uint64 {
	return math.Float64bits(f)
}

// FNV-1a over uint64 words, inlined: the canonicalizer hashes per vertex
// per refinement round, so the hash must not allocate or call through an
// interface. Colour values never leave the process (keys serialize the
// query itself), so the exact function is an implementation detail.
const (
	fnvOffset64       = 14695981039346656037
	fnvPrime64        = 1099511628211
	individualizedTag = 0x696e646976 // pins individualized vertices
)

func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// fnvString is FNV-1a over the bytes of s, in place (hash/fnv needs a
// hasher and a []byte copy of the key for the same 64 bits).
func fnvString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// sortU64 and sortSig are insertion sorts: neighbour lists are tiny (at
// most n-1, usually 2-3), where sort.Slice's reflection swapper costs more
// than the sort itself.
func sortU64(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func sortSig(s [][2]uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && sigLess(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func sigLess(a, b [2]uint64) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}
