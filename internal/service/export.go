package service

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/gpusim"
	"repro/internal/plan"
)

// Entry is the record the plan cache stores for one plan (cached embeds
// it) and the form it is exported and imported in: the canonical
// fingerprint key and the plan in canonical index space. Entries exist so
// an external layer (cluster replication, rebalancing, persistence) can
// move warm plans between Services without re-optimizing; they are
// immutable by contract — the plan tree must never be mutated after
// export, since Import shares it rather than copying (Optimize hands every
// caller a private remapped copy, so sharing the canonical tree is safe).
type Entry struct {
	// Key is the canonical fingerprint (see FingerprintQuery); an Entry is
	// only valid for the Service-external query it was fingerprinted from.
	Key       string
	Plan      *plan.Node // canonical index space; treat as immutable
	Stats     dp.Stats
	Algorithm core.Algorithm
	// Backend is the substrate that produced the plan; it travels with
	// the entry so replicated plans keep their provenance cluster-wide.
	Backend  backend.ID
	Shape    core.Shape
	GPU      *gpusim.MultiStats // device work model when Backend == gpu
	FellBack bool
	// Epoch is the catalog stats epoch the plan was produced under. Exact-
	// key hits are sound at any epoch (the key embeds the statistics); the
	// epoch is provenance that results and /v1/cache show. Hits is the
	// exact-key hit count served so far. Both travel with the entry so
	// replication preserves staleness provenance and popularity. Inside
	// the cache Hits is never read: the live count is cached.hits, which
	// Import starts from it and every export reads.
	Epoch uint64
	Hits  uint64
}

// Flush drops every plan-cache entry. A change of statistics does not call
// for it: BumpStatsEpoch flushes nothing, because an entry's key embeds the
// statistics it was costed under — queries that still carry them keep
// hitting soundly, and the rest age out of the LRU.
func (s *Service) Flush() { s.cache.Flush() }

// Invalidate removes the entry cached under the given canonical key and
// reports whether it existed.
func (s *Service) Invalidate(key string) bool { return s.cache.Delete(key) }

// ExportEntry returns the cached entry for a canonical key, if present.
// The lookup counts as a use for the LRU.
func (s *Service) ExportEntry(key string) (Entry, bool) {
	e, ok := s.cache.Get(key)
	if !ok {
		return Entry{}, false
	}
	return exportEntry(e), true
}

// Export returns every cached entry (least-recently-used first within each
// cache shard, so importing the slice in order preserves relative recency
// at the destination), for replication or migration to another Service.
func (s *Service) Export() []Entry {
	cachedEntries := s.cache.Export()
	out := make([]Entry, len(cachedEntries))
	for i, e := range cachedEntries {
		out[i] = exportEntry(e)
	}
	return out
}

// Import installs an exported entry into the plan cache, overwriting any
// entry already cached under the same key. Subsequent Optimize calls for
// queries with that fingerprint are cache hits. Every hit remaps the plan
// through the query's permutation, so Import refuses a plan unless it is a
// full binary tree whose leaves are exactly the relations 0..N-1, each
// once, N being the relation count the key names (the leaf count for a key
// that names none).
func (s *Service) Import(e Entry) error {
	if e.Key == "" {
		return fmt.Errorf("service: import entry with empty key")
	}
	if e.Plan == nil {
		return fmt.Errorf("service: import entry %q with nil plan", e.Key)
	}
	n, ok := keyRelations(e.Key)
	if !ok {
		n = e.Plan.Size()
	}
	if !validPlan(e.Plan, n) {
		return fmt.Errorf("service: import entry %q: plan is not a join tree over relations 0..%d", e.Key, n-1)
	}
	c := &cached{Entry: e}
	if c.Epoch == 0 {
		c.Epoch = s.StatsEpoch()
	}
	c.hits.Store(e.Hits)
	s.cache.Put(c)
	return nil
}

// keyRelations reads the relation count N off the "n<N>|" prefix that
// canonicalKey writes; ok is false when key has no such prefix.
func keyRelations(key string) (n int, ok bool) {
	if len(key) < 3 || key[0] != 'n' {
		return 0, false
	}
	for i := 1; i < len(key); i++ {
		c := key[i]
		switch {
		case c == '|' && i > 1:
			return n, true
		case c < '0' || c > '9' || n > 1<<20:
			return 0, false
		}
		n = 10*n + int(c-'0')
	}
	return 0, false
}

// validPlan reports whether p is a full binary tree whose leaves are
// exactly the relations 0..n-1, each once. It allocates nothing for
// n <= 64: replication imports on the miss path.
func validPlan(p *plan.Node, n int) bool {
	var small [1]uint64
	seen := small[:]
	if n > 64 {
		seen = make([]uint64, (n+63)/64)
	}
	leaves, ok := checkTree(p, n, seen)
	return ok && leaves == n
}

// checkTree counts p's leaves, marking each in seen, and fails on a missing
// child, a leaf outside 0..n-1 or a leaf seen before.
func checkTree(p *plan.Node, n int, seen []uint64) (int, bool) {
	if p == nil {
		return 0, false
	}
	if p.IsLeaf() {
		id := p.RelID
		if id < 0 || id >= n || seen[id/64]&(1<<(id%64)) != 0 {
			return 0, false
		}
		seen[id/64] |= 1 << (id % 64)
		return 1, true
	}
	l, ok := checkTree(p.Left, n, seen)
	if !ok {
		return 0, false
	}
	r, ok := checkTree(p.Right, n, seen)
	return l + r, ok
}

func exportEntry(e *cached) Entry {
	out := e.Entry
	out.Hits = e.hits.Load()
	return out
}
