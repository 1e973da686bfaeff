package service

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/gpusim"
	"repro/internal/plan"
)

// Entry is one plan-cache entry in exportable form: the canonical
// fingerprint key and the plan in canonical index space, exactly as the
// cache stores it. Entries exist so an external layer (cluster replication,
// rebalancing, persistence) can move warm plans between Services without
// re-optimizing; they are immutable by contract — the plan tree must never
// be mutated after export, since Import shares it rather than copying
// (Optimize hands every caller a private remapped copy, so sharing the
// canonical tree is safe).
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
	Shape    Shape
	GPU      *gpusim.MultiStats // device work model when Backend == gpu
	FellBack bool
	// Epoch is the catalog stats epoch the plan was produced under, Hits
	// the exact-key hit count served so far; both travel with the entry so
	// replication preserves staleness provenance and popularity.
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
// queries with that fingerprint are cache hits.
func (s *Service) Import(e Entry) error {
	if e.Key == "" {
		return fmt.Errorf("service: import entry with empty key")
	}
	if e.Plan == nil {
		return fmt.Errorf("service: import entry %q with nil plan", e.Key)
	}
	c := &cached{
		key:      e.Key,
		plan:     e.Plan,
		stats:    e.Stats,
		alg:      e.Algorithm,
		backend:  e.Backend,
		shape:    e.Shape,
		gpu:      e.GPU,
		fellBack: e.FellBack,
		epoch:    e.Epoch,
	}
	if c.epoch == 0 {
		c.epoch = s.StatsEpoch()
	}
	c.hits.Store(e.Hits)
	s.cache.Put(c)
	return nil
}

func exportEntry(e *cached) Entry {
	return Entry{
		Key:       e.key,
		Plan:      e.plan,
		Stats:     e.stats,
		Algorithm: e.alg,
		Backend:   e.backend,
		Shape:     e.shape,
		GPU:       e.gpu,
		FellBack:  e.fellBack,
		Epoch:     e.epoch,
		Hits:      e.hits.Load(),
	}
}
