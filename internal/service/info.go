package service

import "sort"

// CacheEntryInfo describes one plan-cache entry for the /v1/cache control
// surface.
type CacheEntryInfo struct {
	// Fingerprint is the canonical cache identity.
	Fingerprint string `json:"fingerprint"`
	Shape       string `json:"shape"`
	Algorithm   string `json:"algorithm"`
	Backend     string `json:"backend"`
	Relations   int    `json:"relations"`
	// Hits counts exact-fingerprint cache hits served from the entry.
	Hits uint64 `json:"hits"`
	// Epoch is the catalog stats epoch the plan was costed under.
	Epoch    uint64 `json:"epoch"`
	FellBack bool   `json:"fell_back"`
}

// CacheInfo is the plan-cache summary for the /v1/cache control surface.
type CacheInfo struct {
	Plans      int    `json:"plans"`
	Capacity   int    `json:"capacity"`
	Shards     int    `json:"shards"`
	StatsEpoch uint64 `json:"stats_epoch"`
	// Entries lists the top entries by hit count (bounded by the topN the
	// caller asked for).
	Entries []CacheEntryInfo `json:"entries"`
}

// CacheInfo summarizes the plan cache, listing the topN entries by hit
// count (topN <= 0 lists none).
func (s *Service) CacheInfo(topN int) CacheInfo {
	info := CacheInfo{
		Plans:      s.cache.Len(),
		Capacity:   s.cfg.CacheCapacity,
		Shards:     s.cache.Shards(),
		StatsEpoch: s.StatsEpoch(),
		Entries:    []CacheEntryInfo{},
	}
	if topN <= 0 {
		return info
	}
	for _, e := range s.cache.Export() {
		info.Entries = append(info.Entries, CacheEntryInfo{
			Fingerprint: e.Key,
			Shape:       string(e.Shape),
			Algorithm:   string(e.Algorithm),
			Backend:     string(e.Backend),
			Relations:   e.Plan.Size(),
			Hits:        e.hits.Load(),
			Epoch:       e.Epoch,
			FellBack:    e.FellBack,
		})
	}
	sort.SliceStable(info.Entries, func(i, j int) bool {
		if info.Entries[i].Hits != info.Entries[j].Hits {
			return info.Entries[i].Hits > info.Entries[j].Hits
		}
		return info.Entries[i].Fingerprint < info.Entries[j].Fingerprint
	})
	if len(info.Entries) > topN {
		info.Entries = info.Entries[:topN]
	}
	return info
}
