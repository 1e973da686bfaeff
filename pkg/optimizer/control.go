package optimizer

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"repro/internal/httpapi"
	"repro/internal/service"
)

// This file is the SDK side of the servers' cache & catalog control
// surface (/v1/cache, /v1/catalog/stats). The Served driver answers from
// its in-process service; the Remote driver calls the wire API. InProcess
// has no cache, so it implements none of this — assert to CacheController
// to discover support at runtime.

// CacheEntryInfo describes one cached plan.
type CacheEntryInfo struct {
	// Fingerprint is the canonical cache identity (see Result.Fingerprint).
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

// CacheInfo summarizes a driver's plan cache: plan count and capacity,
// the current stats epoch, and the hottest entries. A Remote
// driver pointed at a cluster receives the ring-wide aggregate.
type CacheInfo struct {
	Plans      int              `json:"plans"`
	Capacity   int              `json:"capacity"`
	Shards     int              `json:"shards"`
	StatsEpoch uint64           `json:"stats_epoch"`
	Entries    []CacheEntryInfo `json:"entries"`
}

// InvalidateResult reports one targeted invalidation.
type InvalidateResult struct {
	Fingerprint string
	// Found reports whether any cache held the plan.
	Found bool
}

// StatsUpdate carries one relation's new statistics to UpdateStats.
type StatsUpdate struct {
	// Name is the schema relation to update (created if absent).
	Name string
	// Stats are the new statistics; zero optional fields keep previous
	// values server-side.
	Stats RelStats
	// Distinct updates per-column distinct counts (SQL-binding
	// selectivities); nil leaves them unchanged.
	Distinct map[string]float64
}

// CacheController is the cache & catalog control surface of the serving
// drivers. Served and Remote implement it; InProcess does not (it has no
// cache). Obtain it with a type assertion:
//
//	if cc, ok := opt.(optimizer.CacheController); ok { ... }
type CacheController interface {
	// CacheInfo summarizes the plan cache, listing the topN hottest
	// entries (0 lists none).
	CacheInfo(ctx context.Context, topN int) (*CacheInfo, error)
	// Invalidate drops the plan cached under the canonical fingerprint.
	Invalidate(ctx context.Context, fingerprint string) (*InvalidateResult, error)
	// FlushCache drops every cached plan. A statistics change does not
	// call for it: see UpdateStats.
	FlushCache(ctx context.Context) error
	// UpdateStats installs updated relation statistics (Remote pushes them
	// into the server's SQL schema; Served keeps statistics caller-side in
	// its queries, so updates only signal the change) and bumps the
	// server's catalog stats epoch, returning the epoch before and after.
	// Nothing is flushed: plans cached under the old epoch stay exact for
	// queries that still carry the old statistics, and a query under the
	// new ones has a new fingerprint and is planned afresh.
	UpdateStats(ctx context.Context, updates []StatsUpdate) (oldEpoch, newEpoch uint64, err error)
}

// ErrStaleEpoch is returned when WithStatsEpoch asserted an epoch the
// server has moved past: statistics changed between the caller's read and
// its optimize.
var ErrStaleEpoch = errors.New("optimizer: server stats epoch moved past the asserted one")

// Both serving drivers implement the control surface.
var (
	_ CacheController = (*served)(nil)
	_ CacheController = (*remote)(nil)
)

func cacheInfoFromService(info service.CacheInfo) *CacheInfo {
	out := &CacheInfo{
		Plans:      info.Plans,
		Capacity:   info.Capacity,
		Shards:     info.Shards,
		StatsEpoch: info.StatsEpoch,
		Entries:    make([]CacheEntryInfo, len(info.Entries)),
	}
	for i, e := range info.Entries {
		out.Entries[i] = CacheEntryInfo{
			Fingerprint: e.Key,
			Shape:       e.Shape,
			Algorithm:   e.Algorithm,
			Backend:     e.Backend,
			Relations:   e.Relations,
			Hits:        e.Hits,
			Epoch:       e.Epoch,
			FellBack:    e.FellBack,
		}
	}
	return out
}

// --- Served driver ---

// CacheInfo implements CacheController on the in-process service.
func (s *served) CacheInfo(_ context.Context, topN int) (*CacheInfo, error) {
	return cacheInfoFromService(s.svc.CacheInfo(topN)), nil
}

// Invalidate implements CacheController on the in-process service.
func (s *served) Invalidate(_ context.Context, fingerprint string) (*InvalidateResult, error) {
	return &InvalidateResult{Fingerprint: fingerprint, Found: s.svc.Invalidate(fingerprint)}, nil
}

// FlushCache implements CacheController on the in-process service.
func (s *served) FlushCache(context.Context) error {
	s.svc.Flush()
	return nil
}

// UpdateStats implements CacheController. The Served driver's statistics
// live in the caller's queries (there is no server-side SQL schema), so
// the update payload itself has nothing to install — the call's effect is
// the epoch bump that tells the cache its cached costs are stale.
func (s *served) UpdateStats(_ context.Context, _ []StatsUpdate) (uint64, uint64, error) {
	old, cur := s.svc.BumpStatsEpoch()
	return old, cur, nil
}

// --- Remote driver ---

// controlRequest performs one control-plane call against the endpoints in
// order, returning the first endpoint's successful answer; unlike the
// optimize path it does not hedge — control calls are rare and cheap.
func (r *remote) controlRequest(ctx context.Context, method, path string, body []byte, out any) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var errs []error
	for i := range r.endpoints {
		ep := r.endpoints[i]
		err := r.controlCall(ctx, ep, method, path, body, out)
		if err == nil {
			return nil
		}
		var re *RemoteError
		if errors.As(err, &re) && re.terminal() {
			return err
		}
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

func (r *remote) controlCall(ctx context.Context, endpoint, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, endpoint+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return fmt.Errorf("optimizer: %s: %w", endpoint, err)
	}
	defer resp.Body.Close()
	raw, err := readResponse(resp, endpoint)
	if err != nil {
		return err
	}
	defer raw.Release()
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw.Bytes(), out); err != nil {
		return fmt.Errorf("optimizer: %s: decoding response: %w", endpoint, err)
	}
	return nil
}

// CacheInfo implements CacheController over GET /v1/cache.
func (r *remote) CacheInfo(ctx context.Context, topN int) (*CacheInfo, error) {
	var out CacheInfo
	path := fmt.Sprintf("/v1/cache?top=%d", topN)
	if err := r.controlRequest(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Invalidate implements CacheController over DELETE /v1/cache/{fp}. A 404
// (no cache holds the fingerprint) is not an error: Found is false.
func (r *remote) Invalidate(ctx context.Context, fingerprint string) (*InvalidateResult, error) {
	path := "/v1/cache/" + url.PathEscape(fingerprint)
	err := r.controlRequest(ctx, http.MethodDelete, path, nil, nil)
	if err != nil {
		var re *RemoteError
		if errors.As(err, &re) && re.Code == httpapi.CodeNotFound {
			return &InvalidateResult{Fingerprint: fingerprint}, nil
		}
		return nil, err
	}
	return &InvalidateResult{Fingerprint: fingerprint, Found: true}, nil
}

// FlushCache implements CacheController over POST /v1/cache/flush.
func (r *remote) FlushCache(ctx context.Context) error {
	return r.controlRequest(ctx, http.MethodPost, "/v1/cache/flush", []byte("{}"), nil)
}

// UpdateStats implements CacheController over POST /v1/catalog/stats.
func (r *remote) UpdateStats(ctx context.Context, updates []StatsUpdate) (uint64, uint64, error) {
	req := httpapi.CatalogStatsRequest{Relations: make([]httpapi.CatalogRelStats, len(updates))}
	for i, u := range updates {
		rs := httpapi.CatalogRelStats{
			Name:     u.Name,
			Rows:     u.Stats.Rows,
			Width:    u.Stats.Width,
			Pages:    u.Stats.Pages,
			Distinct: u.Distinct,
		}
		if u.Stats.PKIndex {
			pk := true
			rs.PKIndex = &pk
		}
		req.Relations[i] = rs
	}
	body, err := json.Marshal(&req)
	if err != nil {
		return 0, 0, err
	}
	var out httpapi.CatalogStatsResponse
	if err := r.controlRequest(ctx, http.MethodPost, "/v1/catalog/stats", body, &out); err != nil {
		return 0, 0, err
	}
	return out.OldEpoch, out.NewEpoch, nil
}
