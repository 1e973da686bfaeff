package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/catalog"
	"repro/internal/sql"
)

// This file is the /v1 cache & catalog control surface — the versioned
// replacement for ad-hoc admin flushing:
//
//	GET    /v1/cache                summary + top entries by hit count
//	DELETE /v1/cache/{fingerprint}  targeted invalidation
//	POST   /v1/cache/flush          drop everything
//	POST   /v1/catalog/stats        update relation statistics, bump epoch
//
// Both binaries serve it through the shared Engine, so mpdp-serve answers
// for its single service and mpdp-cluster for the whole ring with the same
// wire shapes.

// defaultCacheTopN bounds the GET /v1/cache entry listing when the caller
// does not pass ?top=.
const defaultCacheTopN = 10

// handleCache serves GET /v1/cache.
func (a *API) handleCache(w http.ResponseWriter, r *http.Request) {
	rid := a.requestID(r)
	if r.Method != http.MethodGet {
		a.fail(w, rid, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required", nil)
		return
	}
	topN := defaultCacheTopN
	if s := r.URL.Query().Get("top"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			a.fail(w, rid, http.StatusBadRequest, CodeBadRequest, "top must be a non-negative integer", err)
			return
		}
		topN = v
	}
	info := a.engine.CacheInfo(topN)
	a.ok(w, rid, &info)
}

// handleCacheEntry serves DELETE /v1/cache/{fingerprint}: targeted
// invalidation of one cached plan.
func (a *API) handleCacheEntry(w http.ResponseWriter, r *http.Request) {
	rid := a.requestID(r)
	if r.Method != http.MethodDelete {
		a.fail(w, rid, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "DELETE required", nil)
		return
	}
	fp := r.PathValue("fingerprint")
	if !a.engine.Invalidate(fp) {
		a.fail(w, rid, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("no cached plan under fingerprint %q", fp), nil)
		return
	}
	a.ok(w, rid, &InvalidateResponse{Fingerprint: fp})
}

// handleCacheFlush serves POST /v1/cache/flush.
func (a *API) handleCacheFlush(w http.ResponseWriter, r *http.Request) {
	rid := a.requestID(r)
	if !a.requirePOST(w, r, rid) {
		return
	}
	before := a.engine.CacheInfo(0)
	a.engine.FlushCache()
	a.ok(w, rid, &FlushResponse{PlansDropped: before.Plans})
}

// handleCatalogStats serves POST /v1/catalog/stats: it installs updated
// relation statistics into the server's SQL schema (copy-on-write — bound
// queries in flight keep the snapshot they started with) and bumps the
// engine's stats epoch. Nothing is flushed: a query bound against the new
// statistics has a new fingerprint and is planned afresh.
func (a *API) handleCatalogStats(w http.ResponseWriter, r *http.Request) {
	rid := a.requestID(r)
	if !a.requirePOST(w, r, rid) {
		return
	}
	body, e, status := a.readBody(r, rid, int64(a.maxStmt), "request")
	if e != nil {
		a.failEnv(w, status, e)
		return
	}
	var req CatalogStatsRequest
	err := json.Unmarshal(body.Bytes(), &req)
	body.Release() // every decoded string is a copy
	if err != nil {
		a.fail(w, rid, http.StatusBadRequest, CodeBadRequest, "parsing JSON body", err)
		return
	}
	if len(req.Relations) == 0 {
		a.fail(w, rid, http.StatusUnprocessableEntity, CodeInvalidQuery, "empty stats update", nil)
		return
	}
	for _, rs := range req.Relations {
		if rs.Name == "" {
			a.fail(w, rid, http.StatusUnprocessableEntity, CodeInvalidQuery, "relation with empty name", nil)
			return
		}
		if rs.Rows <= 0 {
			a.fail(w, rid, http.StatusUnprocessableEntity, CodeInvalidQuery,
				fmt.Sprintf("relation %q: rows must be positive", rs.Name), nil)
			return
		}
		for col, d := range rs.Distinct {
			if d <= 0 {
				a.fail(w, rid, http.StatusUnprocessableEntity, CodeInvalidQuery,
					fmt.Sprintf("relation %q: distinct count of %q must be positive", rs.Name, col), nil)
				return
			}
		}
	}
	updated := a.updateSchema(req.Relations)
	old, cur := a.engine.BumpStatsEpoch()
	a.ok(w, rid, &CatalogStatsResponse{OldEpoch: old, NewEpoch: cur, Updated: updated})
}

// updateSchema applies the stats updates copy-on-write: the whole schema
// map is cloned, mutated, then swapped in inside an empty statement memo, so
// concurrent binds keep reading an immutable snapshot and every statement
// prepared under the old one is forgotten with it.
func (a *API) updateSchema(updates []CatalogRelStats) int {
	a.schemaMu.Lock()
	defer a.schemaMu.Unlock()
	cur := a.stmts.Load().schema
	next := make(sql.Schema, len(cur)+len(updates))
	for name, tb := range cur {
		next[name] = tb
	}
	for _, rs := range updates {
		tb, ok := next[rs.Name]
		if !ok {
			tb = sql.Table{Rel: catalog.NewRelation(rs.Name, rs.Rows, 100), PK: "id"}
		}
		tb.Rel.Rows = rs.Rows
		if rs.Width > 0 {
			tb.Rel.Width = rs.Width
		}
		// Re-derive pages from the (possibly new) width, then honour an
		// explicit override.
		tb.Rel = catalog.NewRelation(tb.Rel.Name, tb.Rel.Rows, tb.Rel.Width)
		if ok {
			tb.Rel.HasPKIndex = cur[rs.Name].Rel.HasPKIndex
		}
		if rs.Pages > 0 {
			tb.Rel.Pages = rs.Pages
		}
		if rs.PKIndex != nil {
			tb.Rel.HasPKIndex = *rs.PKIndex
		}
		if len(rs.Distinct) > 0 {
			d := make(map[string]float64, len(tb.Distinct)+len(rs.Distinct))
			for c, v := range tb.Distinct {
				d[c] = v
			}
			for c, v := range rs.Distinct {
				d[c] = v
			}
			tb.Distinct = d
		}
		next[rs.Name] = tb
	}
	a.stmts.Store(newStmtMemo(next))
	return len(updates)
}
