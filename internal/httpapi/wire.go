package httpapi

import (
	"encoding/json"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Response is the wire shape of one optimized statement. It is the single
// source of truth for both binaries: mpdp-serve and mpdp-cluster marshal
// the same struct, so their field names cannot drift (the parity test in
// this package additionally pins the key set). Single-node servers leave
// the cluster-only fields (node, failover) at their zero values, which
// omitempty drops from the JSON.
type Response struct {
	Relations int     `json:"relations"`
	Edges     int     `json:"edges"`
	Cost      float64 `json:"cost"`
	Rows      float64 `json:"rows"`
	Algorithm string  `json:"algorithm"`
	// Backend is the execution substrate that produced the plan (cpu-seq,
	// cpu-parallel, gpu, heuristic); cache hits and replicated plans report
	// the original optimization's backend.
	Backend   string  `json:"backend"`
	Shape     string  `json:"shape"`
	CacheHit  bool    `json:"cache_hit"`
	Coalesced bool    `json:"coalesced"`
	FellBack  bool    `json:"fell_back"`
	ElapsedUs float64 `json:"elapsed_us"`
	// Fingerprint is the canonical join-graph fingerprint the plan is
	// cached under: isomorphic queries with identical statistics share it.
	Fingerprint string `json:"fingerprint,omitempty"`
	// StatsEpoch is the catalog stats epoch the served plan was produced
	// under (see POST /v1/catalog/stats).
	StatsEpoch uint64 `json:"stats_epoch,omitempty"`
	// GPUDevices/GPUSimMS carry the device work model when the GPU backend
	// produced the plan.
	GPUDevices int     `json:"gpu_devices,omitempty"`
	GPUSimMS   float64 `json:"gpu_sim_ms,omitempty"`
	Plan       string  `json:"plan,omitempty"`
	// Node and Failover are set only by cluster front doors.
	Node     string `json:"node,omitempty"`
	Failover bool   `json:"failover,omitempty"`
	// Trace and TraceWallUS are set only when the request asked for its
	// phase breakdown with ?trace=1: the spans recorded along the critical
	// path (see OBSERVABILITY.md for the taxonomy) and the wall time the
	// trace covers. Spans flagged sim are modeled GPU time, not wall time.
	Trace       []obs.Span `json:"trace,omitempty"`
	TraceWallUS float64    `json:"trace_wall_us,omitempty"`
}

// Error is the structured error envelope every /v1 endpoint returns on
// failure.
type Error struct {
	// Code is a stable, machine-readable error class (see the Code*
	// constants).
	Code string `json:"code"`
	// Message is a short human-readable description.
	Message string `json:"message"`
	// Detail carries the underlying error text, when there is one.
	Detail string `json:"detail,omitempty"`
	// RequestID identifies the failed request; it is also echoed in the
	// X-Request-Id response header.
	RequestID string `json:"request_id"`
	// RetryAfterMS, on retryable codes (overloaded, quota_exceeded,
	// unavailable), hints how long to back off before retrying. The same
	// hint is rounded up to whole seconds in the Retry-After header.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// The error-code registry, paired with their HTTP status codes.
const (
	CodeMethodNotAllowed = "method_not_allowed" // 405
	CodeBadRequest       = "bad_request"        // 400
	CodeTooLarge         = "too_large"          // 413
	CodeInvalidQuery     = "invalid_query"      // 422
	CodeUnavailable      = "unavailable"        // 503
	CodeOverloaded       = "overloaded"         // 503, admission-control shed
	CodeQuotaExceeded    = "quota_exceeded"     // 429, per-tenant quota
	CodeCanceled         = "client_closed_request"
	CodeInternal         = "internal"
	CodeNotFound         = "not_found"   // 404, e.g. DELETE of an uncached fingerprint
	CodeStaleEpoch       = "stale_epoch" // 409, ?epoch= assertion failed
)

// The wire form of a query lives in the leaf package internal/wire so the
// cluster's socket transport can ship the identical serialization without
// an import cycle; the aliases below keep this package's public names.

// WireRelation is one base relation of a structured wire query.
type WireRelation = wire.Relation

// WireEdge is one join predicate of a structured wire query.
type WireEdge = wire.Edge

// WireQuery is the JSON request body of the /v1 optimization endpoints:
// either a SQL statement in the internal dialect (bound against the
// server's schema) or an explicit catalog + join graph, which lets SDK
// clients ship programmatically built queries with exact statistics.
type WireQuery = wire.Query

// FromQuery serializes a query into wire form (the SDK's Remote driver
// uses this to ship builder-made queries).
func FromQuery(q *cost.Query) *WireQuery { return wire.FromQuery(q) }

// BatchRequest is the body of POST /v1/batch: a set of statements and/or
// structured queries optimized concurrently, which lets the GPU backend's
// batcher coalesce them into device-saturating batches within one request.
type BatchRequest struct {
	// Statements are SQL texts in the internal dialect.
	Statements []string `json:"statements,omitempty"`
	// Queries are structured wire queries, appended after Statements in
	// the result order.
	Queries []WireQuery `json:"queries,omitempty"`
	// Explain asks for the plan tree of every result.
	Explain bool `json:"explain,omitempty"`
}

// BatchItem is one element of a batch response: exactly one of Response or
// Error is set.
type BatchItem struct {
	Response *Response `json:"response,omitempty"`
	Error    *Error    `json:"error,omitempty"`
}

// BatchResponse is the body of a /v1/batch answer, results in request
// order (statements first, then structured queries).
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// FingerprintResponse is the body of a /v1/fingerprint answer: the
// canonical cache identity of a query without optimizing it.
type FingerprintResponse struct {
	Fingerprint string `json:"fingerprint"`
	Relations   int    `json:"relations"`
	Edges       int    `json:"edges"`
	Shape       string `json:"shape"`
}

// InvalidateResponse is the body of a successful
// DELETE /v1/cache/{fingerprint}.
type InvalidateResponse struct {
	Fingerprint string `json:"fingerprint"`
}

// FlushResponse is the body of POST /v1/cache/flush: what the flush
// dropped.
type FlushResponse struct {
	PlansDropped int `json:"plans_dropped"`
}

// CatalogRelStats is one relation's updated statistics in a
// POST /v1/catalog/stats body. Absent optional fields keep the schema
// entry's previous value; Distinct merges per column.
type CatalogRelStats struct {
	Name string `json:"name"`
	// Rows is the new estimated tuple count (required, positive).
	Rows float64 `json:"rows"`
	// Width is the average tuple width in bytes (0: keep, or 100 for new
	// relations). Pages overrides the derived page count when positive.
	Width int     `json:"width,omitempty"`
	Pages float64 `json:"pages,omitempty"`
	// PKIndex marks a usable primary-key index.
	PKIndex *bool `json:"pk_index,omitempty"`
	// Distinct updates per-column distinct counts, which drive the SQL
	// binder's join selectivities (1/max(distinct sides)).
	Distinct map[string]float64 `json:"distinct,omitempty"`
}

// CatalogStatsRequest is the body of POST /v1/catalog/stats.
type CatalogStatsRequest struct {
	Relations []CatalogRelStats `json:"relations"`
}

// CatalogStatsResponse reports the epoch transition a stats update caused.
// Cached plans stamped with epochs before NewEpoch are not flushed: they
// stay exact for queries that still carry their statistics.
type CatalogStatsResponse struct {
	OldEpoch uint64 `json:"old_epoch"`
	NewEpoch uint64 `json:"new_epoch"`
	// Updated counts the schema relations the request changed or created.
	Updated int `json:"updated"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte("{}")
	}
	return b
}
