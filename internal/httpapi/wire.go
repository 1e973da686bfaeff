package httpapi

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"unicode/utf8"

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

// DecodeResponse decodes raw into *resp when raw is a Response as this
// package writes one, and reports whether it did. It is the SDK's decoder
// for the one struct that crosses the socket on every hit, and it may
// refuse but never disagree: whenever it returns true, *resp is exactly what
// json.Unmarshal(raw, new(Response)) produces (FuzzDecodeResponse pins
// that); on false *resp is untouched and the caller hands raw to
// encoding/json, the decoder of record. It takes an object of the keys
// above, each at most once, in any order and without white space, values of
// the field's own JSON type, the string escapes json.Marshal emits, and one
// closing newline — and refuses everything else: an unknown or differently
// cased key, null, a surrogate escape, invalid UTF-8, a number strconv
// rejects, trailing bytes. A field added to Response needs a case here, or
// every answer falls back (TestDecodeResponseTakesWhatHTTPAPIEmits fails).
//
//mpdp:hotpath
func DecodeResponse(raw []byte, resp *Response) bool {
	c := cursor{b: raw}
	var r Response
	if !c.eat('{') {
		return false
	}
	for seen, more := uint32(0), !c.eat('}'); more; {
		var bit uint32
		var ok bool
		switch string(c.key()) {
		case "relations":
			bit, ok = 1<<0, c.int(&r.Relations)
		case "edges":
			bit, ok = 1<<1, c.int(&r.Edges)
		case "cost":
			bit, ok = 1<<2, c.float(&r.Cost)
		case "rows":
			bit, ok = 1<<3, c.float(&r.Rows)
		case "algorithm":
			bit, ok = 1<<4, c.str(&r.Algorithm)
		case "backend":
			bit, ok = 1<<5, c.str(&r.Backend)
		case "shape":
			bit, ok = 1<<6, c.str(&r.Shape)
		case "cache_hit":
			bit, ok = 1<<7, c.bool(&r.CacheHit)
		case "coalesced":
			bit, ok = 1<<8, c.bool(&r.Coalesced)
		case "fell_back":
			bit, ok = 1<<9, c.bool(&r.FellBack)
		case "elapsed_us":
			bit, ok = 1<<10, c.float(&r.ElapsedUs)
		case "fingerprint":
			bit, ok = 1<<11, c.str(&r.Fingerprint)
		case "stats_epoch":
			bit, ok = 1<<12, c.uint(&r.StatsEpoch)
		case "gpu_devices":
			bit, ok = 1<<13, c.int(&r.GPUDevices)
		case "gpu_sim_ms":
			bit, ok = 1<<14, c.float(&r.GPUSimMS)
		case "plan":
			bit, ok = 1<<15, c.str(&r.Plan)
		case "node":
			bit, ok = 1<<16, c.str(&r.Node)
		case "failover":
			bit, ok = 1<<17, c.bool(&r.Failover)
		case "trace":
			bit, ok = 1<<18, c.spans(&r.Trace)
		case "trace_wall_us":
			bit, ok = 1<<19, c.float(&r.TraceWallUS)
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if more = c.eat(','); !more && !c.eat('}') {
			return false
		}
	}
	c.eat('\n')
	if c.i != len(c.b) {
		return false
	}
	*resp = r
	return true
}

// cursor is DecodeResponse's position in its input. Every method consumes
// what it accepts and reports false, wherever it then stands, on anything
// it does not.
type cursor struct {
	b []byte
	i int
}

func (c *cursor) eat(ch byte) bool {
	if c.i < len(c.b) && c.b[c.i] == ch {
		c.i++
		return true
	}
	return false
}

func (c *cursor) lit(s string) bool {
	if len(c.b)-c.i >= len(s) && string(c.b[c.i:c.i+len(s)]) == s {
		c.i += len(s)
		return true
	}
	return false
}

// key consumes `"name":` and returns the name, nil when that is not what
// stands there. The name comes back undecoded: one with an escape in it
// matches no field name and is refused as unknown, like nil.
func (c *cursor) key() []byte {
	if !c.eat('"') {
		return nil
	}
	n := bytes.IndexByte(c.b[c.i:], '"')
	if n < 0 {
		return nil
	}
	name := c.b[c.i : c.i+n]
	if c.i += n + 1; !c.eat(':') {
		return nil
	}
	return name
}

func (c *cursor) bool(dst *bool) bool {
	*dst = c.lit("true")
	return *dst || c.lit("false")
}

// number consumes one number of the JSON grammar, which is narrower than
// what strconv parses (no "+1", ".5", "1.", "0x10", "Inf", "1_0").
func (c *cursor) number() (text []byte, integer, ok bool) {
	b, i := c.b, c.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false, false
		}
		i = j
	}
	text, c.i = b[c.i:i], i
	return text, integer, true
}

// digits returns the end of the run of decimal digits of b that starts at i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func (c *cursor) float(dst *float64) bool {
	text, _, ok := c.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(text), 64)
	*dst = v
	return err == nil
}

func (c *cursor) int(dst *int) bool {
	text, integer, ok := c.number()
	if !ok || !integer {
		return false
	}
	v, err := strconv.ParseInt(string(text), 10, strconv.IntSize)
	*dst = int(v)
	return err == nil
}

func (c *cursor) uint(dst *uint64) bool {
	text, integer, ok := c.number()
	if !ok || !integer {
		return false
	}
	v, err := strconv.ParseUint(string(text), 10, 64)
	*dst = v
	return err == nil
}

// str consumes one string and stores a copy of what it spells.
//
//mpdp:hotpath
func (c *cursor) str(dst *string) bool {
	if !c.eat('"') {
		return false
	}
	// Find the closing quote, counting escapes: each spells fewer bytes than
	// it takes, so end-escapes bounds the decoded length from above.
	b := c.b[c.i:]
	end, escapes := 0, 0
	for ; end < len(b) && b[end] != '"'; end++ {
		if b[end] < 0x20 {
			return false
		}
		if b[end] == '\\' {
			escapes++
			end++
		}
	}
	if end >= len(b) {
		return false
	}
	c.i += end + 1
	b = b[:end]
	if escapes == 0 {
		if !utf8.Valid(b) {
			return false
		}
		*dst = string(b)
		return true
	}
	var sb strings.Builder
	sb.Grow(end - escapes)
	for len(b) > 0 {
		run := bytes.IndexByte(b, '\\')
		if run < 0 {
			run = len(b)
		}
		if !utf8.Valid(b[:run]) {
			return false
		}
		sb.Write(b[:run])
		if b = b[run:]; len(b) == 0 {
			break
		}
		ch := b[1] // the closing-quote scan stepped over it, so it is there
		switch ch {
		case '"', '\\', '/':
		case 'n':
			ch = '\n'
		case 't':
			ch = '\t'
		case 'r':
			ch = '\r'
		case 'b':
			ch = '\b'
		case 'f':
			ch = '\f'
		case 'u':
			if len(b) < 6 {
				return false
			}
			r, err := strconv.ParseUint(string(b[2:6]), 16, 16)
			if err != nil || 0xD800 <= r && r < 0xE000 { // a surrogate half: encoding/json's to pair up
				return false
			}
			sb.WriteRune(rune(r))
			b = b[6:]
			continue
		default:
			return false
		}
		sb.WriteByte(ch)
		b = b[2:]
	}
	*dst = sb.String()
	return true
}

// spans consumes the trace array: span objects under the same rules as the
// response itself. The empty array, which omitempty never writes, is refused.
func (c *cursor) spans(dst *[]obs.Span) bool {
	if !c.eat('[') {
		return false
	}
	for {
		var s obs.Span
		if !c.eat('{') {
			return false
		}
		for seen, more := uint8(0), !c.eat('}'); more; {
			var bit uint8
			var ok bool
			switch string(c.key()) {
			case "phase":
				bit, ok = 1<<0, c.str(&s.Phase)
			case "start_us":
				bit, ok = 1<<1, c.float(&s.StartUS)
			case "dur_us":
				bit, ok = 1<<2, c.float(&s.DurUS)
			case "sim":
				bit, ok = 1<<3, c.bool(&s.Sim)
			default:
				return false
			}
			if !ok || seen&bit != 0 {
				return false
			}
			seen |= bit
			if more = c.eat(','); !more && !c.eat('}') {
				return false
			}
		}
		*dst = append(*dst, s)
		if !c.eat(',') {
			return c.eat(']')
		}
	}
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
// structured queries optimized concurrently on the service's worker pool.
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
