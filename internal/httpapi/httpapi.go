// Package httpapi is the one versioned HTTP surface of the optimizer: the
// shared mux both mpdp-serve and mpdp-cluster mount, so the two binaries
// answer with byte-identical wire shapes by construction instead of two
// hand-copied handler sets.
//
// Endpoints (all under /v1; /metrics is also served unversioned):
//
//	POST /v1/optimize     one SQL statement (text) or WireQuery (JSON)
//	POST /v1/explain      like optimize, with the plan tree rendered
//	POST /v1/batch        many statements, optimized concurrently
//	POST /v1/fingerprint  canonical cache identity without optimizing
//	GET  /v1/stats        counters snapshot
//	GET  /v1/healthz      liveness (503 when a cluster has no alive node)
//
// Every failure returns the structured envelope {code, message, detail,
// request_id}; every response echoes X-Request-Id. The request context is
// the HTTP request's context, so a disconnecting client cancels its
// in-flight optimization (see service.Optimize).
package httpapi

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sql"
)

// StatusClientClosedRequest is the non-standard (nginx-convention) status
// reported when the client disconnected before its optimization finished.
const StatusClientClosedRequest = 499

// Request limits. SQL statements bind against sql.MusicBrainzSchema().
const (
	// MaxStatementBytes bounds one request body and one batch statement.
	MaxStatementBytes = 1 << 20
	// MaxBatch bounds the statements per /v1/batch request.
	MaxBatch = 64
)

// Options tunes an API.
type Options struct {
	// Quota, when RatePerSec is positive, rate-limits the optimization
	// endpoints per tenant (identified by the TenantHeader request header).
	// Exhausted tenants get 429 quota_exceeded + Retry-After; other tenants
	// are unaffected.
	Quota QuotaConfig
	// Slow configures the slow-request ring behind /v1/debug/slow and the
	// JSON-lines slow-query log. The zero value keeps a default-sized ring
	// with threshold logging disabled.
	Slow obs.SlowConfig
}

// API serves the versioned HTTP surface over an Engine. Create with New;
// the zero value is not usable.
type API struct {
	engine Engine
	// maxStmt and maxBatch are MaxStatementBytes and MaxBatch; a test
	// lowers them.
	maxStmt, maxBatch int
	quota             *quotas // nil when quotas are disabled
	// slow holds the slowest requests this front door answered: the one
	// slow log of a binary, single node or cluster.
	slow   *obs.SlowLog
	mux    *http.ServeMux
	ridSeq atomic.Uint64
	ridPfx string
	// stmts is the live statement memo together with the SQL-binding schema
	// snapshot it was filled under. POST /v1/catalog/stats swaps in a fresh
	// memo around an updated copy of the schema (copy-on-write; schemaMu
	// serialises the updaters), so concurrent binds always read an immutable
	// snapshot and no statement prepared under the old one is served again.
	schemaMu sync.Mutex
	stmts    atomic.Pointer[stmtMemo]
	// stmtHits and stmtMisses count memo lookups across memo swaps.
	stmtHits, stmtMisses atomic.Uint64
}

// New builds the API and its mux with the /v1 endpoints registered.
func New(engine Engine, opts Options) *API {
	a := &API{
		engine: engine, maxStmt: MaxStatementBytes, maxBatch: MaxBatch,
		quota: newQuotas(opts.Quota), slow: obs.NewSlowLog(opts.Slow), mux: http.NewServeMux(),
	}
	a.stmts.Store(newStmtMemo(sql.MusicBrainzSchema()))
	var b [3]byte
	if _, err := crand.Read(b[:]); err == nil {
		a.ridPfx = hex.EncodeToString(b[:])
	} else {
		a.ridPfx = "req"
	}
	a.mux.HandleFunc("/v1/optimize", a.handleOptimize)
	a.mux.HandleFunc("/v1/explain", a.handleExplain)
	a.mux.HandleFunc("/v1/batch", a.handleBatch)
	a.mux.HandleFunc("/v1/fingerprint", a.handleFingerprint)
	a.mux.HandleFunc("/v1/stats", a.handleStats)
	a.mux.HandleFunc("/v1/cache", a.handleCache)
	a.mux.HandleFunc("/v1/cache/flush", a.handleCacheFlush)
	a.mux.HandleFunc("/v1/cache/{fingerprint}", a.handleCacheEntry)
	a.mux.HandleFunc("/v1/catalog/stats", a.handleCatalogStats)
	a.mux.HandleFunc("/v1/healthz", a.handleHealthz)
	a.mux.HandleFunc("/v1/metrics", a.handleMetrics)
	a.mux.HandleFunc("/v1/debug/slow", a.handleSlow)
	// /metrics is the conventional scrape path, aliased rather than
	// versioned — Prometheus configs assume it.
	a.mux.HandleFunc("/metrics", a.handleMetrics)
	return a
}

// Mux returns the handler to mount on an http.Server.
func (a *API) Mux() *http.ServeMux { return a.mux }

// Handle registers an extra, binary-specific route (the cluster's admin
// surface) on the shared mux.
func (a *API) Handle(pattern string, h http.Handler) { a.mux.Handle(pattern, h) }

// requestID returns the inbound X-Request-Id or mints one.
func (a *API) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" {
		return id
	}
	return fmt.Sprintf("%s-%06d", a.ridPfx, a.ridSeq.Add(1))
}

// fail writes the structured error envelope.
func (a *API) fail(w http.ResponseWriter, rid string, status int, code, msg string, err error) {
	e := &Error{Code: code, Message: msg, RequestID: rid}
	if err != nil {
		e.Detail = err.Error()
	}
	a.failEnv(w, status, e)
}

// failEnv writes a prebuilt envelope. Envelopes carrying a retry hint
// (shed, quota, unavailable) also get a Retry-After header — the hint
// rounded up to whole seconds, since the header has one-second granularity.
func (a *API) failEnv(w http.ResponseWriter, status int, e *Error) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Request-Id", e.RequestID)
	if e.RetryAfterMS > 0 {
		secs := (e.RetryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.WriteHeader(status)
	w.Write(mustJSON(e))
	w.Write([]byte("\n"))
}

// ok writes a 200 answer: encoding/json's bytes and the closing newline,
// encoded into a recycled buffer and handed to the connection in one write.
// An answer that does not encode is a 500 envelope, never a 200.
func (a *API) ok(w http.ResponseWriter, rid string, body any) {
	b := newBody()
	if err := json.NewEncoder(&b.buf).Encode(body); err != nil {
		b.Release()
		a.fail(w, rid, http.StatusInternalServerError, CodeInternal, "encoding the answer", nil)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Request-Id", rid)
	w.Write(b.Bytes())
	b.Release()
}

// readBody reads a request body of at most limit bytes (what names it in
// the too_large message). It returns an error envelope (and HTTP status) on
// failure; on success the caller Releases the body once nothing references
// its bytes.
func (a *API) readBody(r *http.Request, rid string, limit int64, what string) (*Body, *Error, int) {
	body, err := ReadBody(r.Body, r.ContentLength, limit)
	switch {
	case errors.Is(err, ErrBodyTooLarge):
		return nil, &Error{Code: CodeTooLarge, Message: fmt.Sprintf("%s exceeds %d bytes", what, limit), RequestID: rid}, http.StatusRequestEntityTooLarge
	case err != nil:
		return nil, &Error{Code: CodeBadRequest, Message: "reading request body", Detail: err.Error(), RequestID: rid}, http.StatusBadRequest
	}
	return body, nil, 0
}

// readStatement reads one statement-sized body and reports whether it is a
// JSON wire query (anything else is SQL text).
func (a *API) readStatement(r *http.Request, rid string) (body *Body, isJSON bool, e *Error, status int) {
	body, e, status = a.readBody(r, rid, int64(a.maxStmt), "request")
	return body, strings.Contains(r.Header.Get("Content-Type"), "json"), e, status
}

// prepare turns one request body into a prepared statement: from the memo
// when these exact bytes compiled before, otherwise by decoding, compiling
// and fingerprinting them — the only place a single-statement request pays
// for any of the three. Bodies that fail are not memoised, so each failure
// is reported afresh under its own request id.
func (a *API) prepare(body []byte, isJSON bool, rid string) (*service.Prepared, *Error, int) {
	memo := a.stmts.Load()
	if p := memo.get(isJSON, body); p != nil {
		a.stmtHits.Add(1)
		return p, nil, 0
	}
	a.stmtMisses.Add(1)
	text := string(body) // the one copy: the memo's key, and the statement when it is SQL
	wq := &WireQuery{}
	if isJSON {
		if err := json.Unmarshal(body, wq); err != nil {
			return nil, &Error{Code: CodeBadRequest, Message: "parsing JSON body", Detail: err.Error(), RequestID: rid}, http.StatusBadRequest
		}
	} else {
		wq.SQL = text
	}
	p, e, status := compile(wq, memo.schema, rid)
	if e == nil {
		memo.put(stmtKey{isJSON, text}, p)
	}
	return p, e, status
}

// compile binds one wire query against schema and fingerprints it.
func compile(wq *WireQuery, schema sql.Schema, rid string) (*service.Prepared, *Error, int) {
	q, err := wq.ToQuery(schema)
	if err != nil {
		return nil, &Error{Code: CodeInvalidQuery, Message: "invalid query", Detail: err.Error(), RequestID: rid}, http.StatusUnprocessableEntity
	}
	return service.Prepare(q), nil, 0
}

// optimizeOne plans one prepared statement and builds its response; on
// failure it returns the envelope and status instead. Every engine answer
// but a shutdown is observed by the slow log, timed by the trace on ctx.
func (a *API) optimizeOne(ctx context.Context, p *service.Prepared, explain bool, rid string) (*Response, *Error, int) {
	q := p.Query
	ans, err := a.engine.Optimize(ctx, p)
	a.observeSlow(obs.FromContext(ctx), q.N(), ans, err)
	if err != nil {
		e, status := classify(err, rid)
		return nil, e, status
	}
	res := ans.Result
	if !finite(res.Plan.Cost) || !finite(res.Plan.Rows) {
		return nil, &Error{
			Code:      CodeInvalidQuery,
			Message:   "plan estimate overflows",
			Detail:    fmt.Sprintf("cost %g, rows %g", res.Plan.Cost, res.Plan.Rows),
			RequestID: rid,
		}, http.StatusUnprocessableEntity
	}
	resp := &Response{
		Relations:   q.N(),
		Edges:       len(q.G.Edges),
		Cost:        res.Plan.Cost,
		Rows:        res.Plan.Rows,
		Algorithm:   string(res.Algorithm),
		Backend:     string(res.Backend),
		Shape:       string(res.Shape),
		CacheHit:    res.CacheHit,
		Coalesced:   res.Coalesced,
		FellBack:    res.FellBack,
		ElapsedUs:   float64(res.Elapsed.Nanoseconds()) / 1e3,
		Fingerprint: res.Key,
		Node:        ans.Node,
		Failover:    ans.Failover,
	}
	resp.StatsEpoch = res.Epoch
	if res.GPU != nil {
		resp.GPUDevices = res.GPU.Devices
		resp.GPUSimMS = res.GPU.SimTimeMS
	}
	if explain {
		resp.Plan = core.Explain(q, res.Plan)
	}
	return resp, nil, 0
}

// observeSlow feeds one engine answer into the slow log. Its wall is the
// trace's so far, the one ?trace=1 reports: compile included.
func (a *API) observeSlow(tr *obs.Trace, relations int, ans *Answer, err error) {
	if errors.Is(err, service.ErrClosed) || errors.Is(err, cluster.ErrClosed) {
		return
	}
	e := obs.SlowEntry{RequestID: tr.RequestID(), WallUS: tr.WallUS(), Relations: relations}
	if ans != nil {
		e.Shape = string(ans.Shape)
		e.Algorithm = string(ans.Algorithm)
		e.Backend = string(ans.Backend)
		e.Node = ans.Node
		e.CacheHit = ans.CacheHit
	}
	if err != nil {
		e.Error = err.Error()
	}
	a.slow.Observe(e, tr)
}

func finite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

// retryAfterOverloadMS is the back-off hint attached to shed and
// unavailable responses. One second: long enough to drain a burst, short
// enough that clients re-probe a recovering server quickly.
const retryAfterOverloadMS = 1000

// classify maps an engine error to an envelope and status.
func classify(err error, rid string) (*Error, int) {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return &Error{Code: CodeCanceled, Message: "client closed request", Detail: err.Error(), RequestID: rid}, StatusClientClosedRequest
	case errors.Is(err, service.ErrOverloaded):
		return &Error{Code: CodeOverloaded, Message: "optimizer overloaded, retry later", Detail: err.Error(), RequestID: rid, RetryAfterMS: retryAfterOverloadMS}, http.StatusServiceUnavailable
	case errors.Is(err, service.ErrClosed), errors.Is(err, cluster.ErrClosed), errors.Is(err, cluster.ErrNoNodes):
		return &Error{Code: CodeUnavailable, Message: "optimizer unavailable", Detail: err.Error(), RequestID: rid, RetryAfterMS: retryAfterOverloadMS}, http.StatusServiceUnavailable
	default:
		return &Error{Code: CodeInvalidQuery, Message: "optimization rejected", Detail: err.Error(), RequestID: rid}, http.StatusUnprocessableEntity
	}
}

// checkQuota charges n requests to the caller's tenant; a nil return means
// admitted (or quotas disabled).
func (a *API) checkQuota(r *http.Request, rid string, n float64) *Error {
	if a.quota == nil {
		return nil
	}
	tenant := r.Header.Get(TenantHeader)
	ok, retryAfter := a.quota.allow(tenant, n)
	if ok {
		return nil
	}
	ms := retryAfter.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return &Error{
		Code:         CodeQuotaExceeded,
		Message:      fmt.Sprintf("tenant %q exceeded its request quota", tenant),
		RequestID:    rid,
		RetryAfterMS: ms,
	}
}

func (a *API) requirePOST(w http.ResponseWriter, r *http.Request, rid string) bool {
	if r.Method != http.MethodPost {
		a.fail(w, rid, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST required", nil)
		return false
	}
	return true
}

func (a *API) handleOptimize(w http.ResponseWriter, r *http.Request) {
	a.serveOptimize(w, r, r.URL.Query().Get("explain") != "")
}

func (a *API) handleExplain(w http.ResponseWriter, r *http.Request) {
	a.serveOptimize(w, r, true)
}

func (a *API) serveOptimize(w http.ResponseWriter, r *http.Request, explain bool) {
	rid := a.requestID(r)
	if !a.requirePOST(w, r, rid) {
		return
	}
	if e := a.checkQuota(r, rid, 1); e != nil {
		a.failEnv(w, http.StatusTooManyRequests, e)
		return
	}
	// ?epoch= asserts the catalog stats epoch the caller planned against;
	// a moved epoch rejects the request instead of answering with plans
	// costed under statistics the caller has not seen.
	if s := r.URL.Query().Get("epoch"); s != "" {
		want, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			a.fail(w, rid, http.StatusBadRequest, CodeBadRequest, "epoch must be an unsigned integer", err)
			return
		}
		if cur := a.engine.StatsEpoch(); cur != want {
			a.fail(w, rid, http.StatusConflict, CodeStaleEpoch,
				fmt.Sprintf("server stats epoch is %d, caller asserted %d", cur, want), nil)
			return
		}
	}
	body, isJSON, e, status := a.readStatement(r, rid)
	if e != nil {
		a.failEnv(w, status, e)
		return
	}
	// Every request gets a trace — its wall and spans are what the slow log
	// keeps — but the spans only travel back on ?trace=1.
	tr := obs.NewTrace(rid)
	ctx := obs.WithTrace(r.Context(), tr)
	compileDone := tr.StartSpan(obs.PhaseCompile)
	p, e, status := a.prepare(body.Bytes(), isJSON, rid)
	compileDone()
	body.Release() // prepare copied what it kept: the memo's key, the statement's strings
	if e != nil {
		a.failEnv(w, status, e)
		return
	}
	resp, e, status := a.optimizeOne(ctx, p, explain, rid)
	if e != nil {
		a.failEnv(w, status, e)
		return
	}
	if r.URL.Query().Get("trace") != "" {
		resp.Trace = tr.Spans()
		resp.TraceWallUS = tr.WallUS()
	}
	a.ok(w, rid, resp)
}

func (a *API) handleBatch(w http.ResponseWriter, r *http.Request) {
	rid := a.requestID(r)
	if !a.requirePOST(w, r, rid) {
		return
	}
	// The per-statement bound applies per statement; the batch body may
	// hold MaxBatch of them (plus JSON framing slack).
	maxBody := int64(a.maxStmt)*int64(a.maxBatch) + (1 << 20)
	body, e, status := a.readBody(r, rid, maxBody, "batch body")
	if e != nil {
		a.failEnv(w, status, e)
		return
	}
	var req BatchRequest
	err := json.Unmarshal(body.Bytes(), &req)
	body.Release() // every decoded string is a copy
	if err != nil {
		a.fail(w, rid, http.StatusBadRequest, CodeBadRequest, "parsing JSON body", err)
		return
	}
	total := len(req.Statements) + len(req.Queries)
	if total == 0 {
		a.fail(w, rid, http.StatusUnprocessableEntity, CodeInvalidQuery, "empty batch", nil)
		return
	}
	if total > a.maxBatch {
		a.fail(w, rid, http.StatusRequestEntityTooLarge, CodeTooLarge,
			fmt.Sprintf("batch of %d exceeds the limit of %d", total, a.maxBatch), nil)
		return
	}
	// A batch charges its tenant one token per statement — otherwise
	// batching would be a quota loophole.
	if e := a.checkQuota(r, rid, float64(total)); e != nil {
		a.failEnv(w, http.StatusTooManyRequests, e)
		return
	}
	// One goroutine per statement: concurrent submission lets the
	// service's worker pool optimize one HTTP request's statements in
	// parallel.
	wqs := make([]*WireQuery, 0, total)
	for i := range req.Statements {
		wqs = append(wqs, &WireQuery{SQL: req.Statements[i]})
	}
	for i := range req.Queries {
		wqs = append(wqs, &req.Queries[i])
	}
	out := BatchResponse{Results: make([]BatchItem, total)}
	// Batch items arrive decoded, without bytes of their own to key the
	// statement memo by: each compiles here, against one schema snapshot.
	schema := a.stmts.Load().schema
	var wg sync.WaitGroup
	for i, wq := range wqs {
		if len(wq.SQL) > a.maxStmt {
			out.Results[i] = BatchItem{Error: &Error{
				Code:      CodeTooLarge,
				Message:   fmt.Sprintf("statement exceeds %d bytes", a.maxStmt),
				RequestID: rid,
			}}
			continue
		}
		wg.Add(1)
		go func(i int, wq *WireQuery) {
			defer wg.Done()
			// Each statement gets its own trace: spans from concurrent
			// statements must not interleave, and the slow log should name
			// the batch's request id.
			tr := obs.NewTrace(rid)
			compileDone := tr.StartSpan(obs.PhaseCompile)
			p, e, _ := compile(wq, schema, rid)
			compileDone()
			var resp *Response
			if e == nil {
				resp, e, _ = a.optimizeOne(obs.WithTrace(r.Context(), tr), p, req.Explain, rid)
			}
			out.Results[i] = BatchItem{Response: resp, Error: e}
		}(i, wq)
	}
	wg.Wait()
	a.ok(w, rid, out)
}

func (a *API) handleFingerprint(w http.ResponseWriter, r *http.Request) {
	rid := a.requestID(r)
	if !a.requirePOST(w, r, rid) {
		return
	}
	body, isJSON, e, status := a.readStatement(r, rid)
	if e != nil {
		a.failEnv(w, status, e)
		return
	}
	p, e, status := a.prepare(body.Bytes(), isJSON, rid)
	body.Release()
	if e != nil {
		a.failEnv(w, status, e)
		return
	}
	a.ok(w, rid, &FingerprintResponse{
		Fingerprint: p.Key,
		Relations:   p.Query.N(),
		Edges:       len(p.Query.G.Edges),
		Shape:       string(core.DetectShape(p.Query.G)),
	})
}

func (a *API) handleStats(w http.ResponseWriter, r *http.Request) {
	rid := a.requestID(r)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Request-Id", rid)
	stats := a.engine.StatsJSON()
	if a.quota != nil {
		// Graft the HTTP layer's quota section onto the engine snapshot.
		// The engine stays ignorant of tenancy; only the shape changes when
		// quotas are enabled, so the parity test's default servers are
		// unaffected.
		var m map[string]json.RawMessage
		if err := json.Unmarshal([]byte(stats), &m); err == nil {
			m["quota"] = mustJSON(a.quota.snapshot())
			if b, err := json.Marshal(m); err == nil {
				stats = string(b)
			}
		}
	}
	io.WriteString(w, stats)
	io.WriteString(w, "\n")
}

func (a *API) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rid := a.requestID(r)
	h := a.engine.Health()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Request-Id", rid)
	if !h.OK {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	if h.AliveNodes >= 0 {
		fmt.Fprintf(w, "{\"status\":%q,\"alive_nodes\":%d}\n", h.Status, h.AliveNodes)
		return
	}
	fmt.Fprintf(w, "{\"status\":%q}\n", h.Status)
}

// handleMetrics serves the engine's counters and latency histograms in
// Prometheus text exposition format. GET only; no request id — scrapers
// do not send or want one.
func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		a.fail(w, a.requestID(r), http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required", nil)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := a.engine.WriteMetrics(w); err != nil {
		// Too late for a status change once the body started; the scrape
		// just comes up short and the scraper's up-metric flags it.
		return
	}
	// The front door's own families follow the engine's. hits/(hits+misses)
	// is the share of traffic that re-asked a statement byte for byte.
	mw := obs.NewMetricsWriter(w)
	mw.Counter("mpdp_httpapi_stmt_memo_hits_total", "Requests whose body was already prepared in the statement memo.", nil, a.stmtHits.Load())
	mw.Counter("mpdp_httpapi_stmt_memo_misses_total", "Requests whose body was decoded, compiled and fingerprinted.", nil, a.stmtMisses.Load())
	mw.Flush() // a short scrape is the scraper's to flag, as above
}

// SlowResponse is the body of GET /v1/debug/slow: the front door's slowest
// requests (slowest first) with their phase breakdowns, plus the
// configured slow-query-log threshold (0 when threshold logging is off).
type SlowResponse struct {
	ThresholdMS float64         `json:"threshold_ms"`
	Slowest     []obs.SlowEntry `json:"slowest"`
}

// handleSlow serves the slow-request ring; ?n= caps how many entries come
// back (default all, at most the ring's top-K).
func (a *API) handleSlow(w http.ResponseWriter, r *http.Request) {
	rid := a.requestID(r)
	if r.Method != http.MethodGet {
		a.fail(w, rid, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required", nil)
		return
	}
	n := 0
	if s := r.URL.Query().Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			a.fail(w, rid, http.StatusBadRequest, CodeBadRequest, "n must be a positive integer", err)
			return
		}
		n = v
	}
	entries := a.slow.Slowest(n)
	if entries == nil {
		entries = []obs.SlowEntry{}
	}
	a.ok(w, rid, &SlowResponse{
		ThresholdMS: float64(a.slow.Threshold().Nanoseconds()) / 1e6,
		Slowest:     entries,
	})
}
