package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/workload"
)

// scrapeMetrics GETs path and validates the body as Prometheus text
// exposition format, returning the metric families seen.
func scrapeMetrics(t *testing.T, ts *httptest.Server, path string) map[string]bool {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status = %d", path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("GET %s Content-Type = %q, want text/plain", path, ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	families, err := obs.ValidateExposition(string(body))
	if err != nil {
		t.Fatalf("GET %s: malformed exposition: %v\n%s", path, err, body)
	}
	return families
}

func postOK(t *testing.T, ts *httptest.Server, path, body string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s status = %d: %s", path, resp.StatusCode, raw)
	}
}

// TestMetricsExpositionGolden is the exposition-format gate on both
// binaries' muxes: after live traffic, /metrics (and the /v1 alias) must
// parse cleanly and carry the core series a dashboard scrapes. CI enforces
// the same contract against a live mpdp-serve.
func TestMetricsExpositionGolden(t *testing.T) {
	serveTS := newServiceServer(t, service.Config{})
	clusterTS := newClusterServer(t)

	shared := []string{
		"mpdp_requests_total", "mpdp_cache_hits_total", "mpdp_cache_misses_total",
		"mpdp_coalesced_total", "mpdp_fallbacks_total", "mpdp_errors_total",
		"mpdp_shed_total", "mpdp_queued_total", "mpdp_queue_depth", "mpdp_inflight",
		"mpdp_route_total", "mpdp_backend_routed_total", "mpdp_backend_served_total",
		"mpdp_request_seconds", "mpdp_shed_seconds", "mpdp_queue_wait_seconds",
		"mpdp_cache_plans",
	}
	clusterOnly := []string{
		"mpdp_cluster_requests_total", "mpdp_cluster_failovers_total",
		"mpdp_cluster_alive_nodes", "mpdp_cluster_cache_plans",
	}

	for name, ts := range map[string]*httptest.Server{"serve": serveTS, "cluster": clusterTS} {
		// Twice: a miss then a hit, so both latency families have samples.
		postOK(t, ts, "/v1/optimize", testStatement)
		postOK(t, ts, "/v1/optimize", testStatement)
		for _, path := range []string{"/metrics", "/v1/metrics"} {
			families := scrapeMetrics(t, ts, path)
			for _, want := range shared {
				if !families[want] {
					t.Errorf("%s %s: missing family %s", name, path, want)
				}
			}
			if name == "cluster" {
				for _, want := range clusterOnly {
					if !families[want] {
						t.Errorf("cluster %s: missing family %s", path, want)
					}
				}
			}
		}
	}

	// POST is not a scrape.
	resp, err := http.Post(serveTS.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics status = %d, want 405", resp.StatusCode)
	}
}

// postTraced posts a structured wire query with ?trace=1 and a request id,
// returning the decoded response.
func postTraced(t *testing.T, ts *httptest.Server, wq *WireQuery, rid string) *Response {
	t.Helper()
	body, err := json.Marshal(wq)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/optimize?trace=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("traced optimize status = %d: %s", resp.StatusCode, raw)
	}
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestClusterTraceSpanSum is the tentpole acceptance test: a traced
// 20-relation MusicBrainz request through the cluster front door returns
// phase spans whose non-simulated sum is within 10% of the traced wall
// time — i.e. the span taxonomy partitions the critical path instead of
// double-counting or leaking it.
func TestClusterTraceSpanSum(t *testing.T) {
	ts := newClusterServer(t)
	q := workload.MusicBrainzQuery(20, rand.New(rand.NewSource(7)))
	resp := postTraced(t, ts, FromQuery(q), "trace-accept-1")

	if len(resp.Trace) == 0 {
		t.Fatal("traced response has no spans")
	}
	if resp.TraceWallUS <= 0 {
		t.Fatalf("trace_wall_us = %g, want > 0", resp.TraceWallUS)
	}
	var sum float64
	phases := make(map[string]bool)
	for _, s := range resp.Trace {
		if s.DurUS < 0 {
			t.Errorf("span %s has negative duration %g", s.Phase, s.DurUS)
		}
		phases[s.Phase] = true
		if !s.Sim {
			sum += s.DurUS
		}
	}
	for _, want := range []string{obs.PhaseCompile, obs.PhaseCacheProbe, obs.PhaseEnumerate, obs.PhaseMaterialize} {
		if !phases[want] {
			t.Errorf("trace lacks phase %q (got %v)", want, phases)
		}
	}
	if ratio := sum / resp.TraceWallUS; ratio < 0.90 || ratio > 1.10 {
		t.Errorf("non-sim span sum %.1fus is %.1f%% of wall %.1fus, want within 10%%\nspans: %+v",
			sum, 100*ratio, resp.TraceWallUS, resp.Trace)
	}

	// A cache hit on the same fingerprint still traces, with no enumerate.
	hit := postTraced(t, ts, FromQuery(q), "trace-accept-2")
	if !hit.CacheHit {
		t.Fatal("second identical query was not a cache hit")
	}
	for _, s := range hit.Trace {
		if s.Phase == obs.PhaseEnumerate {
			t.Errorf("cache hit recorded an enumerate span: %+v", hit.Trace)
		}
	}

	// Without ?trace= the response must not carry spans.
	plain := postJSONKeys(t, ts, "/v1/optimize", testStatement)
	if contains(plain, "trace") || contains(plain, "trace_wall_us") {
		t.Errorf("untraced response leaked trace fields: %v", plain)
	}
}

// TestDebugSlowEndpoint checks the always-on slow ring: requests land in
// /v1/debug/slow slowest-first, carrying the caller's X-Request-Id and the
// phase spans (the request-id propagation satellite).
func TestDebugSlowEndpoint(t *testing.T) {
	ts := newServiceServer(t, service.Config{})
	q := workload.MusicBrainzQuery(12, rand.New(rand.NewSource(3)))
	postTraced(t, ts, FromQuery(q), "slow-rid-42")

	resp, err := http.Get(ts.URL + "/v1/debug/slow?n=8")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/debug/slow status = %d", resp.StatusCode)
	}
	var out SlowResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Slowest) == 0 {
		t.Fatal("slow ring is empty after a request")
	}
	found := false
	for i, e := range out.Slowest {
		if e.WallUS <= 0 {
			t.Errorf("entry %d wall_us = %g, want > 0", i, e.WallUS)
		}
		if i > 0 && e.WallUS > out.Slowest[i-1].WallUS {
			t.Errorf("slow ring not sorted slowest-first at %d", i)
		}
		if e.RequestID == "slow-rid-42" {
			found = true
			if len(e.Spans) == 0 {
				t.Error("slow entry for traced request has no spans")
			}
		}
	}
	if !found {
		t.Errorf("no slow entry carries the request id; got %+v", out.Slowest)
	}

	// Bad n is a 400, not a panic.
	resp2, err := http.Get(ts.URL + "/v1/debug/slow?n=zero")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /v1/debug/slow?n=zero status = %d, want 400", resp2.StatusCode)
	}
}

// TestClusterDebugSlowOneEntry checks the one slow log behind a cluster:
// a request through the front door leaves exactly one /v1/debug/slow entry,
// carrying the caller's X-Request-Id, the serving node, the front door's
// trace wall (compile included, so never above the wall ?trace=1 reports
// later) and the spans of every layer, the coordinator's replicate span
// among them.
func TestClusterDebugSlowOneEntry(t *testing.T) {
	ts := newClusterServer(t)
	q := workload.MusicBrainzQuery(10, rand.New(rand.NewSource(5)))
	resp := postTraced(t, ts, FromQuery(q), "rid-slow-7")

	got, err := http.Get(ts.URL + "/v1/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer got.Body.Close()
	var out SlowResponse
	if err := json.NewDecoder(got.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Slowest) != 1 {
		t.Fatalf("slow ring has %d entries after one request, want 1: %+v", len(out.Slowest), out.Slowest)
	}
	e := out.Slowest[0]
	if e.RequestID != "rid-slow-7" {
		t.Errorf("slow entry request_id = %q, want rid-slow-7", e.RequestID)
	}
	if e.Node == "" || e.Node != resp.Node {
		t.Errorf("slow entry node = %q, want the serving node %q", e.Node, resp.Node)
	}
	if e.WallUS <= 0 || e.WallUS > resp.TraceWallUS {
		t.Errorf("slow entry wall_us = %g, want in (0, %g]", e.WallUS, resp.TraceWallUS)
	}
	phases := make(map[string]bool)
	for _, s := range e.Spans {
		phases[s.Phase] = true
	}
	for _, want := range []string{obs.PhaseCompile, obs.PhaseCacheProbe, obs.PhaseReplicate} {
		if !phases[want] {
			t.Errorf("slow entry lacks a %s span: %+v", want, e.Spans)
		}
	}
}
