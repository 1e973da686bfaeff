package main

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/backend"
	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/internal/workload"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	svc := service.New(service.Config{Workers: 2})
	t.Cleanup(svc.Close)
	api := httpapi.New(httpapi.ServiceEngine(svc), httpapi.Options{})
	ts := httptest.NewServer(api.Mux())
	t.Cleanup(ts.Close)
	return ts
}

const testStatement = "SELECT r.id FROM release r, release_group rg, artist_credit ac " +
	"WHERE r.release_group = rg.id AND r.artist_credit = ac.id AND rg.artist_credit = ac.id"

// decodeEnvelope asserts the body is the structured error envelope with
// the expected code and a request id.
func decodeEnvelope(t *testing.T, resp *http.Response, wantStatus int, wantCode string) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Errorf("status = %d, want %d", resp.StatusCode, wantStatus)
	}
	var e httpapi.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body is not an envelope: %v", err)
	}
	if e.Code != wantCode {
		t.Errorf("code = %q, want %q", e.Code, wantCode)
	}
	if e.Message == "" || e.RequestID == "" {
		t.Errorf("envelope incomplete: %+v", e)
	}
	if hdr := resp.Header.Get("X-Request-Id"); hdr != e.RequestID {
		t.Errorf("X-Request-Id header %q != envelope request_id %q", hdr, e.RequestID)
	}
}

// TestV1ErrorEnvelopes is the golden error-path suite of the satellite
// task: every failure class on /v1/optimize answers with the structured
// envelope and the right status.
func TestV1ErrorEnvelopes(t *testing.T) {
	ts := newTestServer(t)
	const path = "/v1/optimize"
	t.Run(path, func(t *testing.T) {
		// 405
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		decodeEnvelope(t, resp, http.StatusMethodNotAllowed, httpapi.CodeMethodNotAllowed)

		// 400: malformed JSON body
		resp, err = http.Post(ts.URL+path, "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		decodeEnvelope(t, resp, http.StatusBadRequest, httpapi.CodeBadRequest)

		// 413: oversized statement
		huge := strings.Repeat("x", httpapi.MaxStatementBytes+1)
		resp, err = http.Post(ts.URL+path, "text/plain", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		decodeEnvelope(t, resp, http.StatusRequestEntityTooLarge, httpapi.CodeTooLarge)

		// 422: parse error
		resp, err = http.Post(ts.URL+path, "text/plain", strings.NewReader("SELECT FROM WHERE"))
		if err != nil {
			t.Fatal(err)
		}
		decodeEnvelope(t, resp, http.StatusUnprocessableEntity, httpapi.CodeInvalidQuery)
	})
}

// TestV1ClosedServiceReturns503 covers the unavailable envelope.
func TestV1ClosedServiceReturns503(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	api := httpapi.New(httpapi.ServiceEngine(svc), httpapi.Options{})
	ts := httptest.NewServer(api.Mux())
	t.Cleanup(ts.Close)
	svc.Close()
	resp, err := http.Post(ts.URL+"/v1/optimize", "text/plain", strings.NewReader(testStatement))
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, resp, http.StatusServiceUnavailable, httpapi.CodeUnavailable)
}

func TestOptimizeHappyPathJSONShape(t *testing.T) {
	ts := newTestServer(t)
	post := func() httpapi.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/optimize", "text/plain", strings.NewReader(testStatement))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type = %q, want application/json", ct)
		}
		var r httpapi.Response
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			t.Fatalf("response is not JSON: %v", err)
		}
		return r
	}

	cold := post()
	if cold.Relations != 3 || cold.Edges != 3 {
		t.Errorf("relations/edges = %d/%d, want 3/3", cold.Relations, cold.Edges)
	}
	if cold.Cost <= 0 || cold.Rows <= 0 {
		t.Errorf("cost/rows = %g/%g, want positive", cold.Cost, cold.Rows)
	}
	if cold.Algorithm == "" || cold.Shape == "" || cold.Fingerprint == "" {
		t.Errorf("algorithm/shape/fingerprint empty: %+v", cold)
	}
	if cold.CacheHit {
		t.Error("first request reported a cache hit")
	}
	if cold.Plan != "" {
		t.Errorf("plan rendered without explain: %q", cold.Plan)
	}
	if cold.Node != "" || cold.Failover {
		t.Errorf("single-node response carries cluster fields: %+v", cold)
	}

	warm := post()
	if !warm.CacheHit {
		t.Error("repeat request missed the cache")
	}
	if warm.Cost != cold.Cost {
		t.Errorf("warm cost %g != cold cost %g", warm.Cost, cold.Cost)
	}
	if warm.Fingerprint != cold.Fingerprint {
		t.Errorf("fingerprint changed between identical requests")
	}
}

// expvarSeq makes each published test var unique: the expvar registry is
// global and panics on duplicate names, including across -count=N reruns
// of this test in one process.
var expvarSeq atomic.Int64

// TestLargeCyclicQueryServedExactlyByGPU is the serving-layer acceptance
// criterion of the GPU backend: a 40-relation cyclic statement POSTed to
// /v1/optimize comes back as an exact GPU plan — not a heuristic fallback —
// with the backend identified in the response, and /debug/vars (expvar)
// reports the GPU route.
func TestLargeCyclicQueryServedExactlyByGPU(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	t.Cleanup(svc.Close)
	varName := fmt.Sprintf("optimizer-gpu-test-%d", expvarSeq.Add(1))
	expvar.Publish(varName, svc.Counters())
	api := httpapi.New(httpapi.ServiceEngine(svc), httpapi.Options{})
	api.Handle("/debug/vars", expvar.Handler())
	ts := httptest.NewServer(api.Mux())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/v1/optimize", "text/plain", strings.NewReader(workload.CycleSQL(40)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var r httpapi.Response
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	if r.Relations != 40 || r.Edges != 40 {
		t.Errorf("relations/edges = %d/%d, want 40/40 (an exact cycle)", r.Relations, r.Edges)
	}
	if r.Shape != "general" {
		t.Errorf("shape = %q, want general (cyclic)", r.Shape)
	}
	if r.Backend != string(backend.GPU) || r.Algorithm != "mpdp-gpu" {
		t.Errorf("served by %s on %s, want mpdp-gpu on gpu", r.Algorithm, r.Backend)
	}
	if r.FellBack {
		t.Error("40-relation cycle fell back to a heuristic; want exact GPU plan")
	}
	if r.GPUDevices != 2 || r.GPUSimMS <= 0 {
		t.Errorf("device work model missing: devices=%d sim=%gms", r.GPUDevices, r.GPUSimMS)
	}
	if r.Cost <= 0 {
		t.Errorf("cost = %g, want positive", r.Cost)
	}

	// /debug/vars must expose the per-backend counters.
	dresp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(dresp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	var optimizer service.Snapshot
	if err := json.Unmarshal(vars[varName], &optimizer); err != nil {
		t.Fatalf("/debug/vars[%s]: %v", varName, err)
	}
	if optimizer.RouteMPDPGPU != 1 {
		t.Errorf("/debug/vars route_mpdp_gpu = %d, want 1", optimizer.RouteMPDPGPU)
	}
	gpu := optimizer.Backends[string(backend.GPU)]
	if gpu.Routed != 1 || gpu.Served != 1 || gpu.Fallbacks != 0 {
		t.Errorf("/debug/vars gpu backend counters %+v, want routed=1 served=1 fallbacks=0", gpu)
	}

	// /v1/stats carries the same per-backend breakdown.
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var snap service.Snapshot
	if err := json.NewDecoder(sresp.Body).Decode(&snap); err != nil {
		t.Fatalf("/v1/stats is not JSON: %v", err)
	}
	if snap.Backends[string(backend.GPU)].Served != 1 {
		t.Errorf("/v1/stats gpu served = %d, want 1", snap.Backends[string(backend.GPU)].Served)
	}
}

func TestOptimizeExplainIncludesPlan(t *testing.T) {
	ts := newTestServer(t)
	for _, path := range []string{"/v1/optimize?explain=1", "/v1/explain"} {
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(testStatement))
		if err != nil {
			t.Fatal(err)
		}
		var r httpapi.Response
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if r.Plan == "" {
			t.Errorf("%s response has no plan", path)
		}
	}
}

func TestStatsAndHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("/v1/stats is not JSON: %v", err)
	}
	resp.Body.Close()
	if _, ok := stats["requests"]; !ok {
		t.Errorf("/v1/stats lacks requests: %v", stats)
	}
	if _, ok := stats["canceled"]; !ok {
		t.Errorf("/v1/stats lacks canceled counter: %v", stats)
	}

	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("/v1/healthz is not JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Errorf("/v1/healthz = %d %q, want 200 ok", resp.StatusCode, health.Status)
	}
}

func TestBatchEndpoint(t *testing.T) {
	ts := newTestServer(t)
	body := fmt.Sprintf(`{"statements":[%q,%q]}`, testStatement, workload.CycleSQL(10))
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	var br httpapi.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 {
		t.Fatalf("batch results = %d, want 2", len(br.Results))
	}
	for i, item := range br.Results {
		if item.Error != nil {
			t.Errorf("batch item %d failed: %+v", i, item.Error)
			continue
		}
		if item.Response == nil || item.Response.Cost <= 0 {
			t.Errorf("batch item %d has no valid response", i)
		}
	}
}
