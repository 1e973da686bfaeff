package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/workload"
)

const testStatement = "SELECT r.id FROM release r, release_group rg, artist_credit ac " +
	"WHERE r.release_group = rg.id AND r.artist_credit = ac.id AND rg.artist_credit = ac.id"

func newServiceServer(t *testing.T, cfg service.Config) *httptest.Server {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	svc := service.New(cfg)
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(New(ServiceEngine(svc), Options{}).Mux())
	t.Cleanup(ts.Close)
	return ts
}

func newClusterServer(t *testing.T) *httptest.Server {
	t.Helper()
	c := cluster.New(cluster.Config{Nodes: 2, Replicas: 2, Service: service.Config{Workers: 2}})
	t.Cleanup(c.Close)
	ts := httptest.NewServer(New(ClusterEngine(c), Options{}).Mux())
	t.Cleanup(ts.Close)
	return ts
}

func postJSONKeys(t *testing.T, ts *httptest.Server, path, body string) []string {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s status = %d", path, resp.StatusCode)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestResponseShapeParity is the satellite parity test: the /v1/optimize
// JSON of mpdp-serve and mpdp-cluster must use identical field names — the
// cluster may add exactly node and failover, nothing else, and no shared
// field may be missing or renamed on either side. Both muxes marshal the
// shared httpapi.Response, so a drift can only come from a second handler
// set sneaking back in; this test makes that a CI failure.
func TestResponseShapeParity(t *testing.T) {
	serveTS := newServiceServer(t, service.Config{})
	clusterTS := newClusterServer(t)

	const path = "/v1/optimize"
	serveKeys := postJSONKeys(t, serveTS, path, testStatement)
	clusterKeys := postJSONKeys(t, clusterTS, path, testStatement)

	clusterOnly := map[string]bool{"node": true, "failover": true}
	var clusterShared []string
	for _, k := range clusterKeys {
		if !clusterOnly[k] {
			clusterShared = append(clusterShared, k)
		}
	}
	if fmt.Sprint(serveKeys) != fmt.Sprint(clusterShared) {
		t.Errorf("%s shape drift:\n  serve:   %v\n  cluster: %v (minus node/failover)",
			path, serveKeys, clusterShared)
	}
	// The GPU fields must be spelled identically when present: force
	// them with a GPU-routed statement on both.
	gpuServe := postJSONKeys(t, serveTS, path, workload.CycleSQL(40))
	gpuCluster := postJSONKeys(t, clusterTS, path, workload.CycleSQL(40))
	for _, want := range []string{"backend", "gpu_devices", "gpu_sim_ms"} {
		if !contains(gpuServe, want) {
			t.Errorf("%s serve GPU response lacks %q: %v", path, want, gpuServe)
		}
		if !contains(gpuCluster, want) {
			t.Errorf("%s cluster GPU response lacks %q: %v", path, want, gpuCluster)
		}
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// wedgeConfig is a one-worker service on which workload.CliqueSQL of
// workload.WedgeRelations relations is still enumerating, exactly, when a
// test is over: both CPU exact bands are lifted past the clique (the
// default router hands cliques beyond 14 relations to a heuristic, which
// finishes at once), the enumeration is pinned to one thread so that the
// minute it needs does not shrink with the host's core count, and no
// budget expires.
func wedgeConfig() service.Config {
	return service.Config{
		Workers:   1,
		Threads:   1,
		Crossover: &backend.Crossover{CPUParallelLimit: 64, CliqueCPULimit: 64},
		Timeout:   time.Hour,
	}
}

// TestClientDisconnectCancelsInFlightOptimization is the satellite
// regression test: a clique forced onto the exact CPU-parallel route costs
// 3^20 join pairs; aborting the HTTP request must cancel that enumeration
// promptly, free the worker, and account the cancellation in the counters.
func TestClientDisconnectCancelsInFlightOptimization(t *testing.T) {
	// One worker, so a leak would wedge the pool.
	svc := service.New(wedgeConfig())
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(New(ServiceEngine(svc), Options{}).Mux())
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/optimize",
		strings.NewReader(workload.CliqueSQL(workload.WedgeRelations)))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	// Let the enumeration get in flight, then hang up.
	time.Sleep(300 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("aborted request returned a response")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client did not unblock after cancel")
	}

	// The single worker must come free again well under the enumeration
	// time: a small follow-up query has to complete.
	start := time.Now()
	reqCtx, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	req2, err := http.NewRequestWithContext(reqCtx, http.MethodPost, ts.URL+"/v1/optimize",
		strings.NewReader(testStatement))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatalf("worker still wedged %v after disconnect: %v", time.Since(start), err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up request status = %d", resp.StatusCode)
	}

	// Counters accounted: the disconnect shows up as canceled, not error.
	if got := svc.Counters().Snapshot().Canceled; got < 1 {
		t.Errorf("canceled counter = %d, want >= 1", got)
	}
	if got := svc.Counters().Snapshot().Errors; got != 0 {
		t.Errorf("errors counter = %d, want 0 (cancellation is not an error)", got)
	}
}

// TestStructuredWireQueryRoundTrip: a JSON WireQuery body optimizes to the
// same cost as the equivalent SQL text, and /v1/fingerprint agrees on the
// canonical key for both encodings.
func TestStructuredWireQueryRoundTrip(t *testing.T) {
	ts := newServiceServer(t, service.Config{})

	// The SQL path.
	var viaSQL Response
	resp, err := http.Post(ts.URL+"/v1/optimize", "text/plain", strings.NewReader(testStatement))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&viaSQL); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The structured path: serialize the same bound query.
	wq := &WireQuery{SQL: testStatement}
	q, err := wq.ToQuery(Options{}.withDefaults().Schema)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(FromQuery(q))
	var viaWire Response
	resp, err = http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&viaWire); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if viaWire.Cost != viaSQL.Cost {
		t.Errorf("wire cost %g != sql cost %g", viaWire.Cost, viaSQL.Cost)
	}
	if viaWire.Fingerprint != viaSQL.Fingerprint {
		t.Errorf("wire fingerprint %q != sql fingerprint %q", viaWire.Fingerprint, viaSQL.Fingerprint)
	}
	if !viaWire.CacheHit {
		t.Errorf("identical statistics through the wire encoding missed the cache")
	}

	// /v1/fingerprint returns the same canonical key without optimizing.
	var fp FingerprintResponse
	resp, err = http.Post(ts.URL+"/v1/fingerprint", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&fp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fp.Fingerprint != viaSQL.Fingerprint {
		t.Errorf("/v1/fingerprint %q != optimize fingerprint %q", fp.Fingerprint, viaSQL.Fingerprint)
	}
	if fp.Relations != 3 || fp.Shape == "" {
		t.Errorf("fingerprint metadata = %+v", fp)
	}
}

// TestBatchLimits: batch size and body caps produce the envelope.
func TestBatchLimits(t *testing.T) {
	ts := newServiceServer(t, service.Config{})

	var stmts []string
	for i := 0; i < 65; i++ {
		stmts = append(stmts, testStatement)
	}
	body, _ := json.Marshal(BatchRequest{Statements: stmts})
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize batch = %d, want 413", resp.StatusCode)
	}
	var e Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Code != CodeTooLarge {
		t.Errorf("oversize batch envelope = %+v (%v)", e, err)
	}

	// Empty batch is a 422.
	resp2, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("empty batch = %d, want 422", resp2.StatusCode)
	}

	// A batch mixing a good and a bad statement reports per-item results.
	body, _ = json.Marshal(BatchRequest{Statements: []string{testStatement, "SELECT FROM WHERE"}})
	resp3, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var br BatchResponse
	if err := json.NewDecoder(resp3.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 || br.Results[0].Response == nil || br.Results[1].Error == nil {
		t.Errorf("mixed batch results = %+v", br.Results)
	}
	if br.Results[1].Error != nil && br.Results[1].Error.Code != CodeInvalidQuery {
		t.Errorf("bad statement code = %q, want %q", br.Results[1].Error.Code, CodeInvalidQuery)
	}
}

// TestRequestIDEcho: an inbound X-Request-Id is preserved end to end.
func TestRequestIDEcho(t *testing.T) {
	ts := newServiceServer(t, service.Config{})
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/optimize", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "trace-me-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.RequestID != "trace-me-123" || resp.Header.Get("X-Request-Id") != "trace-me-123" {
		t.Errorf("request id not echoed: envelope %q header %q", e.RequestID, resp.Header.Get("X-Request-Id"))
	}
}

// countingBody is a request body that counts what the server reads of it.
type countingBody struct {
	r    io.Reader
	read int
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.read += n
	return n, err
}

// TestBodyLimits pins what the size limits mean on the three endpoints that
// read a body through API.readBody, for declared (Content-Length) and
// undeclared (chunked) bodies alike. The statement limit is 256 bytes here,
// the batch limit 256*2 + 1 MiB of framing slack.
func TestBodyLimits(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	defer svc.Close()
	api := New(ServiceEngine(svc), Options{MaxStatementBytes: 256, MaxBatch: 2})
	const stmtLimit, batchLimit = 256, 256*2 + 1<<20
	endpoints := []struct {
		path  string
		limit int
		// emptyStatus is what an empty body answers: an empty statement does
		// not parse, and empty JSON does not decode.
		emptyStatus int
		emptyCode   string
	}{
		{"/v1/optimize", stmtLimit, http.StatusUnprocessableEntity, CodeInvalidQuery},
		{"/v1/batch", batchLimit, http.StatusBadRequest, CodeBadRequest},
		{"/v1/catalog/stats", stmtLimit, http.StatusBadRequest, CodeBadRequest},
	}
	// over stands for "the endpoint's limit plus one", chunked for "no
	// Content-Length", unread for "not asserted".
	const over, chunked, unread = -2, -1, -1
	at := func(v, limit int) int {
		if v == over {
			return limit + 1
		}
		return v
	}
	cases := []struct {
		name           string
		sent, declared int // bytes that arrive; the Content-Length
		status         int // 0: the endpoint's emptyStatus
		code           string
		wantRead       int // bytes the server may read of the body
	}{
		{"declared one over", over, over, http.StatusRequestEntityTooLarge, CodeTooLarge, 0},
		{"chunked one over", over, chunked, http.StatusRequestEntityTooLarge, CodeTooLarge, over},
		{"declared longer than sent", 40, 90, http.StatusBadRequest, CodeBadRequest, 40},
		{"declared empty", 0, 0, 0, "", unread},
		{"chunked empty", 0, chunked, 0, "", unread},
	}
	for _, ep := range endpoints {
		for _, tc := range cases {
			t.Run(ep.path+"/"+tc.name, func(t *testing.T) {
				misses, memo := api.stmtMisses.Load(), api.memoLen()
				// A statement-shaped payload: were a truncated body compiled,
				// its first 40 bytes would at least reach the parser.
				sent := at(tc.sent, ep.limit)
				payload := bytes.Repeat([]byte("SELECT r.id FROM release r WHERE r.id=1 "), sent/40+1)[:sent]
				body := &countingBody{r: bytes.NewReader(payload)}
				req := httptest.NewRequest(http.MethodPost, ep.path, body)
				req.ContentLength = int64(at(tc.declared, ep.limit))
				rec := httptest.NewRecorder()
				api.Mux().ServeHTTP(rec, req)
				status, code := tc.status, tc.code
				if status == 0 {
					status, code = ep.emptyStatus, ep.emptyCode
				}
				var e Error
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
					t.Fatalf("no envelope in %q: %v", rec.Body, err)
				}
				if rec.Code != status || e.Code != code {
					t.Errorf("answered %d %s (%s), want %d %s", rec.Code, e.Code, e.Message, status, code)
				}
				if want := at(tc.wantRead, ep.limit); want != unread && body.read != want {
					t.Errorf("the server read %d bytes of the body, want %d", body.read, want)
				}
				// Only the empty statement gets as far as the parser (a memo
				// miss); nothing refused is ever memoised.
				if rec.Code != http.StatusUnprocessableEntity && api.stmtMisses.Load() != misses {
					t.Errorf("a refused body was prepared: memo misses %d -> %d", misses, api.stmtMisses.Load())
				}
				if api.memoLen() != memo {
					t.Errorf("a refused body was memoised: entries %d -> %d", memo, api.memoLen())
				}
			})
		}
	}

	// A body of exactly the limit passes the size check (and then fails to
	// parse): the +1 probe tells "at" from "over" without a declared length.
	for _, declared := range []int64{stmtLimit, -1} {
		payload := bytes.Repeat([]byte("x"), stmtLimit)
		req := httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(payload))
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		api.Mux().ServeHTTP(rec, req)
		if rec.Code != http.StatusUnprocessableEntity {
			t.Errorf("a body of exactly the limit (declared %d) answered %d, want 422", declared, rec.Code)
		}
	}
}

// TestTruncatedBodyOverSocket sends, over a real connection, a Content-Length
// larger than the bytes that follow: the statement prefix that did arrive
// parses on its own, and must be neither compiled nor memoised.
func TestTruncatedBodyOverSocket(t *testing.T) {
	api, ts := newMemoAPI(t)
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/optimize HTTP/1.1\r\nHost: x\r\nContent-Type: text/plain\r\nContent-Length: %d\r\n\r\n%s",
		len(testStatement)+50, testStatement)
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || e.Code != CodeBadRequest {
		t.Errorf("a truncated body answered %d %s, want 400 %s", resp.StatusCode, e.Code, CodeBadRequest)
	}
	if misses, n := api.stmtMisses.Load(), api.memoLen(); misses != 0 || n != 0 {
		t.Errorf("a truncated body was prepared: %d memo misses, %d entries", misses, n)
	}
}
