package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/leaktest"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/workload"
)

// newMemoAPI is a service-backed API whose memo and counters the test can
// read, served by an httptest server.
func newMemoAPI(t *testing.T) (*API, *httptest.Server) {
	t.Helper()
	svc := service.New(service.Config{Workers: 2})
	t.Cleanup(svc.Close)
	api := New(ServiceEngine(svc), Options{})
	ts := httptest.NewServer(api.Mux())
	t.Cleanup(ts.Close)
	return api, ts
}

func (a *API) memoLen() int {
	m := a.stmts.Load()
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.items)
}

// post sends body with the given content type and returns status, the
// response's request id and the raw body.
func post(t *testing.T, ts *httptest.Server, path, contentType string, body []byte) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Request-Id"), raw
}

func decodeMap(t *testing.T, raw []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("%v in %s", err, raw)
	}
	return m
}

func wireBody(t *testing.T, n int, seed int64) []byte {
	t.Helper()
	body, err := json.Marshal(FromQuery(workload.MusicBrainzQuery(n, rand.New(rand.NewSource(seed)))))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestStmtMemoReplayAnswersLikeFirstRequest: a replayed body is served from
// the memo and still answered by the engine — every field equals the first
// answer's except the two that describe this request's own run and the
// request id.
func TestStmtMemoReplayAnswersLikeFirstRequest(t *testing.T) {
	for name, ts := range map[string]*httptest.Server{
		"serve":   newServiceServer(t, service.Config{}),
		"cluster": newClusterServer(t),
	} {
		for kind, req := range map[string]struct {
			contentType string
			body        []byte
		}{
			"sql":  {"text/plain", []byte(testStatement)},
			"json": {"application/json", wireBody(t, 9, 1)},
		} {
			status, rid1, raw1 := post(t, ts, "/v1/explain", req.contentType, req.body)
			if status != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", name, kind, status, raw1)
			}
			first := decodeMap(t, raw1)
			if first["cache_hit"] != false {
				t.Fatalf("%s %s: first request was already a hit", name, kind)
			}
			for replay := 0; replay < 2; replay++ {
				_, rid, raw := post(t, ts, "/v1/explain", req.contentType, req.body)
				got := decodeMap(t, raw)
				if got["cache_hit"] != true {
					t.Errorf("%s %s: replay did not reach the plan cache: %s", name, kind, raw)
				}
				if rid == rid1 || rid == "" {
					t.Errorf("%s %s: replay reused request id %q", name, kind, rid)
				}
				for _, own := range []string{"elapsed_us", "cache_hit"} {
					delete(got, own)
					delete(first, own)
				}
				if !reflect.DeepEqual(got, first) {
					t.Errorf("%s %s: replay answered differently:\n got %v\nwant %v", name, kind, got, first)
				}
			}
		}
	}
}

// TestStmtMemoRebindsAfterCatalogStats fails if a statement prepared under
// the old schema is ever served after POST /v1/catalog/stats: the same SQL
// bytes must bind against the new statistics.
func TestStmtMemoRebindsAfterCatalogStats(t *testing.T) {
	api, ts := newMemoAPI(t)
	ask := func(path string) map[string]any {
		status, _, raw := post(t, ts, path, "text/plain", []byte(testStatement))
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, status, raw)
		}
		return decodeMap(t, raw)
	}
	before := ask("/v1/optimize")
	ask("/v1/optimize") // memoised now
	if api.stmtHits.Load() != 1 {
		t.Fatalf("replay did not hit the memo (hits=%d)", api.stmtHits.Load())
	}

	status, _, raw := post(t, ts, "/v1/catalog/stats", "application/json",
		[]byte(`{"relations":[{"name":"release","rows":7}]}`))
	if status != http.StatusOK {
		t.Fatalf("catalog update: status %d: %s", status, raw)
	}
	if n := api.memoLen(); n != 0 {
		t.Errorf("the swap kept %d statements prepared under the old schema", n)
	}

	after := ask("/v1/optimize")
	if after["fingerprint"] == before["fingerprint"] {
		t.Errorf("same SQL still fingerprints as before the stats update: served from a stale prepared statement")
	}
	if after["cache_hit"] != false || after["cost"] == before["cost"] {
		t.Errorf("post-update answer hit=%v cost=%v; before cost=%v: want a fresh plan under the new statistics",
			after["cache_hit"], after["cost"], before["cost"])
	}
	if fp := ask("/v1/fingerprint"); fp["fingerprint"] != after["fingerprint"] {
		t.Errorf("/v1/fingerprint = %v, /v1/optimize = %v after the update", fp["fingerprint"], after["fingerprint"])
	}
}

// TestStmtMemoKindsDoNotCollide sends the same bytes as a JSON wire query
// and as SQL text: the memoised JSON statement must not answer the text
// request (which is not SQL), nor the text failure poison the JSON one.
func TestStmtMemoKindsDoNotCollide(t *testing.T) {
	api, ts := newMemoAPI(t)
	body := wireBody(t, 6, 2)
	if status, _, raw := post(t, ts, "/v1/optimize", "application/json", body); status != http.StatusOK {
		t.Fatalf("json: status %d: %s", status, raw)
	}
	status, _, raw := post(t, ts, "/v1/optimize", "text/plain", body)
	if status != http.StatusUnprocessableEntity || decodeMap(t, raw)["code"] != CodeInvalidQuery {
		t.Errorf("the same bytes as SQL text: status %d %s, want 422 invalid_query", status, raw)
	}
	status, _, raw = post(t, ts, "/v1/optimize", "application/json", body)
	if status != http.StatusOK || decodeMap(t, raw)["cache_hit"] != true {
		t.Errorf("json again: status %d %s, want a hit", status, raw)
	}
	if hits, misses := api.stmtHits.Load(), api.stmtMisses.Load(); hits != 1 || misses != 2 {
		t.Errorf("memo hits=%d misses=%d, want 1 and 2", hits, misses)
	}
}

// TestStmtMemoSkipsFailedBodies: bodies that do not parse or compile are not
// memoised; each attempt gets its envelope afresh under its own request id.
func TestStmtMemoSkipsFailedBodies(t *testing.T) {
	api, ts := newMemoAPI(t)
	for _, tc := range []struct {
		contentType, body string
		status            int
		code              string
	}{
		{"text/plain", "SELECT FROM WHERE", http.StatusUnprocessableEntity, CodeInvalidQuery},
		{"application/json", `{"relations":[{"name":"a","rows":-1}]}`, http.StatusUnprocessableEntity, CodeInvalidQuery},
		{"application/json", `{"relations":`, http.StatusBadRequest, CodeBadRequest},
	} {
		var rids []string
		for i := 0; i < 2; i++ {
			status, rid, raw := post(t, ts, "/v1/optimize", tc.contentType, []byte(tc.body))
			env := decodeMap(t, raw)
			if status != tc.status || env["code"] != tc.code {
				t.Errorf("%q attempt %d: status %d %s, want %d %s", tc.body, i, status, raw, tc.status, tc.code)
			}
			if env["request_id"] != rid || rid == "" {
				t.Errorf("%q: envelope request_id %v, header %q", tc.body, env["request_id"], rid)
			}
			rids = append(rids, rid)
		}
		if rids[0] == rids[1] {
			t.Errorf("%q: both failures carry request id %q", tc.body, rids[0])
		}
	}
	if n := api.memoLen(); n != 0 {
		t.Errorf("memo holds %d failed bodies", n)
	}
	if hits, misses := api.stmtHits.Load(), api.stmtMisses.Load(); hits != 0 || misses != 6 {
		t.Errorf("memo hits=%d misses=%d, want 0 and 6", hits, misses)
	}
}

// TestStmtMemoStaysInsideByteBudget pushes 10 000 distinct 12-relation
// statements — three times what the budget holds — through one memo: the
// accounted bytes never pass the budget, the heap they pin stays under it
// too (the estimate errs high), and the LRU keeps the recent end.
func TestStmtMemoStaysInsideByteBudget(t *testing.T) {
	const total = 10000
	m := newStmtMemo(nil)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var oldest, newest []byte
	for i := 0; i < total; i++ {
		q := workload.MusicBrainzQuery(12, rand.New(rand.NewSource(int64(i))))
		wq := FromQuery(q)
		wq.Relations[0].Rows = float64(i + 1) // no two bodies alike
		body, err := json.Marshal(wq)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := wq.ToQuery(nil)
		if err != nil {
			t.Fatal(err)
		}
		m.put(stmtKey{true, string(body)}, service.Prepare(compiled))
		if m.bytes > stmtMemoBytes {
			t.Fatalf("after %d statements the memo accounts %d bytes, budget %d", i+1, m.bytes, stmtMemoBytes)
		}
		if i == 0 {
			oldest = body
		}
		newest = body
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	sum := 0
	for el := m.ll.Front(); el != nil; el = el.Next() {
		sum += el.Value.(*stmtEntry).cost
	}
	if sum != m.bytes || len(m.items) != m.ll.Len() {
		t.Errorf("accounting drifted: entries sum to %d, memo says %d; %d keys for %d entries", sum, m.bytes, len(m.items), m.ll.Len())
	}
	if n := m.ll.Len(); n == total || n < total/10 {
		t.Errorf("memo holds %d of %d statements: want an evicting, useful LRU", n, total)
	}
	if m.get(true, oldest) != nil {
		t.Error("the oldest statement survived 10 000 newer ones")
	}
	if m.get(true, newest) == nil {
		t.Error("the newest statement is gone")
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > stmtMemoBytes {
		t.Errorf("the memo pins %d bytes of heap, over its %d budget", grew, stmtMemoBytes)
	}
	runtime.KeepAlive(m)

	// A statement the budget could never hold is not kept.
	huge := workload.MusicBrainzQuery(12, rand.New(rand.NewSource(1)))
	m.put(stmtKey{false, strings.Repeat("x", stmtMemoBytes)}, service.Prepare(huge))
	if m.bytes > stmtMemoBytes {
		t.Errorf("an over-budget body was memoised: %d bytes accounted", m.bytes)
	}
}

// TestStmtMemoMetricsAndCompileSpan: the two counters reach /metrics with
// live values, and a memo hit still reports its compile span.
func TestStmtMemoMetricsAndCompileSpan(t *testing.T) {
	_, ts := newMemoAPI(t)
	var traced Response
	for i := 0; i < 3; i++ {
		status, _, raw := post(t, ts, "/v1/optimize?trace=1", "text/plain", []byte(testStatement))
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, raw)
		}
		if err := json.Unmarshal(raw, &traced); err != nil {
			t.Fatal(err)
		}
	}
	phases := map[string]bool{}
	for _, s := range traced.Trace {
		phases[s.Phase] = true
	}
	for _, want := range []string{obs.PhaseCompile, obs.PhaseCacheProbe, obs.PhaseMaterialize} {
		if !phases[want] {
			t.Errorf("memo-hit trace lacks the %s span: %+v", want, traced.Trace)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateExposition(string(raw)); err != nil {
		t.Fatalf("malformed exposition with the memo families appended: %v", err)
	}
	for _, want := range []string{
		"mpdp_httpapi_stmt_memo_hits_total 2\n",
		"mpdp_httpapi_stmt_memo_misses_total 1\n",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestStmtMemoSharedQueryRace is the -race test for what the memo newly
// shares: one compiled 100-relation query (past the 64-vertex bitmask, so
// shape detection builds the graph's lazy adjacency sets) serves 8
// concurrent clients of /v1/optimize and /v1/fingerprint.
func TestStmtMemoSharedQueryRace(t *testing.T) {
	api, ts := newMemoAPI(t)
	body, err := json.Marshal(FromQuery(workload.Snowflake(100, rand.New(rand.NewSource(5)))))
	if err != nil {
		t.Fatal(err)
	}
	// One request first: the other 8 then share its prepared statement.
	if status, _, raw := post(t, ts, "/v1/fingerprint", "application/json", body); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	var wg sync.WaitGroup
	fps := make([]string, 8)
	for i := range fps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, path := range []string{"/v1/fingerprint", "/v1/optimize", "/v1/fingerprint"} {
				resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var m struct {
					Fingerprint string `json:"fingerprint"`
				}
				err = json.NewDecoder(resp.Body).Decode(&m)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || m.Fingerprint == "" {
					t.Errorf("%s: status %d, fingerprint %q, err %v", path, resp.StatusCode, m.Fingerprint, err)
					return
				}
				fps[i] = m.Fingerprint
			}
		}(i)
	}
	wg.Wait()
	for i, fp := range fps {
		if fp != fps[0] {
			t.Errorf("client %d saw fingerprint %q, client 0 %q", i, fp, fps[0])
		}
	}
	if hits, misses := api.stmtHits.Load(), api.stmtMisses.Load(); misses != 1 || hits != 24 {
		t.Errorf("memo hits=%d misses=%d, want 24 and 1: the clients did not share one statement", hits, misses)
	}
}

// warmHitAllocCeiling bounds the heap allocations of the server side of one
// replayed /v1/explain whose plan is cached (12 relations, 2-node cluster):
//
//	before PR 16: 379; with the statement memo: 62; with the recycled body
//	and encode buffers and the one-allocation Explain (PR 23): 54
//
// The ceiling is the measurement + 10 %. Under the race detector sync.Pool
// drops a quarter of what it is handed and the count is 64-66: that ceiling
// is that measurement + 10 %. pkg/optimizer's TestRemoteWarmHitAllocBudget
// gates the whole round trip, in bytes too.
const (
	warmHitAllocCeiling     = 59
	warmHitAllocCeilingRace = 72
)

// TestWarmHitAllocBudget replays one 12-relation wire query against
// /v1/explain on an httptest recorder — the server side of a warm hit and
// nothing else.
func TestWarmHitAllocBudget(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 2, Replicas: 2, Service: service.Config{Workers: 2}})
	defer c.Close()
	mux := New(ClusterEngine(c), Options{}).Mux()
	body := wireBody(t, 12, 3)
	serve := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/explain", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	serve() // plan, replicate and memoise
	ceiling := float64(warmHitAllocCeiling)
	if leaktest.RaceEnabled() {
		ceiling = warmHitAllocCeilingRace
	}
	allocs := testing.AllocsPerRun(200, serve)
	t.Logf("replayed /v1/explain: %.0f allocs (ceiling %.0f)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("a replayed /v1/explain allocates %.0f times, ceiling %.0f", allocs, ceiling)
	}
}
