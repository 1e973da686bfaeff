package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/service"
)

// bothEngines runs a subtest against mpdp-serve's engine (single service)
// and mpdp-cluster's engine (ring aggregate): the control surface must
// answer with the same wire shapes on both binaries.
func bothEngines(t *testing.T, f func(t *testing.T, ts *httptest.Server)) {
	t.Run("serve", func(t *testing.T) { f(t, newServiceServer(t, service.Config{})) })
	t.Run("cluster", func(t *testing.T) { f(t, newClusterServer(t)) })
}

func doJSON(t *testing.T, method, u string, body string, out any) *http.Response {
	t.Helper()
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, u, err)
		}
	}
	return resp
}

func optimizeFingerprint(t *testing.T, ts *httptest.Server, statement string) string {
	t.Helper()
	var res Response
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/optimize", statement, &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize status = %d", resp.StatusCode)
	}
	if res.Fingerprint == "" {
		t.Fatal("optimize response has no fingerprint")
	}
	return res.Fingerprint
}

// TestCacheControlSurface walks the /v1/cache lifecycle on both binaries:
// populate, list, invalidate (hit and miss), flush, verify empty.
func TestCacheControlSurface(t *testing.T) {
	bothEngines(t, func(t *testing.T, ts *httptest.Server) {
		fp := optimizeFingerprint(t, ts, testStatement)

		var info service.CacheInfo
		if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/cache", "", &info); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/cache status = %d", resp.StatusCode)
		}
		if info.Plans < 1 {
			t.Fatalf("cache reports %d plans after an optimize", info.Plans)
		}
		if info.StatsEpoch != 1 {
			t.Errorf("fresh server stats epoch = %d, want 1", info.StatsEpoch)
		}
		found := false
		for _, e := range info.Entries {
			if e.Key == fp {
				found = true
				if e.Epoch != 1 {
					t.Errorf("entry epoch = %d, want 1", e.Epoch)
				}
			}
		}
		if !found {
			t.Errorf("entry listing lacks the optimized fingerprint %s: %+v", fp, info.Entries)
		}

		// ?top=0 keeps the summary but drops the listing.
		if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/cache?top=0", "", &info); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/cache?top=0 status = %d", resp.StatusCode)
		}
		if len(info.Entries) != 0 {
			t.Errorf("?top=0 listed %d entries", len(info.Entries))
		}
		if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/cache?top=-1", "", nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/cache?top=-1 status = %d, want 400", resp.StatusCode)
		}

		var inv InvalidateResponse
		delURL := ts.URL + "/v1/cache/" + url.PathEscape(fp)
		if resp := doJSON(t, http.MethodDelete, delURL, "", &inv); resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE %s status = %d", delURL, resp.StatusCode)
		}
		if inv.Fingerprint != fp {
			t.Errorf("invalidate echoed fingerprint %q, want %q", inv.Fingerprint, fp)
		}

		// The same DELETE again must 404 with the golden envelope.
		req, err := http.NewRequest(http.MethodDelete, delURL, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", "golden-del-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var raw strings.Builder
		if _, err := fmt.Fprint(&raw, readAll(t, resp)); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("second DELETE status = %d, want 404 (body %s)", resp.StatusCode, raw.String())
		}
		want := fmt.Sprintf("{\"code\":\"not_found\",\"message\":\"no cached plan under fingerprint %s\",\"request_id\":\"golden-del-1\"}\n",
			quoteInner(fp))
		if raw.String() != want {
			t.Errorf("404 envelope drifted:\n got %q\nwant %q", raw.String(), want)
		}

		// Repopulate, then flush: the counts must reflect what was dropped.
		optimizeFingerprint(t, ts, testStatement)
		var fl FlushResponse
		if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/cache/flush", "{}", &fl); resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/cache/flush status = %d", resp.StatusCode)
		}
		if fl.PlansDropped < 1 {
			t.Errorf("flush reported %d plans dropped", fl.PlansDropped)
		}
		if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/cache", "", &info); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/cache status = %d", resp.StatusCode)
		}
		if info.Plans != 0 {
			t.Errorf("cache not empty after flush: %d plans", info.Plans)
		}
	})
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

// quoteInner renders fp the way %q inside a JSON string does: the Go quote
// characters become escaped quotes on the wire. Fingerprint keys use only
// JSON-safe characters, so no other escaping applies.
func quoteInner(fp string) string { return "\\\"" + fp + "\\\"" }

// TestCatalogStatsAndEpochAssertion drives the stats-update path on both
// binaries: the epoch advances, a caller asserting the old epoch is
// rejected with the stale_epoch envelope, and new binds see the new
// statistics (the canonical fingerprint embeds them, so it must change).
func TestCatalogStatsAndEpochAssertion(t *testing.T) {
	bothEngines(t, func(t *testing.T, ts *httptest.Server) {
		fpBefore := optimizeFingerprint(t, ts, testStatement)

		var upd CatalogStatsResponse
		body := `{"relations":[{"name":"release","rows":123456789}]}`
		if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/catalog/stats", body, &upd); resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/catalog/stats status = %d", resp.StatusCode)
		}
		if upd.OldEpoch != 1 || upd.NewEpoch != 2 || upd.Updated != 1 {
			t.Fatalf("stats update = %+v, want old 1 new 2 updated 1", upd)
		}

		// Asserting the pre-update epoch must now be rejected.
		var env Error
		resp := doJSON(t, http.MethodPost, ts.URL+"/v1/optimize?epoch=1", testStatement, &env)
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("stale assertion status = %d, want 409", resp.StatusCode)
		}
		if env.Code != CodeStaleEpoch {
			t.Errorf("stale assertion code = %q, want %q", env.Code, CodeStaleEpoch)
		}

		// Asserting the current epoch passes, and the response carries it.
		var res Response
		if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/optimize?epoch=2", testStatement, &res); resp.StatusCode != http.StatusOK {
			t.Fatalf("fresh assertion status = %d, want 200", resp.StatusCode)
		}
		if res.StatsEpoch != 2 {
			t.Errorf("response stats_epoch = %d, want 2", res.StatsEpoch)
		}
		if res.Fingerprint == fpBefore {
			t.Errorf("fingerprint unchanged after a release row-count change: stats update never reached the binder")
		}

		// Malformed inputs: bad epoch value, empty update, non-positive rows.
		if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/optimize?epoch=banana", testStatement, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("epoch=banana status = %d, want 400", resp.StatusCode)
		}
		if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/catalog/stats", `{"relations":[]}`, nil); resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("empty update status = %d, want 422", resp.StatusCode)
		}
		if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/catalog/stats", `{"relations":[{"name":"release","rows":0}]}`, nil); resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("zero rows status = %d, want 422", resp.StatusCode)
		}
	})
}
