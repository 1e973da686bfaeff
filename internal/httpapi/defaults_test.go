package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/service"
)

// newDefaultAPI builds an API at default options over a one-worker service,
// with per-tenant quotas switched on at rate when rate is positive.
func newDefaultAPI(t *testing.T, rate float64) *API {
	t.Helper()
	svc := service.New(service.Config{Workers: 1})
	t.Cleanup(svc.Close)
	return New(ServiceEngine(svc), Options{Quota: QuotaConfig{RatePerSec: rate}})
}

// TestDefaultBodyAndBatchLimits: one statement body may hold 1 MiB, one
// batch 64 statements.
func TestDefaultBodyAndBatchLimits(t *testing.T) {
	api := newDefaultAPI(t, 0)
	req := httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(bytes.Repeat([]byte("x"), 1<<20+1)))
	rec := httptest.NewRecorder()
	api.Mux().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("a body of 1 MiB + 1 byte answered %d, want 413", rec.Code)
	}

	stmts := make([]string, 65)
	for i := range stmts {
		stmts[i] = testStatement
	}
	body, _ := json.Marshal(BatchRequest{Statements: stmts})
	req = httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
	rec = httptest.NewRecorder()
	api.Mux().ServeHTTP(rec, req)
	var e Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("no envelope in %q: %v", rec.Body, err)
	}
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(e.Message, "limit of 64") {
		t.Errorf("a 65-statement batch answered %d %q, want 413 naming the limit of 64", rec.Code, e.Message)
	}
}

// TestDefaultQuotaHeaderBurstAndTenantBound: tenants are named by X-Tenant,
// a tenant's burst is a quarter of its rate, and the 10 001st tenant is
// denied.
func TestDefaultQuotaHeaderBurstAndTenantBound(t *testing.T) {
	api := newDefaultAPI(t, 100)
	rec := httptest.NewRecorder()
	api.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var stats struct {
		Quota map[string]any `json:"quota"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Quota["header"] != "X-Tenant" || stats.Quota["burst"] != 25.0 || stats.Quota["rate_per_sec"] != 100.0 {
		t.Errorf("quota block = %v, want header X-Tenant and burst 25 at rate 100", stats.Quota)
	}

	qs := newQuotas(QuotaConfig{RatePerSec: 1})
	for i := 0; i < 10000; i++ {
		if ok, _ := qs.allow(strconv.Itoa(i), 1); !ok {
			t.Fatalf("tenant %d denied below the bound", i+1)
		}
	}
	if ok, _ := qs.allow("one-too-many", 1); ok {
		t.Error("the 10 001st tenant was admitted")
	}
}

// TestDefaultSlowRingKeeps32: the front door's slow ring keeps the 32
// slowest requests.
func TestDefaultSlowRingKeeps32(t *testing.T) {
	api := newDefaultAPI(t, 0)
	for i := 0; i < 40; i++ {
		api.slow.Observe(obs.SlowEntry{WallUS: float64(i + 1)}, nil)
	}
	got := api.slow.Slowest(0)
	if len(got) != 32 || got[31].WallUS != 9 {
		t.Errorf("the slow ring kept %d entries, want the 32 slowest", len(got))
	}
}
