package httpapi

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/service"
)

// TestCatalogStatsRejectsNonPositiveDistinct: the binder divides a filtered
// relation's rows by its column's distinct count, so a count of zero or less
// would cost the next plan +Inf. Such an update is refused with 422
// invalid_query, like a non-positive row count, and leaves the epoch where
// it was. A positive count below one is accepted and binds as one: the plan
// of a statement filtering on that column stays finite.
func TestCatalogStatsRejectsNonPositiveDistinct(t *testing.T) {
	ts := newServiceServer(t, service.Config{})
	for _, d := range []string{"0", "-0", "-3"} {
		var env Error
		body := `{"relations":[{"name":"release","rows":1e6,"distinct":{"status":` + d + `}}]}`
		resp := doJSON(t, http.MethodPost, ts.URL+"/v1/catalog/stats", body, &env)
		if resp.StatusCode != http.StatusUnprocessableEntity || env.Code != CodeInvalidQuery {
			t.Errorf("distinct %s: status %d, code %q; want 422 %q", d, resp.StatusCode, env.Code, CodeInvalidQuery)
		}
	}

	var upd CatalogStatsResponse
	body := `{"relations":[{"name":"release","rows":1e6,"distinct":{"status":1e-300}}]}`
	if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/catalog/stats", body, &upd); resp.StatusCode != http.StatusOK {
		t.Fatalf("distinct 1e-300: status %d, want 200", resp.StatusCode)
	}
	if upd.OldEpoch != 1 {
		t.Errorf("the refused updates moved the epoch: the first accepted one starts from %d, want 1", upd.OldEpoch)
	}
	var res Response
	stmt := "SELECT r.id FROM release r, release_group rg WHERE r.release_group = rg.id AND r.status = 5"
	if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/optimize", stmt, &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize after the update: status %d", resp.StatusCode)
	}
	if res.Relations != 2 || math.IsInf(res.Cost, 0) || !(res.Cost > 0) || math.IsInf(res.Rows, 0) || !(res.Rows > 0) {
		t.Errorf("a filter on a column of distinct count 1e-300: %d relations planned at cost %v, %v rows", res.Relations, res.Cost, res.Rows)
	}
}

// FuzzCatalogStats feeds POST /v1/catalog/stats arbitrary bodies, one after
// another on one server. No body may answer 5xx, and after every 2xx the
// schema the next statement binds against holds only usable statistics:
// every relation has finite rows of at least one and finite positive pages,
// and every distinct count is positive.
func FuzzCatalogStats(f *testing.F) {
	for _, body := range []string{
		`{"relations":[{"name":"release","rows":2.1e7,"width":120,"pk_index":true,"distinct":{"release_group":1.8e6}}]}`,
		`{"relations":[{"name":"release","rows":1e6,"distinct":{"status":0}}]}`,
		`{"relations":[{"name":"release","rows":1e6,"distinct":{"status":-4}}]}`,
		`{"relations":[{"name":"release","rows":1e6,"distinct":{"status":1e-300}}]}`,
		`{"relations":[{"name":"release","rows":0}]}`,
		`{"relations":[{"name":"release","rows":0.25}]}`,
		`{"relations":[{"name":"fresh","rows":10,"width":-50}]}`,
		`{"relations":[{"name":"release","rows":10,"pages":-7}]}`,
		`{"relations":[{"name":"release","rows":1.7e308,"width":9223372036854775807}]}`,
		`{"relations":[{"name":"","rows":5}]}`,
		`{"relations":[]}`,
		`{"relations":[{"name":"artist","rows":5,"distinct":{"a":1,"b":-1}}]}`,
		`{"relations":null}`,
		`[]`,
		``,
	} {
		f.Add([]byte(body))
	}
	svc := service.New(service.Config{Workers: 1})
	f.Cleanup(svc.Close)
	a := New(ServiceEngine(svc), Options{})
	mux := a.Mux()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/catalog/stats", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("%q: status %d: %s", body, rec.Code, rec.Body.Bytes())
		}
		if rec.Code >= 300 {
			return
		}
		for name, tb := range a.stmts.Load().schema {
			rows, pages := tb.Rel.Rows, tb.Rel.Pages
			if math.IsInf(rows, 0) || !(rows >= 1) || math.IsInf(pages, 0) || !(pages > 0) {
				t.Fatalf("after %q: relation %q has %v rows on %v pages", body, name, rows, pages)
			}
			for col, d := range tb.Distinct {
				if !(d > 0) {
					t.Fatalf("after %q: relation %q column %q has distinct count %v", body, name, col, d)
				}
			}
		}
	})
}
