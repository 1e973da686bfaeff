package httpapi

import (
	"bytes"
	"encoding/json"
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

// TestOverflowingPlanIsInvalidQuery: a query whose plan estimate overflows
// float64 is answered 422 invalid_query, on the miss and on the hit after
// it. Inside a batch it is that item's error, and the finite item before it
// keeps its response.
func TestOverflowingPlanIsInvalidQuery(t *testing.T) {
	const overflow = `{"relations":[{"name":"a","rows":1e308},{"name":"b","rows":1e308}],"edges":[{"a":0,"b":1,"sel":1}]}`
	const small = `{"relations":[{"name":"a","rows":10},{"name":"b","rows":20}],"edges":[{"a":0,"b":1,"sel":0.1}]}`
	bothEngines(t, func(t *testing.T, ts *httptest.Server) {
		for _, try := range []string{"miss", "hit"} {
			status, _, raw := post(t, ts, "/v1/optimize", "application/json", []byte(overflow))
			var env Error
			if err := json.Unmarshal(raw, &env); status != http.StatusUnprocessableEntity || err != nil || env.Code != CodeInvalidQuery {
				t.Errorf("%s: status %d, body %q; want 422 %q", try, status, raw, CodeInvalidQuery)
			}
		}

		status, _, raw := post(t, ts, "/v1/batch", "application/json", []byte(`{"queries":[`+small+`,`+overflow+`]}`))
		var out BatchResponse
		if err := json.Unmarshal(raw, &out); status != http.StatusOK || err != nil || len(out.Results) != 2 {
			t.Fatalf("batch: status %d, body %q; want 200 with two results", status, raw)
		}
		if r := out.Results[0]; r.Error != nil || r.Response == nil || r.Response.Relations != 2 {
			t.Errorf("finite item: %+v", r)
		}
		if r := out.Results[1]; r.Response != nil || r.Error == nil || r.Error.Code != CodeInvalidQuery {
			t.Errorf("overflowing item: response %+v, error %+v; want %q", r.Response, r.Error, CodeInvalidQuery)
		}
	})

	// Any other answer that does not encode is a 500 envelope, never a 200.
	rec := httptest.NewRecorder()
	(&API{}).ok(rec, "rid-1", math.Inf(1))
	var env Error
	if err := json.Unmarshal(rec.Body.Bytes(), &env); rec.Code != http.StatusInternalServerError || err != nil || env.Code != CodeInternal || env.RequestID != "rid-1" {
		t.Errorf("unencodable answer: status %d, body %q; want 500 %q", rec.Code, rec.Body, CodeInternal)
	}
}
