package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/service"
)

// responseCorpus is a set of responses that together set every field of
// Response, with the strings that make json.Marshal escape: quotes,
// backslashes, control bytes, HTML characters, U+2028, invalid UTF-8, and
// names outside ASCII and outside the BMP.
func responseCorpus() []Response {
	return []Response{
		{}, // every omitempty field omitted
		{Relations: 3, Edges: 3, Cost: 19530.2, Rows: 1.5e6, Algorithm: "DPCCP", Backend: "cpu-seq", Shape: "cyclic",
			ElapsedUs: 412.5, Fingerprint: "v2:0123456789abcdef", StatsEpoch: 1},
		{Relations: 40, Edges: 39, Cost: 1e22, Rows: 2.8e33, Algorithm: "MPDP-GPU-2", Backend: "gpu", Shape: "tree",
			CacheHit: true, Coalesced: true, FellBack: true, ElapsedUs: 0.75, Fingerprint: "v2:f", StatsEpoch: 1<<64 - 1,
			GPUDevices: 2, GPUSimMS: 4285.19, Node: "node-1", Failover: true,
			Plan: "HashJoin  (rows=3250000000 cost=123456.8)\n  Scan a\"b\\c<d>&e\u2028f\u2029  (rows=1 cost=0.0)\n" +
				"  Scan œuvre_作品_𝄞\t\r\b\f\x00\x1f\x7f  (rows=12 cost=0.1)\n  Scan bad\xffutf8\xc0\n",
			Trace: []obs.Span{
				{Phase: obs.PhaseCompile, StartUS: 0.5, DurUS: 1.25},
				{Phase: "enumerate", StartUS: 2, DurUS: 1e-7, Sim: true},
				{},
			},
			TraceWallUS: 70.5},
		{Relations: -1, Edges: 0, Cost: -0.5, Rows: 5e-324, ElapsedUs: 1.7976931348623157e308, GPUSimMS: 1e-9, TraceWallUS: 1e21},
	}
}

func marshalLine(t testing.TB, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// checkDecode holds DecodeResponse to its contract on one input and reports
// whether it accepted: an accepted input decodes to exactly what
// encoding/json makes of it, a refused one leaves the target as it was.
func checkDecode(t *testing.T, raw []byte) bool {
	t.Helper()
	sentinel := Response{Relations: -7, Plan: "untouched", Trace: []obs.Span{{Phase: "untouched"}}}
	got := sentinel
	if !DecodeResponse(raw, &got) {
		if !reflect.DeepEqual(got, sentinel) {
			t.Errorf("DecodeResponse refused %q and left %+v behind", raw, got)
		}
		return false
	}
	var want Response
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Errorf("DecodeResponse accepted %q, which encoding/json rejects: %v", raw, err)
		return true
	}
	// DeepEqual, and the re-encoded bytes for what it cannot see (-0 == 0).
	if !reflect.DeepEqual(got, want) || !bytes.Equal(mustJSON(&got), mustJSON(&want)) {
		t.Errorf("DecodeResponse disagrees with encoding/json on %q:\n got %+v\nwant %+v", raw, got, want)
	}
	return true
}

// liveResponses are raw 200 bodies of /v1/optimize and /v1/explain, traced
// and not, from a single service and from a cluster front door.
func liveResponses(t *testing.T) [][]byte {
	t.Helper()
	var out [][]byte
	servers := []string{newServiceServer(t, service.Config{}).URL, newClusterServer(t).URL}
	for _, url := range servers {
		for _, path := range []string{"/v1/optimize", "/v1/explain", "/v1/explain?trace=1", "/v1/explain"} {
			resp, err := http.Post(url+path, "text/plain", strings.NewReader(testStatement))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s answered %d: %s", path, resp.StatusCode, buf.Bytes())
			}
			out = append(out, buf.Bytes())
		}
	}
	return out
}

// TestDecodeResponseTakesWhatHTTPAPIEmits counts fallbacks over everything
// this package writes: there must be none. A decoder that refused its own
// server's answers would be invisible to the differential test — every
// refusal is correct — and would simply never run.
func TestDecodeResponseTakesWhatHTTPAPIEmits(t *testing.T) {
	corpus := liveResponses(t)
	for _, r := range responseCorpus() {
		corpus = append(corpus, marshalLine(t, &r), bytes.TrimSuffix(marshalLine(t, &r), []byte("\n")))
	}
	fallbacks := 0
	for _, raw := range corpus {
		if !checkDecode(t, raw) {
			fallbacks++
			t.Errorf("fell back to encoding/json on %q", raw)
		}
	}
	t.Logf("%d answers, %d fallbacks", len(corpus), fallbacks)
}

// TestDecodeResponseRefuses lists what the decoder hands to encoding/json:
// everything this package does not itself write, valid JSON or not.
func TestDecodeResponseRefuses(t *testing.T) {
	for _, raw := range []string{
		``, `{`, `[]`, `null`, `{}x`, "{}\n\n", `{} `, ` {}`,
		`{"relations":1,"new_field":2}`,   // a newer server's field
		`{"Relations":1}`, `{"PLAN":"x"}`, // encoding/json folds case
		`{"rel\u0061tions":1}`,
		`{"plan":null}`, `{"relations":null}`, `{"trace":null}`, `{"trace":[]}`, `{"trace":[null]}`,
		`{"relations":1,"relations":2}`, `{"trace":[{"sim":true}],"trace":[{"phase":"x"}]}`,
		`{"trace":[{"phase":"a","phase":"b"}]}`, `{"trace":[{"Phase":"a"}]}`,
		`{"relations":1.0}`, `{"relations":1e2}`, `{"relations":01}`, `{"relations":-}`, `{"relations":9223372036854775808}`,
		`{"stats_epoch":-1}`, `{"stats_epoch":18446744073709551616}`,
		`{"cost":+1}`, `{"cost":.5}`, `{"cost":1.}`, `{"cost":1e}`, `{"cost":0x10}`, `{"cost":Inf}`, `{"cost":NaN}`, `{"cost":1e999}`, `{"cost":"1"}`,
		`{"cache_hit":1}`, `{"cache_hit":"true"}`, `{"cache_hit":tru}`, `{"cache_hit":TRUE}`,
		`{"plan":"a\ud83d\ude00"}`, `{"plan":"\ud800"}`, `{"plan":"\x"}`, `{"plan":"\u12"}`, `{"plan":"\u12g4"}`, `{"plan":"\`,
		"{\"plan\":\"a\nb\"}", "{\"plan\":\"\xff\"}", "{\"plan\":\"a\\n\xc0\"}", `{"plan":"unterminated}`, `{"plan":12}`,
		`{"relations": 1}`, `{"relations":1 }`, `{ "relations":1}`, `{"relations" :1}`, `{"relations":1,}`, `{,"relations":1}`,
		`{"relations":1}{"relations":2}`, `{"relations"1}`, `{relations:1}`,
	} {
		if checkDecode(t, []byte(raw)) {
			t.Errorf("DecodeResponse accepted %q", raw)
		}
	}
}

// TestDecodeResponseAllocs: what the decoder allocates is the strings it
// returns (the six of an untraced answer; the short ones share tiny blocks).
func TestDecodeResponseAllocs(t *testing.T) {
	_, ts := newMemoAPI(t)
	status, _, raw := post(t, ts, "/v1/explain", "application/json", wireBody(t, 12, 3))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	var resp Response
	allocs := testing.AllocsPerRun(200, func() {
		if !DecodeResponse(raw, &resp) {
			t.Fatal("refused a live answer")
		}
	})
	t.Logf("DecodeResponse of a 12-relation answer (%d bytes): %.0f allocs", len(raw), allocs)
	if allocs > 8 {
		t.Errorf("DecodeResponse allocates %.0f times, want <= 8", allocs)
	}
}

// FuzzDecodeResponse is the differential test of the decoder against the
// decoder of record, seeded with real encodings and the ways a foreign
// encoder's could differ from them.
func FuzzDecodeResponse(f *testing.F) {
	for _, r := range responseCorpus() {
		raw := marshalLine(f, &r)
		f.Add(raw)
		f.Add(raw[:len(raw)/2])                                                                 // truncated
		f.Add(bytes.Replace(raw, []byte(`"cost"`), []byte(`"Cost"`), 1))                        // key case
		f.Add(bytes.Replace(raw, []byte(`"cost":`), []byte(`"cost":null,"rows":null,"x":`), 1)) // nulls, unknown key
		f.Add(bytes.Replace(raw, []byte(`{"relations"`), []byte(`{"edges":9,"relations"`), 1))  // duplicate key
		f.Add(bytes.ReplaceAll(raw, []byte(`,`), []byte(` , `)))                                // white space
	}
	f.Add([]byte(`{"plan":"\ud83d\ude00 \/ \u00e9","trace":[{"phase":"p","sim":false}]}`))
	f.Fuzz(func(t *testing.T, raw []byte) { checkDecode(t, raw) })
}

// FuzzDecodeResponseRoundTrip requires acceptance of everything json.Marshal
// makes of a Response: the failure the differential target cannot see is a
// fast path that never fires.
func FuzzDecodeResponseRoundTrip(f *testing.F) {
	for _, r := range responseCorpus() {
		var phase string
		var dur float64
		if len(r.Trace) > 0 {
			phase, dur = r.Trace[0].Phase, r.Trace[0].DurUS
		}
		f.Add(r.Relations, r.Cost, r.Rows, r.ElapsedUs, r.Algorithm, r.Plan, r.Node, r.StatsEpoch, r.CacheHit, uint8(len(r.Trace)), phase, dur)
	}
	f.Fuzz(func(t *testing.T, relations int, cost, rows, elapsed float64, algorithm, plan, node string, epoch uint64, flag bool, spans uint8, phase string, dur float64) {
		r := Response{Relations: relations, Edges: -relations, Cost: cost, Rows: rows, ElapsedUs: elapsed, GPUSimMS: rows,
			Algorithm: algorithm, Backend: node, Shape: phase, Fingerprint: algorithm + node, Plan: plan, Node: node,
			StatsEpoch: epoch, GPUDevices: int(spans), CacheHit: flag, Coalesced: !flag, FellBack: flag, Failover: flag, TraceWallUS: dur}
		for i := 0; i < int(spans%5); i++ {
			r.Trace = append(r.Trace, obs.Span{Phase: phase, StartUS: float64(i) * cost, DurUS: dur, Sim: flag != (i%2 == 0)})
		}
		raw, err := json.Marshal(&r)
		if err != nil {
			t.Skip() // NaN or ±Inf: the server cannot emit it either
		}
		if !checkDecode(t, raw) || !checkDecode(t, append(raw, '\n')) {
			t.Errorf("DecodeResponse refused json.Marshal's own %q", raw)
		}
	})
}
