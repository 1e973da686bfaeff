package cluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/workload"
)

// These tests are the enforcement half of the comment on Request and
// Response: the HTTP transport mirrors both structs field-by-field into
// hand-written wire shapes, and history shows a field added on one side
// only (epochs, once) silently vanishes on the socket path while
// the in-process LocalTransport keeps working. Two guards close that gap:
// TestWireStructFieldParity compares the field sets by reflection, and
// TestWireRoundTripAllFields pushes a fully-populated Request and Response
// through a real loopback socket and checks nothing was dropped.

// fieldParity asserts that every exported field of native exists in wire
// with the identical type (unless listed in typeExempt, for fields that
// deliberately change representation on the wire), and that wire has no
// extra fields beyond wireOnly.
func fieldParity(t *testing.T, native, wire reflect.Type, typeExempt, wireOnly map[string]bool) {
	t.Helper()
	wireFields := make(map[string]reflect.Type, wire.NumField())
	for i := 0; i < wire.NumField(); i++ {
		f := wire.Field(i)
		wireFields[f.Name] = f.Type
	}
	for i := 0; i < native.NumField(); i++ {
		f := native.Field(i)
		wt, ok := wireFields[f.Name]
		if !ok {
			t.Errorf("%s.%s has no counterpart in %s: the HTTP transport drops it", native.Name(), f.Name, wire.Name())
			continue
		}
		if !typeExempt[f.Name] && wt != f.Type {
			t.Errorf("%s.%s is %v on the wire but %v natively", native.Name(), f.Name, wt, f.Type)
		}
		delete(wireFields, f.Name)
	}
	for name := range wireFields {
		if !wireOnly[name] {
			t.Errorf("%s.%s has no counterpart in %s: dead wire field or missing native field", wire.Name(), name, native.Name())
		}
	}
}

// TestWireStructFieldParity pins the field sets of Request/wireRequest and
// Response/wireResponse against each other. Adding a field to one struct
// without its mirror fails here before any behavioural test can be fooled
// by the LocalTransport (which copies structs wholesale).
func TestWireStructFieldParity(t *testing.T) {
	fieldParity(t,
		reflect.TypeOf(Request{}), reflect.TypeOf(wireRequest{}),
		map[string]bool{"Query": true}, // *cost.Query rides as *wire.Query
		nil)
	fieldParity(t,
		reflect.TypeOf(Response{}), reflect.TypeOf(wireResponse{}),
		nil,
		map[string]bool{"Err": true}) // node-side errors have no native field
}

// handlerFunc adapts a function to the node handler interface.
type handlerFunc func(context.Context, Request) (*Response, error)

func (f handlerFunc) handle(ctx context.Context, req Request) (*Response, error) { return f(ctx, req) }

// requireNonZero fails for any exported field of v that holds its zero
// value and is not exempted — so a future field addition must also be added
// to the round-trip fixtures below, keeping the test honest.
func requireNonZero(t *testing.T, v reflect.Value, exempt map[string]bool) {
	t.Helper()
	typ := v.Type()
	for i := 0; i < typ.NumField(); i++ {
		if exempt[typ.Field(i).Name] {
			continue
		}
		if v.Field(i).IsZero() {
			t.Fatalf("test fixture leaves %s.%s zero — populate it so the round-trip actually tests it", typ.Name(), typ.Field(i).Name)
		}
	}
}

// TestWireRoundTripAllFields sends a Request with every field populated
// through the HTTP transport's real socket path to a capturing node, which
// answers with a Response with every field populated; both directions must
// come out equal to what went in.
func TestWireRoundTripAllFields(t *testing.T) {
	q := genQuery(t, workload.KindChain, 5, 1)

	fp := service.FingerprintQuery(q)
	req := Request{
		Kind:        ReqImport,
		Query:       q,
		Fingerprint: &fp,
		Key:         "n5|0:1,1:2;s1",
		Entries: []service.Entry{{
			Key:       "n5|0:1,1:2;s1",
			Algorithm: "mpdp",
			Backend:   "cpu-seq",
			Shape:     service.ShapeChain,
			FellBack:  true,
			Epoch:     3,
			Hits:      9,
		}},
		TopN: 7,
	}
	requireNonZero(t, reflect.ValueOf(req), nil)

	want := &Response{
		Entries: req.Entries,
		Stats: &NodeStats{
			Snapshot: service.Snapshot{Requests: 11, Hits: 4, StatsEpoch: 3},
			CacheLen: 2,
		},
		Info: &service.CacheInfo{
			Plans:      2,
			Capacity:   4096,
			Shards:     16,
			StatsEpoch: 3,
			Entries: []service.CacheEntryInfo{{
				Key:       "n5|0:1,1:2;s1",
				Shape:     "chain",
				Algorithm: "mpdp",
				Backend:   "cpu-seq",
				Relations: 5,
				Hits:      9,
				Epoch:     3,
				FellBack:  true,
			}},
		},
		OldEpoch: 2,
		NewEpoch: 3,
		Found:    true,
	}
	// Result's lossless transit is covered end-to-end by
	// TestHTTPTransportWireParity (plan costs and fingerprints over the
	// socket); every control-plane field is exercised here.
	requireNonZero(t, reflect.ValueOf(*want), map[string]bool{"Result": true})

	tr := NewHTTPTransport()
	defer tr.Close()
	var got Request
	detach, err := tr.attach("n", handlerFunc(func(_ context.Context, r Request) (*Response, error) {
		got = r
		return want, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer detach()

	resp, err := tr.Call(context.Background(), "n", req)
	if err != nil {
		t.Fatal(err)
	}

	// The query changes representation on the wire (internal/wire form);
	// check it survived structurally, then compare everything else exactly.
	if got.Query == nil || got.Query.N() != q.N() {
		t.Fatalf("query dropped or truncated on the wire: %+v", got.Query)
	}
	got.Query, req.Query = nil, nil
	if !reflect.DeepEqual(got, req) {
		t.Errorf("request mutated on the wire:\n got %+v\nwant %+v", got, req)
	}
	if !reflect.DeepEqual(resp, want) {
		t.Errorf("response mutated on the wire:\n got %+v\nwant %+v", resp, want)
	}
}

// TestWireIgnoresSubEntriesFromOlderPeer: peers from before the sub-plan
// memo was removed still put sub_entries on imports and exports and
// subs_dropped on invalidations. Both decoders must take such a message,
// drop those keys and deliver the rest — in a rolling upgrade old and new
// nodes replicate to each other.
func TestWireIgnoresSubEntriesFromOlderPeer(t *testing.T) {
	const oldSubs = `"sub_entries":[{"Key":"n3|0:1;s2","Origin":"k","Set":7,"Left":1,"Right":6,"Rows":128,"Cost":512.5,"Op":1,"Verts":[2,0,1],"Epoch":3,"Inv":57005}]`

	// Node side: an old coordinator's import.
	var got Request
	node := httptest.NewServer(nodeRPCHandler(handlerFunc(func(_ context.Context, r Request) (*Response, error) {
		got = r
		return &Response{}, nil
	})))
	defer node.Close()
	body := `{"kind":` + strconv.Itoa(int(ReqImport)) + `,"entries":[{"Key":"k","Epoch":3}],` + oldSubs + `}`
	hresp, err := http.Post(node.URL, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("import carrying sub_entries: status %d", hresp.StatusCode)
	}
	if got.Kind != ReqImport || len(got.Entries) != 1 || got.Entries[0].Key != "k" {
		t.Errorf("import carrying sub_entries reached the node as %+v", got)
	}

	// Coordinator side: an old node's export and invalidate replies.
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, `{"entries":[{"Key":"k","Epoch":3}],`+oldSubs+`,"found":true,"subs_dropped":5}`)
	}))
	defer old.Close()
	tr := NewHTTPTransport()
	defer tr.Close()
	tr.SetPeer("old", old.URL)
	resp, err := tr.Call(context.Background(), "old", Request{Kind: ReqExport})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Entries) != 1 || resp.Entries[0].Key != "k" || !resp.Found {
		t.Errorf("reply carrying sub_entries decoded as %+v", resp)
	}
}

// TestWireImportsEntryFromStructIndexedPeer: peers from before the stale-twin
// path was removed put StructKey and StructOf (a second canonical key and a
// vertex map) on every entry they replicate. A node must take such an
// import, ignore both keys and cache the plan.
func TestWireImportsEntryFromStructIndexedPeer(t *testing.T) {
	n := newNode("n", service.Config{Workers: 1})
	defer n.close()
	srv := httptest.NewServer(nodeRPCHandler(n))
	defer srv.Close()
	body := `{"kind":` + strconv.Itoa(int(ReqImport)) + `,"entries":[{"Key":"k","Plan":{"RelID":0,"Rows":10,"Cost":1},` +
		`"Algorithm":"dpccp","Backend":"cpu-seq","Epoch":3,"Hits":2,"StructKey":"s|n1|1,1,1,0","StructOf":[0]}]}`
	hresp, err := http.Post(srv.URL, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	reply, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || strings.Contains(string(reply), `"err"`) {
		t.Fatalf("import of an entry carrying StructKey/StructOf: status %d, reply %s", hresp.StatusCode, reply)
	}
	e, ok := n.svc.ExportEntry("k")
	if !ok || e.Plan == nil || e.Plan.Rows != 10 || e.Epoch != 3 || e.Hits != 2 {
		t.Errorf("imported entry = %+v (found %v), want the plan under key k at epoch 3", e, ok)
	}
}
