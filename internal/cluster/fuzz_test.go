package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/wire"
	"repro/internal/workload"
)

// rpcBody renders req as the JSON a coordinator would post.
func rpcBody(t testing.TB, req wireRequest) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// malformedImports are import bodies filing a plan no hit can remap under
// the key of genQuery(KindChain, 4, 1): a leaf outside relations 0..3 and
// an inner node with one child.
func malformedImports(t testing.TB) map[string][]byte {
	key := service.FingerprintQuery(genQuery(t, workload.KindChain, 4, 1)).Key
	leaf := func(id int) *plan.Node { return &plan.Node{RelID: id} }
	join := func(l, r *plan.Node) *plan.Node { return &plan.Node{Left: l, Right: r} }
	body := func(p *plan.Node) []byte {
		return rpcBody(t, wireRequest{Request: Request{Kind: ReqImport, Entries: []service.Entry{{Key: key, Plan: p}}}})
	}
	return map[string][]byte{
		"leaf out of range": body(join(join(leaf(0), leaf(1)), join(leaf(2), leaf(99)))),
		"one-child node":    body(join(join(leaf(0), leaf(1)), &plan.Node{Left: join(leaf(2), leaf(3))})),
	}
}

// postRPC serves one RPC body on n's handler, with no HTTP server in between
// to recover a panic.
func postRPC(n *node, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	nodeRPCHandler(n).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, RPCPath, bytes.NewReader(body)))
	return rec
}

// TestNodeRPCRefusesMalformedImport: an import of a plan a hit could not
// remap is refused over the socket, and the query it was filed under
// stays a miss that plans every relation.
func TestNodeRPCRefusesMalformedImport(t *testing.T) {
	q := genQuery(t, workload.KindChain, 4, 1)
	for name, body := range malformedImports(t) {
		n := newNode("n", service.Config{Workers: 1})
		var resp wireResponse
		if err := json.Unmarshal(postRPC(n, body).Body.Bytes(), &resp); err != nil || resp.Err == nil {
			t.Errorf("%s: import answered %+v (decode err %v), want a node error", name, resp, err)
		}
		res, err := n.svc.Optimize(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.CacheHit {
			t.Errorf("%s: query hit the refused entry", name)
		}
		if err := res.Plan.Validate([]int{0, 1, 2, 3}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		n.close()
	}
}

// FuzzNodeRPC feeds any body to a fresh node's RPC handler, then optimizes
// a fixed 4-relation query on the node. Nothing may panic, the handler must
// answer 400/405 or a wireResponse, and the follow-up must return a plan
// over all four relations — whatever the body left in the cache.
func FuzzNodeRPC(f *testing.F) {
	q := genQuery(f, workload.KindChain, 4, 1)
	fp := service.FingerprintQuery(q)
	for _, body := range malformedImports(f) {
		f.Add(body)
	}
	for _, req := range []wireRequest{
		{Request: Request{Kind: ReqOptimize, Fingerprint: &fp}, Query: wire.FromQuery(q)},
		{Request: Request{Kind: ReqOptimize, Fingerprint: &service.Fingerprint{Key: fp.Key, Perm: []int{3, 2, 1, 0}}}, Query: wire.FromQuery(q)},
		{Request: Request{Kind: ReqImport, Entries: []service.Entry{{Key: fp.Key, Plan: &plan.Node{
			Left:  &plan.Node{Left: &plan.Node{RelID: 0}, Right: &plan.Node{RelID: 1}},
			Right: &plan.Node{Left: &plan.Node{RelID: 2}, Right: &plan.Node{RelID: 3}},
		}}}}},
		{Request: Request{Kind: ReqExport, Key: fp.Key}},
		{Request: Request{Kind: ReqStats}},
		{Request: Request{Kind: ReqCacheInfo, TopN: 3}},
		{Request: Request{Kind: ReqInvalidate, Key: fp.Key}},
		{Request: Request{Kind: ReqBumpEpoch}},
	} {
		f.Add(rpcBody(f, req))
	}
	for _, seed := range []string{
		``, `{}`, `null`, `[]`, `{"kind":99}`, `{"kind":-1}`,
		`{"kind":` + strconv.Itoa(int(ReqImport)) + `,"entries":[{"Key":"k"}]}`,
		`{"kind":` + strconv.Itoa(int(ReqImport)) + `,"entries":[{"Key":"n4|","Plan":{"RelID":-1}}]}`,
		`{"kind":` + strconv.Itoa(int(ReqOptimize)) + `,"query":{"relations":[]}}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		n := newNode("n", service.Config{Workers: 1})
		defer n.close()
		rec := postRPC(n, body)
		switch rec.Code {
		case http.StatusBadRequest, http.StatusMethodNotAllowed:
		default:
			var resp wireResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("status %d, body %q: %v", rec.Code, rec.Body.Bytes(), err)
			}
		}
		res, err := n.svc.Optimize(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Plan.Validate([]int{0, 1, 2, 3}); err != nil {
			t.Fatalf("follow-up plan: %v", err)
		}
	})
}
