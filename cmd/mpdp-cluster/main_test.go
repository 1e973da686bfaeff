package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/internal/workload"
)

const testStatement = "SELECT r.id FROM release r, release_group rg, artist_credit ac " +
	"WHERE r.release_group = rg.id AND r.artist_credit = ac.id AND rg.artist_credit = ac.id"

func newTestFrontDoor(t *testing.T) *httptest.Server {
	t.Helper()
	c := cluster.New(cluster.Config{
		Nodes:     3,
		Replicas:  2,
		Transport: cluster.NewFaultTransport(cluster.NewLocalTransport(), 1),
		Service:   service.Config{Workers: 2},
	})
	t.Cleanup(c.Close)
	ts := httptest.NewServer(newAPI(c, httpapi.Options{}).Mux())
	t.Cleanup(ts.Close)
	return ts
}

func postOptimize(t *testing.T, ts *httptest.Server, path string) httpapi.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(testStatement))
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
	return r
}

func TestFrontDoorOptimizeAndFailoverOverHTTP(t *testing.T) {
	ts := newTestFrontDoor(t)

	cold := postOptimize(t, ts, "/v1/optimize")
	if cold.CacheHit || cold.Node == "" {
		t.Errorf("cold = hit %v node %q, want miss on a named node", cold.CacheHit, cold.Node)
	}
	warm := postOptimize(t, ts, "/v1/optimize")
	if !warm.CacheHit || warm.Node != cold.Node {
		t.Errorf("warm = hit %v on %s, want hit on owner %s", warm.CacheHit, warm.Node, cold.Node)
	}

	// Crash the owner through the admin surface: the next request must
	// fail over to a replica and stay warm.
	resp, err := http.Post(ts.URL+"/cluster/kill?node="+cold.Node, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("kill status = %d", resp.StatusCode)
	}
	over := postOptimize(t, ts, "/v1/optimize")
	if over.Node == cold.Node {
		t.Errorf("request served by killed node %s", cold.Node)
	}
	if !over.Failover && !over.CacheHit {
		t.Errorf("after kill: failover=%v hit=%v, want a warm failover", over.Failover, over.CacheHit)
	}
	if over.Cost != cold.Cost {
		t.Errorf("failover cost %g != %g", over.Cost, cold.Cost)
	}
}

// TestClusterV1ErrorEnvelopes mirrors the serve binary's golden error-path
// suite on the cluster front door: both binaries answer every failure
// class with the same structured envelope.
func TestClusterV1ErrorEnvelopes(t *testing.T) {
	ts := newTestFrontDoor(t)
	check := func(resp *http.Response, wantStatus int, wantCode string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Errorf("status = %d, want %d", resp.StatusCode, wantStatus)
		}
		var e httpapi.Error
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("error body is not an envelope: %v", err)
		}
		if e.Code != wantCode || e.RequestID == "" {
			t.Errorf("envelope = %+v, want code %q with request id", e, wantCode)
		}
	}
	const path = "/v1/optimize"
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusMethodNotAllowed, httpapi.CodeMethodNotAllowed)

	resp, err = http.Post(ts.URL+path, "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusBadRequest, httpapi.CodeBadRequest)

	resp, err = http.Post(ts.URL+path, "text/plain", strings.NewReader(strings.Repeat("x", 1<<20+1)))
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusRequestEntityTooLarge, httpapi.CodeTooLarge)

	resp, err = http.Post(ts.URL+path, "text/plain", strings.NewReader("SELECT FROM WHERE"))
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusUnprocessableEntity, httpapi.CodeInvalidQuery)

	// 503: empty the cluster — no alive node can serve.
	c := cluster.New(cluster.Config{Nodes: 1, Replicas: 1, Service: service.Config{Workers: 1}})
	t.Cleanup(c.Close)
	ts2 := httptest.NewServer(newAPI(c, httpapi.Options{}).Mux())
	t.Cleanup(ts2.Close)
	for _, id := range c.AliveNodes() {
		if err := c.RemoveNode(id); err != nil {
			t.Fatal(err)
		}
	}
	resp, err = http.Post(ts2.URL+path, "text/plain", strings.NewReader(testStatement))
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusServiceUnavailable, httpapi.CodeUnavailable)

	hresp, err := http.Get(ts2.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("empty-cluster healthz = %d, want 503", hresp.StatusCode)
	}
}

func TestFrontDoorStatsClusterHealthz(t *testing.T) {
	ts := newTestFrontDoor(t)
	postOptimize(t, ts, "/v1/optimize")

	var stats map[string]any
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("/v1/stats is not JSON: %v", err)
	}
	resp.Body.Close()
	if _, ok := stats["per_node"]; !ok {
		t.Errorf("/v1/stats lacks per_node: %v", stats)
	}

	var info struct {
		AliveNodes []string `json:"alive_nodes"`
		Replicas   int      `json:"replicas"`
	}
	resp, err = http.Get(ts.URL + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("/cluster is not JSON: %v", err)
	}
	resp.Body.Close()
	if len(info.AliveNodes) != 3 || info.Replicas != 2 {
		t.Errorf("/cluster = %+v, want 3 alive nodes, 2 replicas", info)
	}

	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Alive  int    `json:"alive_nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("/v1/healthz is not JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "ok" || health.Alive != 3 {
		t.Errorf("/v1/healthz = %d %q alive=%d, want 200 ok 3", resp.StatusCode, health.Status, health.Alive)
	}
}

// TestPreV1PathsAreGone: the unversioned aliases of the front door were
// removed, not redirected.
func TestPreV1PathsAreGone(t *testing.T) {
	ts := newTestFrontDoor(t)
	for _, path := range []string{"/optimize", "/stats", "/healthz", "/cluster/flush"} {
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(testStatement))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestFrontDoorAdminValidation(t *testing.T) {
	ts := newTestFrontDoor(t)
	resp, err := http.Get(ts.URL + "/cluster/kill?node=node-0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET kill = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/cluster/kill", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("kill without node = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/cluster/remove?node=nope", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("remove unknown node = %d, want 400", resp.StatusCode)
	}
}

// TestFrontDoorKillNeedsFaultModel: the admin kill and revive verbs act
// through the cluster's FaultTransport. Without one they answer 400 and
// change nothing; with one the node is dead after FailureThreshold (2)
// sweeps and alive again one sweep after the revive.
func TestFrontDoorKillNeedsFaultModel(t *testing.T) {
	frontDoor := func(tr cluster.Transport) (*cluster.Cluster, *httptest.Server) {
		c := cluster.New(cluster.Config{Nodes: 3, Replicas: 2, Transport: tr, Service: service.Config{Workers: 1}})
		t.Cleanup(c.Close)
		ts := httptest.NewServer(newAPI(c, httpapi.Options{}).Mux())
		t.Cleanup(ts.Close)
		return c, ts
	}
	post := func(ts *httptest.Server, path string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// members returns /cluster's alive and dead lists.
	members := func(ts *httptest.Server) (alive, dead []string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/cluster")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m struct {
			Alive []string `json:"alive_nodes"`
			Dead  []string `json:"dead_nodes"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m.Alive, m.Dead
	}

	c, ts := frontDoor(cluster.NewLocalTransport())
	if code := post(ts, "/cluster/kill?node=node-1"); code != http.StatusBadRequest {
		t.Errorf("kill without a FaultTransport = %d, want 400", code)
	}
	c.CheckHealth()
	c.CheckHealth()
	if alive, dead := members(ts); len(alive) != 3 || len(dead) != 0 {
		t.Errorf("kill without a FaultTransport changed membership: alive %v dead %v", alive, dead)
	}
	if code := post(ts, "/cluster/revive?node=node-1"); code != http.StatusBadRequest {
		t.Errorf("revive without a FaultTransport = %d, want 400", code)
	}

	c, ts = frontDoor(cluster.NewFaultTransport(cluster.NewLocalTransport(), 1))
	if code := post(ts, "/cluster/kill?node=node-1"); code != http.StatusOK {
		t.Fatalf("kill through a FaultTransport = %d, want 200", code)
	}
	c.CheckHealth()
	c.CheckHealth()
	if _, dead := members(ts); len(dead) != 1 || dead[0] != "node-1" {
		t.Errorf("dead_nodes = %v after kill and two sweeps, want [node-1]", dead)
	}
	if code := post(ts, "/cluster/revive?node=node-1"); code != http.StatusOK {
		t.Fatalf("revive = %d, want 200", code)
	}
	c.CheckHealth()
	if alive, dead := members(ts); len(alive) != 3 || len(dead) != 0 {
		t.Errorf("after revive and a sweep: alive %v dead %v, want all 3 alive", alive, dead)
	}
}

// TestFrontDoorReportsBackendIdentity: a large cyclic statement through the
// cluster front door is served exactly by a node's GPU backend, the
// response identifies the backend and device work, replicas keep the
// attribution, and /v1/stats aggregates the per-backend counters
// cluster-wide.
func TestFrontDoorReportsBackendIdentity(t *testing.T) {
	ts := newTestFrontDoor(t)

	post := func() httpapi.Response {
		t.Helper()
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
		return r
	}

	cold := post()
	if cold.Backend != string(backend.GPU) || cold.Algorithm != "mpdp-gpu" || cold.FellBack {
		t.Errorf("cold = %s on %s (fellback=%v), want exact mpdp-gpu on gpu",
			cold.Algorithm, cold.Backend, cold.FellBack)
	}
	if cold.GPUDevices <= 0 || cold.GPUSimMS <= 0 {
		t.Errorf("cold device work model missing: devices=%d sim=%gms", cold.GPUDevices, cold.GPUSimMS)
	}
	warm := post()
	if !warm.CacheHit || warm.Backend != string(backend.GPU) {
		t.Errorf("warm = hit %v backend %s, want hit with gpu attribution", warm.CacheHit, warm.Backend)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap cluster.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/v1/stats is not JSON: %v", err)
	}
	gpu := snap.Backends[string(backend.GPU)]
	if gpu.Routed != 1 || gpu.Served != 1 {
		t.Errorf("cluster gpu backend counters %+v, want routed=1 served=1", gpu)
	}
}
