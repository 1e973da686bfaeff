package cluster

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/workload"
)

func genQuery(t testing.TB, kind workload.Kind, n int, seed int64) *cost.Query {
	t.Helper()
	q, err := workload.Generate(kind, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// permuteQuery relabels q's relations through perm (perm[old] = new): the
// same join problem written by a different client.
func permuteQuery(q *cost.Query, perm []int) *cost.Query {
	return workload.PermuteQuery(q, perm)
}

func relEq(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func newTestCluster(t *testing.T, nodes, replicas int) *Cluster {
	t.Helper()
	c := New(Config{
		Nodes:     nodes,
		Replicas:  replicas,
		Transport: NewFaultTransport(NewLocalTransport(), 1),
		Service:   service.Config{Workers: 2},
	})
	t.Cleanup(c.Close)
	return c
}

// --- ring ------------------------------------------------------------------

func TestRingOwnersDistinctAndStable(t *testing.T) {
	r := newRing(64)
	for _, id := range []string{"a", "b", "c", "d"} {
		r.add(id)
	}
	keys := []string{"k1", "k2", "k3", "longer-key-with-structure", ""}
	for _, k := range keys {
		owners := r.owners(k, 3)
		if len(owners) != 3 {
			t.Fatalf("owners(%q) = %v, want 3 distinct nodes", k, owners)
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Errorf("owners(%q) repeats %s", k, o)
			}
			seen[o] = true
		}
		again := r.owners(k, 3)
		for i := range owners {
			if owners[i] != again[i] {
				t.Errorf("owners(%q) unstable: %v vs %v", k, owners, again)
			}
		}
	}
	if got := r.owners("k", 10); len(got) != 4 {
		t.Errorf("owners with replicas>members returned %d nodes, want 4", len(got))
	}
}

// TestRingRemovalMovesMinimalKeys checks the consistent-hashing property:
// removing one of four nodes must not move keys whose owner survives.
func TestRingRemovalMovesMinimalKeys(t *testing.T) {
	r := newRing(64)
	nodes := []string{"a", "b", "c", "d"}
	for _, id := range nodes {
		r.add(id)
	}
	const keys = 1000
	before := make([]string, keys)
	for i := 0; i < keys; i++ {
		before[i] = r.owners(key(i), 1)[0]
	}
	r.remove("b")
	moved := 0
	for i := 0; i < keys; i++ {
		after := r.owners(key(i), 1)[0]
		if after == "b" {
			t.Fatalf("key %d still owned by removed node", i)
		}
		if before[i] != "b" && after != before[i] {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys with surviving owners moved on node removal", moved)
	}
}

func TestRingBalance(t *testing.T) {
	r := newRing(64)
	nodes := []string{"a", "b", "c", "d"}
	for _, id := range nodes {
		r.add(id)
	}
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[r.owners(key(i), 1)[0]]++
	}
	want := keys / len(nodes)
	for _, id := range nodes {
		if c := counts[id]; c < want/3 || c > want*3 {
			t.Errorf("node %s owns %d of %d keys (expected near %d)", id, c, keys, want)
		}
	}
}

func key(i int) string {
	return "key-" + string(rune('a'+i%26)) + "-" + time.Duration(i).String()
}

// --- routing & replication --------------------------------------------------

// TestIsomorphicQueriesShareOneWarmEntry is acceptance criterion (a):
// isomorphic queries arriving at the front door from different clients
// must route to the same node and hit the same warm cache entry.
func TestIsomorphicQueriesShareOneWarmEntry(t *testing.T) {
	c := newTestCluster(t, 4, 2)

	q := genQuery(t, workload.KindMB, 11, 5)
	cold, err := c.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Error("first request reported a cache hit")
	}

	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		iso, err := c.Optimize(context.Background(), permuteQuery(q, rng.Perm(q.N())))
		if err != nil {
			t.Fatal(err)
		}
		if !iso.CacheHit {
			t.Errorf("trial %d: isomorphic query missed the warm cache", trial)
		}
		if iso.Key != cold.Key {
			t.Errorf("trial %d: key %q, want %q", trial, iso.Key, cold.Key)
		}
		if iso.Node != cold.Node {
			t.Errorf("trial %d: served by %s, want owner %s", trial, iso.Node, cold.Node)
		}
		if !relEq(iso.Plan.Cost, cold.Plan.Cost) {
			t.Errorf("trial %d: cost %g != %g", trial, iso.Plan.Cost, cold.Plan.Cost)
		}
	}
}

func TestFreshPlansReplicateToAllOwners(t *testing.T) {
	c := newTestCluster(t, 4, 3)

	res, err := c.Optimize(context.Background(), genQuery(t, workload.KindMB, 10, 9))
	if err != nil {
		t.Fatal(err)
	}
	owners := c.Owners(res.Key)
	if len(owners) != 3 {
		t.Fatalf("owners = %v, want 3", owners)
	}
	if owners[0] != res.Node {
		t.Errorf("served by %s, want ring owner %s", res.Node, owners[0])
	}
	snap := c.Snapshot()
	if snap.Replicated != 2 {
		t.Errorf("replicated %d entries, want 2", snap.Replicated)
	}
	if got := c.CacheLen(); got != 3 {
		t.Errorf("cluster holds %d copies, want 3", got)
	}
}

// TestFailoverServesFromReplica is acceptance criterion (b): killing the
// owner mid-stream loses no requests — replicas serve them — and the
// failure detector removes the dead node from the ring.
func TestFailoverServesFromReplica(t *testing.T) {
	c := newTestCluster(t, 4, 2)

	q := genQuery(t, workload.KindMB, 11, 1)
	cold, err := c.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	owner := cold.Node

	c.KillNode(owner)

	// Still served — warm, from the replica — while the detector catches up.
	warm, err := c.Optimize(context.Background(), q)
	if err != nil {
		t.Fatalf("request lost after owner kill: %v", err)
	}
	if !warm.Failover {
		t.Error("expected a failover result")
	}
	if warm.Node == owner {
		t.Errorf("served by the killed node %s", owner)
	}
	if !warm.CacheHit {
		t.Error("replica did not hold the replicated entry")
	}
	if !relEq(warm.Plan.Cost, cold.Plan.Cost) {
		t.Errorf("failover cost %g != %g", warm.Plan.Cost, cold.Plan.Cost)
	}

	// One more failed contact crosses the failure threshold (2): the ring
	// rebalances away from the dead node.
	if _, err := c.Optimize(context.Background(), q); err != nil {
		t.Fatalf("request lost during failure detection: %v", err)
	}
	for _, id := range c.AliveNodes() {
		if id == owner {
			t.Errorf("dead node %s still in the ring", owner)
		}
	}
	owners := c.Owners(cold.Key)
	if len(owners) != 2 {
		t.Fatalf("owners after death = %v, want 2", owners)
	}
	for _, id := range owners {
		if id == owner {
			t.Errorf("dead node %s still owns the key", owner)
		}
	}
	snap := c.Snapshot()
	if snap.Deaths != 1 {
		t.Errorf("deaths = %d, want 1", snap.Deaths)
	}
	if snap.Failovers == 0 {
		t.Error("failovers = 0, want > 0")
	}

	// After the rebalance the new owner set serves the entry warm.
	again, err := c.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("entry not warm after rebalance")
	}
	if again.Failover {
		t.Error("still failing over after the ring healed")
	}
}

// TestKillMidStreamLosesNoRequests hammers the cluster from concurrent
// clients and kills a node mid-run: every request must still be answered,
// with the correct plan cost.
func TestKillMidStreamLosesNoRequests(t *testing.T) {
	c := newTestCluster(t, 4, 2)

	var jobs []*cost.Query
	for seed := int64(0); seed < 6; seed++ {
		jobs = append(jobs, genQuery(t, workload.KindMB, 10, seed))
	}
	want := make([]float64, len(jobs))
	for i, q := range jobs {
		res, err := c.Optimize(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Plan.Cost
	}

	victim := c.AliveNodes()[0]
	const clients, perClient = 8, 30
	var wg sync.WaitGroup
	var killOnce sync.Once
	errs := make([]error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perClient; i++ {
				if w == 0 && i == perClient/2 {
					killOnce.Do(func() { c.KillNode(victim) })
				}
				j := rng.Intn(len(jobs))
				q := jobs[j]
				if rng.Intn(2) == 0 {
					q = permuteQuery(q, rng.Perm(q.N()))
				}
				res, err := c.Optimize(context.Background(), q)
				if err != nil {
					errs[w] = err
					return
				}
				if !relEq(res.Plan.Cost, want[j]) {
					errs[w] = errors.New("wrong plan cost after failover")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("client %d lost a request: %v", w, err)
		}
	}
	snap := c.Snapshot()
	if snap.Requests != uint64(clients*perClient+len(jobs)) {
		t.Errorf("requests = %d, want %d", snap.Requests, clients*perClient+len(jobs))
	}
	for _, id := range c.AliveNodes() {
		if id == victim {
			t.Errorf("killed node %s still in the ring", victim)
		}
	}
}

// --- membership & rebalancing ------------------------------------------------

func TestHealthSweepDetectsDeathAndRejoin(t *testing.T) {
	c := newTestCluster(t, 3, 2)

	q := genQuery(t, workload.KindMB, 10, 2)
	if _, err := c.Optimize(context.Background(), q); err != nil {
		t.Fatal(err)
	}

	victim := c.AliveNodes()[2]
	c.KillNode(victim)
	c.CheckHealth()
	c.CheckHealth() // threshold 2: second sweep declares death
	if len(c.AliveNodes()) != 2 {
		t.Fatalf("alive = %v after kill+2 sweeps, want 2 nodes", c.AliveNodes())
	}

	c.ReviveNode(victim)
	c.CheckHealth()
	if len(c.AliveNodes()) != 3 {
		t.Fatalf("alive = %v after revive+sweep, want 3 nodes", c.AliveNodes())
	}
	snap := c.Snapshot()
	if snap.Deaths != 1 || snap.Rejoins != 1 {
		t.Errorf("deaths/rejoins = %d/%d, want 1/1", snap.Deaths, snap.Rejoins)
	}

	// The rejoin rebalanced: if the revived node owns the key again, it
	// must hold the entry and serve it warm.
	res, err := c.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("entry not warm after rejoin rebalance")
	}
}

func TestAddNodeRebalancesWarmEntries(t *testing.T) {
	c := newTestCluster(t, 2, 2)

	var queries []*cost.Query
	for seed := int64(0); seed < 8; seed++ {
		q := genQuery(t, workload.KindChain, 8, seed)
		queries = append(queries, q)
		if _, err := c.Optimize(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}

	id, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.AliveNodes()) != 3 {
		t.Fatalf("alive = %v, want 3", c.AliveNodes())
	}
	// Every repeat must stay warm: entries whose ownership moved to the new
	// node were migrated by the rebalance.
	for i, q := range queries {
		res, err := c.Optimize(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit {
			t.Errorf("query %d went cold after node join", i)
		}
	}
	_ = id
}

func TestRemoveNodeMigratesEntries(t *testing.T) {
	c := newTestCluster(t, 3, 1) // replicas=1: only the migration keeps entries warm
	var queries []*cost.Query
	for seed := int64(0); seed < 8; seed++ {
		q := genQuery(t, workload.KindChain, 8, seed)
		queries = append(queries, q)
		if _, err := c.Optimize(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	victim := c.AliveNodes()[0]
	if err := c.RemoveNode(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveNode(victim); err == nil {
		t.Error("second RemoveNode of the same node did not error")
	}
	for i, q := range queries {
		res, err := c.Optimize(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit {
			t.Errorf("query %d went cold after graceful leave", i)
		}
		if res.Node == victim {
			t.Errorf("query %d served by removed node", i)
		}
	}
}

// TestRemoveNodeDropsBreaker: a node that leaves takes its circuit breaker
// with it, so /metrics stops exporting its state and a peer rejoining under
// the same ID inherits nothing; the cluster-wide open count still never
// goes backwards.
func TestRemoveNodeDropsBreaker(t *testing.T) {
	c := newTestCluster(t, 3, 2)
	for seed := int64(0); seed < 6; seed++ {
		if _, err := c.Optimize(context.Background(), genQuery(t, workload.KindChain, 8, seed)); err != nil {
			t.Fatal(err)
		}
	}
	victim := ""
	for id := range c.Snapshot().Breakers {
		victim = id
	}
	if victim == "" {
		t.Fatal("no breaker after six requests")
	}
	br := c.breakerFor(victim)
	now := time.Now()
	for i := 0; i < c.cfg.Breaker.Threshold; i++ {
		br.record(false, now)
	}
	opens := c.Snapshot().BreakerOpens
	if opens == 0 {
		t.Fatal("setup: breaker did not open")
	}
	series := `mpdp_transport_breaker_state{node="` + victim + `"}`
	var before bytes.Buffer
	if err := c.WriteMetrics(&before); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(before.String(), series) {
		t.Fatalf("setup: %s missing from /metrics", series)
	}

	if err := c.RemoveNode(victim); err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	if st, ok := s.Breakers[victim]; ok {
		t.Errorf("removed node %s keeps a %s breaker: %v", victim, st, s.Breakers)
	}
	if s.BreakerOpens < opens {
		t.Errorf("breaker_opens went back from %d to %d", opens, s.BreakerOpens)
	}
	var after bytes.Buffer
	if err := c.WriteMetrics(&after); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(after.String(), series) {
		t.Errorf("%s still exported after RemoveNode", series)
	}
}

func TestAllNodesDeadReturnsErrNoNodes(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	for _, id := range c.AliveNodes() {
		c.KillNode(id)
	}
	_, err := c.Optimize(context.Background(), genQuery(t, workload.KindChain, 5, 1))
	if !errors.Is(err, ErrNoNodes) {
		t.Errorf("err = %v, want ErrNoNodes", err)
	}
}

func TestFlushAllDropsEveryCache(t *testing.T) {
	c := newTestCluster(t, 3, 2)
	if _, err := c.Optimize(context.Background(), genQuery(t, workload.KindMB, 10, 4)); err != nil {
		t.Fatal(err)
	}
	if c.CacheLen() == 0 {
		t.Fatal("no cached entries before flush")
	}
	c.FlushAll()
	if got := c.CacheLen(); got != 0 {
		t.Errorf("cache len after FlushAll = %d, want 0", got)
	}
}

// TestFlushAllReachesDeadButReachableNodes guards against a revived node
// resurrecting pre-flush entries: a node that is out of the ring but
// reachable again must still receive FlushAll, so its rejoin rebalance has
// nothing stale to spread.
func TestFlushAllReachesDeadButReachableNodes(t *testing.T) {
	c := newTestCluster(t, 3, 3) // full replication: every node holds the entry
	q := genQuery(t, workload.KindMB, 10, 4)
	if _, err := c.Optimize(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	victim := c.AliveNodes()[0]
	c.KillNode(victim)
	c.CheckHealth()
	c.CheckHealth() // declared dead, out of the ring
	c.ReviveNode(victim)

	c.FlushAll() // victim is reachable again but not yet rejoined
	c.CheckHealth()
	if len(c.AliveNodes()) != 3 {
		t.Fatalf("alive = %v, want all 3 after rejoin", c.AliveNodes())
	}
	if got := c.CacheLen(); got != 0 {
		t.Errorf("cache len after FlushAll + rejoin = %d, want 0 (stale entries spread)", got)
	}
	res, err := c.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("flushed entry served as a cache hit after rejoin")
	}
}

func TestClusterClosedAndBadQuery(t *testing.T) {
	c := New(Config{Nodes: 2, Service: service.Config{Workers: 1}})

	// A structurally bad query errors without tripping the failure
	// detector: nodes answered, the query itself is at fault.
	var cat catalog.Catalog
	cat.Add(catalog.NewRelation("a", 100, 32))
	cat.Add(catalog.NewRelation("b", 100, 32))
	disc := &cost.Query{Cat: cat, G: graph.New(2)}
	if _, err := c.Optimize(context.Background(), disc); err == nil {
		t.Error("disconnected query did not error")
	}
	if len(c.AliveNodes()) != 2 {
		t.Errorf("query error killed a node: alive = %v", c.AliveNodes())
	}

	c.Close()
	c.Close() // idempotent
	if _, err := c.Optimize(context.Background(), genQuery(t, workload.KindChain, 4, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("err after Close = %v, want ErrClosed", err)
	}
}

func TestInjectedLatencyIsApplied(t *testing.T) {
	ft := NewFaultTransport(NewLocalTransport(), 1)
	c := New(Config{
		Nodes:     2,
		Replicas:  1,
		Transport: ft,
		Service:   service.Config{Workers: 1},
	})
	defer c.Close()
	for _, id := range c.AliveNodes() {
		ft.SetLatency(id, 2*time.Millisecond, 0)
	}
	q := genQuery(t, workload.KindChain, 5, 1)
	if _, err := c.Optimize(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := c.Optimize(context.Background(), q) // warm: elapsed is dominated by injected latency
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("expected warm hit")
	}
	if d := time.Since(start); d < 2*time.Millisecond {
		t.Errorf("injected 2ms latency, request took %v", d)
	}
}
