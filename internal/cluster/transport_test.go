package cluster

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/leaktest"
	"repro/internal/service"
	"repro/internal/workload"
)

// TestMain installs the suite-wide goroutine-leak guard: every cluster,
// listener and worker pool a test starts must be gone when the suite ends.
func TestMain(m *testing.M) {
	leaktest.Main(m)
}

// fastRetry keeps test-time backoff negligible without disabling the
// machinery under test.
var fastRetry = RetryPolicy{
	MaxAttempts:       2,
	BaseBackoff:       time.Millisecond,
	MaxBackoff:        2 * time.Millisecond,
	AttemptTimeout:    5 * time.Second,
	MinAttemptTimeout: 50 * time.Millisecond,
}

type pingHandler struct{}

func (pingHandler) handle(context.Context, Request) (*Response, error) {
	return &Response{}, nil
}

// TestFaultLatencyHonorsCancel is the regression test for the
// injected-latency sleep: a cancelled caller must not stay parked for the
// full simulated delay, and its cancellation must not count as an injected
// fault.
func TestFaultLatencyHonorsCancel(t *testing.T) {
	ft := NewFaultTransport(NewLocalTransport(), 1)
	if _, err := ft.attach("n", pingHandler{}); err != nil {
		t.Fatal(err)
	}
	ft.SetLatency("n", 10*time.Second, 0)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ft.Call(ctx, "n", Request{Kind: ReqPing})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancelled call took %v — parked on the injected latency timer", elapsed)
	}
	if got := ft.Injected(); got != 0 {
		t.Errorf("caller cancellation counted as %d injected fault(s)", got)
	}
}

// TestCutInFlightDropsReply pins the crash semantics every base transport
// gets from its FaultTransport: a cut that lands while the node is working
// loses the reply, as a real crash loses the responses on the wire.
func TestCutInFlightDropsReply(t *testing.T) {
	bases := map[string]func() Transport{
		"local": func() Transport { return NewLocalTransport() },
		"http":  func() Transport { return NewHTTPTransport() },
	}
	for name, mk := range bases {
		t.Run(name, func(t *testing.T) {
			ft := NewFaultTransport(mk(), 1)
			defer ft.Close()
			entered, release := make(chan struct{}), make(chan struct{})
			detach, err := ft.attach("n", handlerFunc(func(context.Context, Request) (*Response, error) {
				close(entered)
				<-release
				return &Response{}, nil
			}))
			if err != nil {
				t.Fatal(err)
			}
			defer detach()

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			errc := make(chan error, 1)
			go func() {
				_, err := ft.Call(ctx, "n", Request{Kind: ReqPing})
				errc <- err
			}()
			<-entered
			ft.Cut("n")
			close(release)
			err = <-errc
			if !errors.Is(err, ErrUnreachable) || !strings.Contains(err.Error(), "reply lost") {
				t.Fatalf("err = %v, want ErrUnreachable (reply lost)", err)
			}
			if got := ft.Injected(); got != 1 {
				t.Errorf("injected = %d, want 1", got)
			}
		})
	}
}

// TestFailoverBothTransports runs the kill-owner failover path against the
// in-process transport and against real loopback sockets: same cluster
// code, same behaviour, actual TCP in the second case.
func TestFailoverBothTransports(t *testing.T) {
	transports := map[string]func() Transport{
		"local": func() Transport { return NewFaultTransport(NewLocalTransport(), 1) },
		"http":  func() Transport { return NewFaultTransport(NewHTTPTransport(), 1) },
	}
	for name, mk := range transports {
		t.Run(name, func(t *testing.T) {
			c := New(Config{
				Nodes:     3,
				Replicas:  2,
				Transport: mk(),
				Retry:     fastRetry,
				Service:   service.Config{Workers: 2},
			})
			defer c.Close()

			q := genQuery(t, workload.KindChain, 8, 7)
			res1, err := c.Optimize(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			owner := res1.Node

			c.KillNode(owner)
			res2, err := c.Optimize(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if res2.Node == owner {
				t.Fatalf("request served by killed node %s", owner)
			}
			if !res2.Failover {
				t.Error("Failover flag not set on replica serve")
			}
			if res2.Plan.Cost != res1.Plan.Cost {
				t.Errorf("failover cost %v != original %v", res2.Plan.Cost, res1.Plan.Cost)
			}
			if !res2.CacheHit {
				t.Error("replica should hold the replicated warm entry")
			}
			if s := c.Snapshot(); s.Failovers == 0 {
				t.Errorf("failovers = 0 after failover; snapshot %+v", s)
			}
		})
	}
}

// TestHTTPTransportWireParity pins the acceptance criterion that the JSON
// wire path is lossless where it matters: the same query optimized through
// a socket cluster and a local cluster yields bit-identical plan cost, and
// canonical fingerprints survive the wire so isomorphic twins still hit
// the shared warm entry.
func TestHTTPTransportWireParity(t *testing.T) {
	mk := func(tr Transport) *Cluster {
		return New(Config{
			Nodes:     2,
			Replicas:  2,
			Transport: tr,
			Retry:     fastRetry,
			Service:   service.Config{Workers: 2},
		})
	}
	local := mk(NewLocalTransport())
	defer local.Close()
	remote := mk(NewHTTPTransport())
	defer remote.Close()

	for seed := int64(0); seed < 4; seed++ {
		q := genQuery(t, workload.KindStar, 9, seed)
		lres, err := local.Optimize(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		rres, err := remote.Optimize(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if lres.Plan.Cost != rres.Plan.Cost {
			t.Errorf("seed %d: cost over socket %v != local %v", seed, rres.Plan.Cost, lres.Plan.Cost)
		}
		if lres.Key != rres.Key {
			t.Errorf("seed %d: fingerprint drifted over the wire: %s vs %s", seed, rres.Key, lres.Key)
		}

		twin := permuteQuery(q, []int{8, 7, 6, 5, 4, 3, 2, 1, 0})
		tres, err := remote.Optimize(context.Background(), twin)
		if err != nil {
			t.Fatal(err)
		}
		if !tres.CacheHit && !tres.Coalesced {
			t.Errorf("seed %d: isomorphic twin went cold over the socket transport", seed)
		}
		if tres.Plan.Cost != rres.Plan.Cost {
			t.Errorf("seed %d: twin cost %v != original %v", seed, tres.Plan.Cost, rres.Plan.Cost)
		}
	}
}

// TestHTTPTransportChecksCarriedFingerprint covers the socket decoder's guard
// on the fingerprint a coordinator sends along: plans are remapped through
// its permutation unchecked, so one that is not a permutation of the query's
// relations must be dropped (the node then fingerprints for itself) rather
// than index out of range inside the node.
func TestHTTPTransportChecksCarriedFingerprint(t *testing.T) {
	c := New(Config{Nodes: 1, Transport: NewHTTPTransport(), Retry: fastRetry, Service: service.Config{Workers: 2}})
	defer c.Close()
	node := c.AliveNodes()[0]
	q := genQuery(t, workload.KindCycle, 7, 1)
	want := service.FingerprintQuery(q)

	for name, perm := range map[string][]int{
		"carried":      want.Perm,
		"short":        want.Perm[:3],
		"out of range": {0, 1, 2, 3, 4, 5, 70},
		"repeated":     {0, 1, 2, 3, 4, 5, 5},
	} {
		resp, err := c.Transport().Call(context.Background(), node, Request{
			Kind: ReqOptimize, Query: q, Fingerprint: &service.Fingerprint{Key: want.Key, Perm: perm},
		})
		if err != nil {
			t.Fatalf("%s permutation: %v", name, err)
		}
		if resp.Result.Key != want.Key {
			t.Errorf("%s permutation: planned under key %q, want %q", name, resp.Result.Key, want.Key)
		}
		if err := resp.Result.Plan.Validate([]int{0, 1, 2, 3, 4, 5, 6}); err != nil {
			t.Errorf("%s permutation: %v", name, err)
		}
	}
}

// TestRejoinedPeerStartsHealthy: a remote peer that is killed, removed and
// joined again under the same ID starts healthy — RemoveNode clears its link
// in the FaultTransport, so the admitting ping and the requests after it
// get through.
func TestRejoinedPeerStartsHealthy(t *testing.T) {
	ns := NewNodeServer("peer-0", service.Config{Workers: 1})
	addr, err := ns.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()

	c := New(Config{
		Nodes:     -1,
		Replicas:  1,
		Transport: NewFaultTransport(NewHTTPTransport(), 1),
		Retry:     fastRetry,
		Service:   service.Config{Workers: 1},
	})
	defer c.Close()
	if err := c.JoinPeer("peer-0", addr); err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode("peer-0"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveNode("peer-0"); err != nil {
		t.Fatal(err)
	}
	if err := c.JoinPeer("peer-0", addr); err != nil {
		t.Fatalf("rejoin under the same ID: %v", err)
	}
	res, err := c.Optimize(context.Background(), genQuery(t, workload.KindChain, 6, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Node != "peer-0" || res.Failover {
		t.Errorf("served by %s (failover %v), want peer-0 directly", res.Node, res.Failover)
	}
}

// TestJoinPeerNodeServer exercises the multi-process shape in one process:
// a NodeServer on a real listener joins an empty coordinator via JoinPeer,
// serves traffic, reports its stats through the stats RPC, and leaves
// cleanly.
func TestJoinPeerNodeServer(t *testing.T) {
	ns := NewNodeServer("peer-0", service.Config{Workers: 2})
	addr, err := ns.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()

	c := New(Config{
		Nodes:     -1, // start empty; the peer is the only member
		Replicas:  1,
		Transport: NewHTTPTransport(),
		Retry:     fastRetry,
		Service:   service.Config{Workers: 1},
	})
	defer c.Close()

	if _, err := c.Optimize(context.Background(), genQuery(t, workload.KindChain, 6, 1)); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("empty cluster err = %v, want ErrNoNodes", err)
	}
	if err := c.JoinPeer("peer-0", addr); err != nil {
		t.Fatal(err)
	}
	if err := c.JoinPeer("peer-0", addr); err == nil {
		t.Error("duplicate JoinPeer accepted")
	}

	q := genQuery(t, workload.KindChain, 8, 2)
	res, err := c.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Node != "peer-0" {
		t.Fatalf("served by %s, want peer-0", res.Node)
	}
	twin, err := c.Optimize(context.Background(), permuteQuery(q, []int{7, 6, 5, 4, 3, 2, 1, 0}))
	if err != nil {
		t.Fatal(err)
	}
	if !twin.CacheHit && !twin.Coalesced {
		t.Error("twin went cold on the remote peer")
	}

	snap := c.Snapshot()
	ps, ok := snap.PerNode["peer-0"]
	if !ok {
		t.Fatalf("remote peer missing from snapshot: %+v", snap.PerNode)
	}
	if ps.Requests < 2 {
		t.Errorf("remote stats report %d requests, want >= 2", ps.Requests)
	}
	if ps.CacheLen < 1 {
		t.Errorf("remote cache_len = %d, want >= 1", ps.CacheLen)
	}
	if got := c.CacheLen(); got < 1 {
		t.Errorf("CacheLen() = %d, want >= 1", got)
	}
	if len(snap.Latency) == 0 {
		t.Error("remote latency histograms did not fold into the cluster rollup")
	}

	if err := c.RemoveNode("peer-0"); err != nil {
		t.Fatal(err)
	}
	if got := len(c.AliveNodes()); got != 0 {
		t.Errorf("alive = %d after peer removal, want 0", got)
	}
}

// TestAsymmetricPartition pins the directional fault semantics: a
// request-direction cut means the node never sees the call; a
// reply-direction cut means the node does the work and the coordinator
// still fails over — the nastier failure, because cluster state changed
// behind an error.
func TestAsymmetricPartition(t *testing.T) {
	ft := NewFaultTransport(NewLocalTransport(), 1)
	c := New(Config{
		Nodes:            2,
		Replicas:         2,
		Transport:        ft,
		FailureThreshold: 1000, // keep the ring static: the fault, not the detector, is under test
		Retry:            fastRetry,
		Breaker:          BreakerConfig{Threshold: 1 << 30},
		Service:          service.Config{Workers: 2},
	})
	defer c.Close()

	q := genQuery(t, workload.KindCycle, 8, 3)
	res, err := c.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	owner := res.Node
	ownerReqs := func() uint64 {
		c.mu.Lock()
		n := c.nodes[owner]
		c.mu.Unlock()
		return n.svc.Counters().Snapshot().Requests
	}

	// Request direction: the owner must not see the call at all.
	before := ownerReqs()
	ft.Partition(owner, DirRequest, 1)
	res2, err := c.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Node == owner {
		t.Fatalf("request crossed a request-direction cut to %s", owner)
	}
	if got := ownerReqs(); got != before {
		t.Errorf("owner served %d request(s) through a request-direction cut", got-before)
	}

	// Reply direction: the owner does the work, the coordinator fails over.
	ft.Clear(owner)
	before = ownerReqs()
	ft.Partition(owner, DirReply, 1)
	res3, err := c.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Node == owner {
		t.Fatalf("reply-direction cut returned an answer from %s", owner)
	}
	if !res3.Failover {
		t.Error("reply loss should read as failover")
	}
	if got := ownerReqs(); got <= before {
		t.Error("owner never saw the request under a reply-direction cut — wrong half faulted")
	}
	if ft.Injected() == 0 {
		t.Error("fault transport reports zero injected faults")
	}
}

// TestRetryRecoversLossyLink: on a link dropping half its requests, the
// guarded path's retries keep every request succeeding on the single owner
// and the retry counter shows they were needed.
func TestRetryRecoversLossyLink(t *testing.T) {
	ft := NewFaultTransport(NewLocalTransport(), 7)
	c := New(Config{
		Nodes:            2,
		Replicas:         1, // single owner per key: only retries can save a dropped call
		Transport:        ft,
		FailureThreshold: 1000,
		Retry: RetryPolicy{
			MaxAttempts:    4,
			BaseBackoff:    time.Millisecond,
			MaxBackoff:     2 * time.Millisecond,
			AttemptTimeout: 5 * time.Second,
		},
		Breaker: BreakerConfig{Threshold: 1 << 30},
		Service: service.Config{Workers: 2},
	})
	defer c.Close()

	q := genQuery(t, workload.KindChain, 8, 5)
	owner := c.Owners(service.FingerprintQuery(q).Key)[0]
	ft.Partition(owner, DirRequest, 0.5)
	for i := 0; i < 20; i++ {
		if _, err := c.Optimize(context.Background(), q); err != nil {
			t.Fatalf("request %d failed through a 50%% lossy link: %v", i, err)
		}
	}
	if s := c.Snapshot(); s.Retries == 0 {
		t.Error("retries = 0 on a 50% lossy link — retry path not exercised")
	}
}

// TestBreakerSkipsAndRecovery drives the full breaker lifecycle: window
// failures open it, open routes skip the node before any call (counted as
// breaker_skips, not failovers), and after OpenFor a half-open probe
// closes it again.
func TestBreakerSkipsAndRecovery(t *testing.T) {
	c := New(Config{
		Nodes:            2,
		Replicas:         2,
		Transport:        NewFaultTransport(NewLocalTransport(), 1),
		FailureThreshold: 1000,
		Retry: RetryPolicy{
			MaxAttempts:    1,
			BaseBackoff:    time.Millisecond,
			MaxBackoff:     2 * time.Millisecond,
			AttemptTimeout: 5 * time.Second,
		},
		Breaker: BreakerConfig{Threshold: 2, Window: time.Minute, OpenFor: 40 * time.Millisecond},
		Service: service.Config{Workers: 2},
	})
	defer c.Close()

	q := genQuery(t, workload.KindStar, 8, 11)
	res, err := c.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	owner := res.Node

	c.KillNode(owner)
	// Two failed calls open the breaker (Threshold 2, one attempt each).
	for i := 0; i < 2; i++ {
		if _, err := c.Optimize(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Snapshot()
	if s.Breakers[owner] != "open" {
		t.Fatalf("breaker state = %q after %d failures, want open", s.Breakers[owner], 2)
	}
	if s.BreakerOpens == 0 {
		t.Error("breaker_opens = 0 after a trip")
	}
	skipsBefore := s.BreakerSkips

	// Open breaker: the next request skips the owner without a call.
	res2, err := c.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Node == owner {
		t.Fatal("open breaker did not route around the node")
	}
	if res2.Failover {
		t.Error("breaker skip must not read as failover")
	}
	s = c.Snapshot()
	if s.BreakerSkips <= skipsBefore {
		t.Errorf("breaker_skips did not grow on an open-breaker route (%d -> %d)", skipsBefore, s.BreakerSkips)
	}

	// Heal, wait out OpenFor: the half-open probe succeeds and closes it.
	c.ReviveNode(owner)
	time.Sleep(60 * time.Millisecond)
	res3, err := c.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Node != owner {
		t.Errorf("half-open probe served by %s, want recovered owner %s", res3.Node, owner)
	}
	if s := c.Snapshot(); s.Breakers[owner] != "closed" {
		t.Errorf("breaker state = %q after successful probe, want closed", s.Breakers[owner])
	}
}

// TestBreakerForcedPass pins the no-lost-requests guarantee: when every
// owner's breaker is open, the routing loop forces a call through rather
// than failing the request — breakers redirect traffic, they never refuse
// it.
func TestBreakerForcedPass(t *testing.T) {
	c := New(Config{
		Nodes:            2,
		Replicas:         1,
		FailureThreshold: 1000,
		Retry:            fastRetry,
		Breaker:          BreakerConfig{Threshold: 2, Window: time.Minute, OpenFor: time.Hour},
		Service:          service.Config{Workers: 2},
	})
	defer c.Close()

	q := genQuery(t, workload.KindChain, 7, 13)
	owner := c.Owners(service.FingerprintQuery(q).Key)[0]
	// Trip the owner's breaker directly: the node itself is healthy, the
	// breaker is just (wrongly) open for the next hour.
	br := c.breakerFor(owner)
	now := time.Now()
	br.record(false, now)
	br.record(false, now)
	if st, _ := br.snapshot(time.Now()); st != BreakerOpen {
		t.Fatalf("setup: breaker state = %v, want open", st)
	}

	res, err := c.Optimize(context.Background(), q)
	if err != nil {
		t.Fatalf("request lost behind an all-open breaker set: %v", err)
	}
	if res.Node != owner {
		t.Errorf("forced pass served by %s, want sole owner %s", res.Node, owner)
	}
	if s := c.Snapshot(); s.BreakerForced == 0 {
		t.Error("breaker_forced = 0 after a forced pass")
	}
}

// TestQuarantineFlappingNode: a node that keeps dying and rejoining stops
// being readmitted immediately — re-entry waits out an exponential
// quarantine, and the quarantined counter records each deferral.
func TestQuarantineFlappingNode(t *testing.T) {
	c := New(Config{
		Nodes:            3,
		Replicas:         2,
		Transport:        NewFaultTransport(NewLocalTransport(), 1),
		FailureThreshold: 1,
		FlapThreshold:    2,
		FlapWindow:       time.Minute,
		QuarantineBase:   50 * time.Millisecond,
		QuarantineMax:    time.Second,
		Retry:            fastRetry,
		Service:          service.Config{Workers: 1},
	})
	defer c.Close()

	victim := c.AliveNodes()[0]
	flap := func() {
		c.KillNode(victim)
		c.CheckHealth() // death
		c.ReviveNode(victim)
		c.CheckHealth() // rejoin attempt
	}

	alive := func() bool {
		for _, id := range c.AliveNodes() {
			if id == victim {
				return true
			}
		}
		return false
	}

	flap() // death 1: under the flap threshold, rejoins immediately
	if !alive() {
		t.Fatal("first flap should rejoin immediately")
	}
	flap() // death 2: flapping — rejoin deferred
	if alive() {
		t.Fatal("flapping node readmitted without quarantine")
	}
	s := c.Snapshot()
	if s.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", s.Quarantined)
	}
	c.CheckHealth() // still serving quarantine
	if alive() {
		t.Fatal("node readmitted before quarantine expired")
	}

	time.Sleep(70 * time.Millisecond) // quarantine (50ms) served
	c.CheckHealth()
	if !alive() {
		t.Fatal("node not readmitted after quarantine expired")
	}
	// The rejoin re-warms its cache via the rebalance; membership math:
	// 2 normal rejoins + the quarantined one.
	if s := c.Snapshot(); s.Rejoins != 2 {
		t.Errorf("rejoins = %d, want 2", s.Rejoins)
	}
}

// TestPartitionChurnUnderLoad shakes the concurrency story the -race run
// cares about: concurrent optimizes racing with partitions, cuts, heals
// and membership probes must neither panic nor deadlock, and every error
// that escapes must be one of the allowed classes.
func TestPartitionChurnUnderLoad(t *testing.T) {
	ft := NewFaultTransport(NewLocalTransport(), 99)
	c := New(Config{
		Nodes:            3,
		Replicas:         2,
		Transport:        ft,
		FailureThreshold: 50,
		Retry:            fastRetry,
		Breaker:          BreakerConfig{Threshold: 3, Window: time.Second, OpenFor: 10 * time.Millisecond},
		Service:          service.Config{Workers: 2},
	})
	defer c.Close()

	pool := make([]*cost.Query, 6)
	for i := range pool {
		pool[i] = genQuery(t, workload.KindChain, 7, int64(i))
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		nodes := c.AliveNodes()
		dirs := []Direction{DirRequest, DirReply, DirBoth}
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			victim := nodes[i%len(nodes)]
			ft.Partition(victim, dirs[i%len(dirs)], 0.5)
			c.KillNode(victim)
			time.Sleep(3 * time.Millisecond)
			c.ReviveNode(victim)
			ft.Clear(victim)
			c.CheckHealth()
			i++
		}
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				_, err := c.Optimize(context.Background(), pool[(w+i)%len(pool)])
				if err != nil &&
					!errors.Is(err, service.ErrOverloaded) &&
					!errors.Is(err, ErrNoNodes) {
					select {
					case errCh <- err:
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("disallowed error class escaped under churn: %v", err)
	default:
	}
}
