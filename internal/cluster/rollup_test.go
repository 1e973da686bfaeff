package cluster

import (
	"bytes"
	"context"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/service"
	"repro/internal/workload"
)

// parseSamples reads an exposition body into sample line key
// (`name{labels}`) → value. Keys are compared byte for byte, which holds
// because every writer renders label sets in sorted-key order.
func parseSamples(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestClusterMetricsSumNodes pins the rollup: every node-family sample the
// cluster's /metrics carries is the sum of that sample over every member's
// own Service.WriteMetrics (the highest value for mpdp_stats_epoch), and
// the rolled-up fields of Snapshot agree with its PerNode views. Members
// are three in-process nodes hosted on loopback sockets plus a node-mode
// peer joined with JoinPeer; one in-process node is cut before scraping
// and must keep reporting.
func TestClusterMetricsSumNodes(t *testing.T) {
	peer := NewNodeServer("peer-0", service.Config{Workers: 2})
	addr, err := peer.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	c := New(Config{
		Nodes:     3,
		Replicas:  2,
		Transport: NewFaultTransport(NewHTTPTransport(), 1),
		Retry:     fastRetry,
		Service:   service.Config{Workers: 2},
	})
	defer c.Close()
	if err := c.JoinPeer("peer-0", addr); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Misses then hits over shapes that route to more than one backend.
	for round := 0; round < 2; round++ {
		for i := 0; i < 12; i++ {
			kind := workload.KindChain
			if i%2 == 1 {
				kind = workload.KindStar
			}
			if _, err := c.Optimize(ctx, genQuery(t, kind, 6+i%7, int64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Coalesced requests: identical cold queries released together land on
	// one owner while its first run is in flight.
	coalesced := func() uint64 {
		var n uint64
		for _, ns := range c.Snapshot().PerNode {
			n += ns.Coalesced
		}
		return n
	}
	for seed := int64(100); coalesced() == 0 && seed < 110; seed++ {
		q := genQuery(t, workload.KindClique, 13, seed)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, err := c.Optimize(ctx, q); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
	}
	if coalesced() == 0 {
		t.Fatal("no request coalesced")
	}
	// One node a stats epoch ahead, so the epoch's maximum differs from
	// its sum.
	ids := c.AliveNodes()
	c.mu.Lock()
	local := make(map[string]*service.Service, len(c.nodes))
	for id, n := range c.nodes {
		local[id] = n.svc
	}
	c.mu.Unlock()
	local[ids[0]].BumpStatsEpoch()
	c.KillNode(ids[1])

	// Each member's own exposition, summed sample by sample.
	svcs := []*service.Service{peer.Service()}
	for _, svc := range local {
		svcs = append(svcs, svc)
	}
	if len(svcs) != 4 {
		t.Fatalf("%d members, want 4", len(svcs))
	}
	want := make(map[string]float64)
	for _, svc := range svcs {
		var b bytes.Buffer
		if err := svc.WriteMetrics(&b); err != nil {
			t.Fatal(err)
		}
		for k, v := range parseSamples(t, b.String()) {
			if k == "mpdp_stats_epoch" {
				want[k] = math.Max(want[k], v)
			} else {
				want[k] += v
			}
		}
	}
	var b bytes.Buffer
	if err := c.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	got := parseSamples(t, b.String())
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("cluster /metrics lacks node sample %s", k)
			continue
		}
		if !relEq(g, w) {
			t.Errorf("%s = %v, want the nodes' %v", k, g, w)
		}
	}
	for _, k := range []string{"mpdp_coalesced_total", "mpdp_cache_hits_total", "mpdp_cache_misses_total"} {
		if want[k] == 0 {
			t.Errorf("%s is 0: the traffic did not exercise it", k)
		}
	}

	// The snapshot's rolled-up fields against its own per-node views.
	s := c.Snapshot()
	if len(s.PerNode) != 4 {
		t.Fatalf("snapshot has %d nodes, want 4", len(s.PerNode))
	}
	var shed, queued, hits, misses, warm, served uint64
	var depth, inflight int64
	var epoch uint64
	var hitUS, missUS float64
	backends := make(map[string]service.BackendCounts)
	latency := make(map[string]uint64)
	for _, ns := range s.PerNode {
		shed += ns.Shed
		queued += ns.Queued
		depth += ns.QueueDepth
		inflight += ns.InFlight
		epoch = max(epoch, ns.StatsEpoch)
		hits += ns.Hits
		misses += ns.Misses
		warm += ns.Hits + ns.Coalesced
		served += ns.Hits + ns.Misses + ns.Coalesced
		hitUS += ns.AvgHitMicros * float64(ns.Hits)
		missUS += ns.AvgMissMicros * float64(ns.Misses)
		for id, bc := range ns.Backends {
			agg := backends[id]
			agg.Routed += bc.Routed
			agg.Served += bc.Served
			agg.Hits += bc.Hits
			agg.Fallbacks += bc.Fallbacks
			backends[id] = agg
		}
		for k, q := range ns.Latency {
			latency[k] += q.Count
		}
	}
	if s.Shed != shed || s.Queued != queued || s.QueueDepth != depth || s.InFlight != inflight {
		t.Errorf("shed/queued/queue_depth/in_flight = %d/%d/%d/%d, per node %d/%d/%d/%d",
			s.Shed, s.Queued, s.QueueDepth, s.InFlight, shed, queued, depth, inflight)
	}
	if s.StatsEpoch != epoch || epoch < 2 {
		t.Errorf("stats_epoch = %d, per-node maximum %d (want ≥ 2)", s.StatsEpoch, epoch)
	}
	if !relEq(s.HitRate, float64(warm)/float64(served)) {
		t.Errorf("hit_rate = %v, per node %v", s.HitRate, float64(warm)/float64(served))
	}
	if !relEq(s.AvgHitMicros, hitUS/float64(hits)) || !relEq(s.AvgMissMicros, missUS/float64(misses)) {
		t.Errorf("avg_hit_us/avg_miss_us = %v/%v, per node %v/%v",
			s.AvgHitMicros, s.AvgMissMicros, hitUS/float64(hits), missUS/float64(misses))
	}
	if len(s.Backends) != len(backends) {
		t.Errorf("backends = %v, per node %v", s.Backends, backends)
	}
	for id, bc := range backends {
		if s.Backends[id] != bc {
			t.Errorf("backend %s = %+v, per node %+v", id, s.Backends[id], bc)
		}
	}
	if len(s.Latency) != len(latency) {
		t.Errorf("latency keys %v, per node %v", keysOf(s.Latency), latency)
	}
	for k, n := range latency {
		if s.Latency[k].Count != n {
			t.Errorf("latency %s count = %d, per node %d", k, s.Latency[k].Count, n)
		}
	}
}
