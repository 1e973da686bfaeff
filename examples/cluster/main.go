// Cluster demo: the optimizer scaled out to four nodes behind one HTTP
// front door, driven entirely through the public SDK's Remote client. The
// server side is exactly what cmd/mpdp-cluster runs: a cluster coordinator
// behind the shared versioned /v1 API. Concurrent clients replay a skewed
// stream of MusicBrainz join queries — repeats and isomorphic renamings —
// over HTTP; halfway through, one node is killed through the admin
// surface. Every request is still answered: the consistent-hash ring
// routes isomorphic queries to the same warm cache, replicas absorb the
// dead node's keys, and the failure detector rebalances the ring.
//
//	go run ./examples/cluster
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/pkg/optimizer"
)

func main() {
	// Server side: the same wiring as cmd/mpdp-cluster -transport=http, on
	// an ephemeral port. The HTTP transport gives every node a real
	// loopback TCP listener, so coordinator→node RPCs — including the
	// failover traffic after the kill below — cross actual sockets; the
	// FaultTransport around it is what the kill cuts.
	c := cluster.New(cluster.Config{
		Nodes:     4,
		Replicas:  2,
		Transport: cluster.NewFaultTransport(cluster.NewHTTPTransport(), 1),
		Service:   service.Config{Workers: 2},
	})
	defer c.Close()
	api := httpapi.New(httpapi.ClusterEngine(c), httpapi.Options{})
	httpapi.MountClusterAdmin(api, c)
	front := httptest.NewServer(api.Mux())
	defer front.Close()

	// Client side: the SDK Remote driver against the front door.
	client, err := optimizer.Remote(optimizer.RemoteConfig{Endpoints: []string{front.URL}})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// Twelve distinct 14-relation MusicBrainz join problems form the hot
	// working set.
	var hot []*optimizer.Query
	for seed := int64(1); seed <= 12; seed++ {
		hot = append(hot, optimizer.MusicBrainz(14, seed))
	}

	const clients, perClient = 8, 50
	victim := c.AliveNodes()[0]
	fmt.Printf("replaying %d requests from %d clients over %d distinct queries on %d nodes\n",
		clients*perClient, clients, len(hot), len(c.AliveNodes()))
	fmt.Printf("killing %s halfway through (via POST /cluster/kill)...\n\n", victim)

	var warm, failovers atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	var killOnce sync.Once
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perClient; i++ {
				if i == perClient/2 {
					killOnce.Do(func() {
						resp, err := http.Post(front.URL+"/cluster/kill?node="+victim, "", nil)
						if err != nil {
							log.Fatal(err)
						}
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							log.Fatalf("kill failed: %d", resp.StatusCode)
						}
					})
				}
				q := hot[rng.Intn(len(hot))]
				if rng.Intn(2) == 0 {
					q = q.Permuted(rng.Int63()) // isomorphic renaming
				}
				res, err := client.Optimize(context.Background(), q)
				if err != nil {
					log.Fatalf("client %d lost a request: %v", w, err)
				}
				if res.CacheHit || res.Coalesced {
					warm.Add(1)
				}
				if res.Failover {
					failovers.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	total := int64(clients * perClient)
	fmt.Printf("%d requests in %v (%.0f req/s), zero lost\n",
		total, wall.Round(time.Millisecond), float64(total)/wall.Seconds())
	fmt.Printf("client-observed warm ratio %.1f%%, %d failover responses\n",
		100*float64(warm.Load())/float64(total), failovers.Load())

	snap := c.Snapshot()
	fmt.Printf("cluster: %d failovers, %d entries replicated, %d rebalanced\n",
		snap.Failovers, snap.Replicated, snap.Rebalanced)
	fmt.Printf("membership: alive=%v dead=%v (deaths=%d)\n\n",
		snap.AliveNodes, snap.DeadNodes, snap.Deaths)

	if err := c.ReviveNode(victim); err != nil {
		log.Fatal(err)
	}
	c.CheckHealth()
	fmt.Printf("revived %s: alive=%v (rejoins=%d)\n",
		victim, c.AliveNodes(), c.Snapshot().Rejoins)
}
