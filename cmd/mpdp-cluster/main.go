// Command mpdp-cluster runs an N-node optimizer cluster behind one HTTP
// front door. Each node is a full optimizer-as-a-service instance
// (internal/service); the front door consistent-hashes every statement's
// canonical join-graph fingerprint to an owner node plus replicas, so
// isomorphic queries from any client warm and reuse the same plan-cache
// entry, and a node loss fails over to the replicas. The HTTP surface is
// the shared versioned mux of internal/httpapi — identical to mpdp-serve's
// — plus the cluster admin endpoints. See CLUSTER.md and API.md.
//
// Usage:
//
//	mpdp-cluster -http :8080 -nodes 4 -replicas 2 &
//	curl -d "SELECT ..." localhost:8080/v1/optimize
//	curl localhost:8080/v1/stats          # cluster + per-node counters
//	curl localhost:8080/cluster           # membership and ring summary
//	curl localhost:8080/v1/healthz
//	curl -X POST "localhost:8080/cluster/kill?node=node-1"   # crash a node
//	curl -X POST "localhost:8080/cluster/revive?node=node-1" # bring it back
//	curl -X POST localhost:8080/cluster/add                  # grow the ring
//	curl -X POST localhost:8080/v1/cache/flush               # invalidate all plans
//	curl localhost:8080/v1/cache                             # ring-wide cache summary
//	curl -X POST -d '{"relations":[{"name":"release","rows":21000000}]}' \
//	  -H 'Content-Type: application/json' localhost:8080/v1/catalog/stats
//
// The /v1/cache & /v1/catalog control surface (API.md) acts on every
// alive node: DELETE /v1/cache/{fingerprint} drops the plan wherever it
// is replicated, /v1/cache/flush empties every node's cache, and a stats
// update bumps the epoch ring-wide; nothing is flushed, since a query
// under the new statistics has a new fingerprint.
//
// Transports: by default the coordinator calls its nodes in-process
// (-transport=local). With -transport=http every node gets a real loopback
// TCP listener and all coordinator→node RPCs are JSON over HTTP — the same
// wire path a multi-process deployment uses. A separate process can run a
// single node with -mode=node and be joined to a coordinator via -peers:
//
//	mpdp-cluster -mode=node -node-id peer-0 -node-listen 127.0.0.1:9100 &
//	mpdp-cluster -transport=http -nodes 2 -peers peer-0=127.0.0.1:9100
//
// SIGINT/SIGTERM drains in-flight requests (bounded by -drain) before the
// nodes close; a client that disconnects mid-request cancels its in-flight
// optimization on the serving node.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/httpapi"
	"repro/internal/service"
)

// newAPI builds the shared HTTP surface plus the admin routes; split out of
// main so tests can drive the full mux through httptest.
func newAPI(c *cluster.Cluster, opts httpapi.Options) *httpapi.API {
	api := httpapi.New(httpapi.ClusterEngine(c), opts)
	httpapi.MountClusterAdmin(api, c)
	return api
}

func main() {
	var (
		httpAddr   = flag.String("http", ":8080", "HTTP front-door address")
		nodes      = flag.Int("nodes", 4, "initial node count")
		replicas   = flag.Int("replicas", 2, "copies of each plan-cache entry (owner included)")
		health     = flag.Duration("health", time.Second, "health-sweep interval (0 disables)")
		workers    = flag.Int("workers", 0, "optimization workers per node (0 = GOMAXPROCS/nodes)")
		cacheCap   = flag.Int("cache", 0, "plan-cache capacity per node (0 = 4096)")
		timeout    = flag.Duration("timeout", 30*time.Second, "per-query optimization budget")
		drain      = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight requests")
		queueDepth = flag.Int("queue-depth", 0, "admission queue depth per node (0 = 4x workers)")
		queueWait  = flag.Duration("queue-wait", 250*time.Millisecond, "max wait for a queue slot before a node sheds with 503 (0 = block indefinitely, <0 = shed immediately)")
		nodeRate   = flag.Float64("node-rate", 0, "admitted requests/sec per node, 0 = uncapped")
		quotaRate  = flag.Float64("quota-rate", 0, "per-tenant requests/sec quota at the front door, 0 = disabled")
		quotaBurst = flag.Float64("quota-burst", 0, "per-tenant quota burst (0 = quota-rate/4, min 1)")
		slowMS     = flag.Float64("slow-query-ms", 0, "log requests slower than this many ms as JSON lines (0 = off; the /v1/debug/slow ring is always on)")
		slowPath   = flag.String("slow-query-log", "", "slow-query log destination (empty = stderr)")
		debugAddr  = flag.String("debug-addr", "", "serve pprof and expvar on this separate address (e.g. localhost:6060)")
		transport  = flag.String("transport", "local", "coordinator→node transport: local (in-process) or http (JSON over loopback TCP)")
		mode       = flag.String("mode", "serve", "serve (coordinator + nodes) or node (one node server, no front door)")
		nodeID     = flag.String("node-id", "node-0", "node mode: this node's cluster ID")
		nodeListen = flag.String("node-listen", "127.0.0.1:0", "node mode: RPC listen address")
		peers      = flag.String("peers", "", "comma-separated id=addr list of remote node servers to join (requires -transport=http)")
	)
	flag.Parse()

	if *nodes < 1 {
		*nodes = 4 // mirror cluster.Config's default before the workers split
	}
	if *workers == 0 {
		div := *nodes
		if *mode == "node" {
			div = 1 // a node-mode process runs exactly one node
		}
		*workers = runtime.GOMAXPROCS(0) / div
		if *workers < 1 {
			*workers = 1
		}
	}
	svcCfg := service.Config{
		Workers:       *workers,
		QueueDepth:    *queueDepth,
		CacheCapacity: *cacheCap,
		Timeout:       *timeout,
		Admission: service.Admission{
			MaxQueueWait: *queueWait,
			RatePerSec:   *nodeRate,
		},
	}

	if *mode == "node" {
		runNode(*nodeID, *nodeListen, svcCfg)
		return
	}
	if *mode != "serve" {
		log.Fatalf("mpdp-cluster: unknown -mode=%s (serve or node)", *mode)
	}

	var tr cluster.Transport
	switch *transport {
	case "local":
		if *peers != "" {
			log.Fatal("mpdp-cluster: -peers requires -transport=http")
		}
		tr = cluster.NewLocalTransport()
	case "http":
		tr = cluster.NewHTTPTransport()
	default:
		log.Fatalf("mpdp-cluster: unknown -transport=%s (local or http)", *transport)
	}
	// The admin kill/revive verbs cut and heal links in this fault model.
	tr = cluster.NewFaultTransport(tr, 1)

	slowCfg, closeSlow, err := httpapi.SlowConfigFromFlags(*slowMS, *slowPath)
	if err != nil {
		log.Fatal(err)
	}
	defer closeSlow()
	c := cluster.New(cluster.Config{
		Nodes:          *nodes,
		Replicas:       *replicas,
		HealthInterval: *health,
		Transport:      tr,
		Service:        svcCfg,
	})
	defer c.Close()
	if *peers != "" {
		if err := joinPeers(c, *peers); err != nil {
			log.Fatal(err)
		}
	}

	api := newAPI(c, httpapi.Options{
		Quota: httpapi.QuotaConfig{
			RatePerSec: *quotaRate,
			Burst:      *quotaBurst,
		},
		Slow: slowCfg,
	})
	httpapi.StartDebugServer(*debugAddr)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{Addr: *httpAddr, Handler: api.Mux()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("mpdp-cluster: %d nodes, %d replicas, %s transport, front door on %s (/v1/*, /metrics, /cluster/*)",
		len(c.AliveNodes()), *replicas, *transport, *httpAddr)
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("mpdp-cluster: signal received, draining (budget %v)", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			log.Printf("mpdp-cluster: drain incomplete: %v", err)
		}
	}
}

// runNode serves a single cluster node over the RPC wire protocol: the
// whole process is one optimizer-as-a-service instance plus a /healthz. A
// coordinator adopts it with -peers id=addr (or cluster.JoinPeer).
func runNode(id, listen string, svcCfg service.Config) {
	ns := cluster.NewNodeServer(id, svcCfg)
	defer ns.Close()
	addr, err := ns.Start(listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("mpdp-cluster: node %s serving cluster RPC on %s", id, addr)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	log.Printf("mpdp-cluster: node %s shutting down", id)
}

// joinPeers parses "id=addr,id=addr" and joins each remote node server to
// the coordinator's ring.
func joinPeers(c *cluster.Cluster, spec string) error {
	for _, pair := range strings.Split(spec, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || id == "" || addr == "" {
			return fmt.Errorf("mpdp-cluster: bad -peers entry %q (want id=addr)", pair)
		}
		if err := c.JoinPeer(id, addr); err != nil {
			return fmt.Errorf("mpdp-cluster: join %s at %s: %w", id, addr, err)
		}
		log.Printf("mpdp-cluster: joined remote node %s at %s", id, addr)
	}
	return nil
}
