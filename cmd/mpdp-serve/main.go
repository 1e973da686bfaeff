// Command mpdp-serve runs the optimizer as a service on the shared
// versioned HTTP surface (internal/httpapi): it accepts one SQL statement
// in the internal/sql dialect per request, binds it against the built-in
// MusicBrainz schema and answers with the chosen plan's cost, algorithm
// and cache status. See SERVICE.md for the service and API.md for the
// wire spec.
//
// Usage:
//
//	mpdp-serve &
//	curl -d "SELECT ..." localhost:8080/v1/optimize
//	curl -d '{"statements":["SELECT ..."]}' -H 'Content-Type: application/json' localhost:8080/v1/batch
//	curl localhost:8080/v1/stats
//	curl localhost:8080/v1/healthz
//	curl localhost:8080/v1/cache                  # cache summary + hottest entries
//	curl -X DELETE localhost:8080/v1/cache/$FP    # drop one plan
//	curl -X POST localhost:8080/v1/cache/flush
//	curl -X POST -H 'Content-Type: application/json' \
//	  -d '{"relations":[{"name":"release","rows":21000000}]}' \
//	  localhost:8080/v1/catalog/stats             # bump stats epoch, no flush
//
// SIGINT/SIGTERM shuts down gracefully: in-flight optimizations drain
// (bounded by -drain) before the service closes, and a client that
// disconnects mid-request cancels its in-flight optimization.
package main

import (
	"context"
	"expvar"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/httpapi"
	"repro/internal/service"
)

func main() {
	var (
		httpAddr   = flag.String("http", ":8080", "HTTP listen address")
		cacheCap   = flag.Int("cache", 0, "plan cache capacity in entries (0 = 4096)")
		workers    = flag.Int("workers", 0, "optimization workers (0 = GOMAXPROCS)")
		timeout    = flag.Duration("timeout", 30*time.Second, "per-query optimization budget")
		drain      = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight requests")
		queueDepth = flag.Int("queue-depth", 0, "admission queue depth (0 = 4x workers)")
		queueWait  = flag.Duration("queue-wait", 250*time.Millisecond, "max wait for a queue slot before shedding with 503 (0 = block indefinitely, <0 = shed immediately)")
		nodeRate   = flag.Float64("node-rate", 0, "admitted requests/sec for this instance, 0 = uncapped")
		quotaRate  = flag.Float64("quota-rate", 0, "per-tenant requests/sec quota on HTTP endpoints, 0 = disabled")
		quotaBurst = flag.Float64("quota-burst", 0, "per-tenant quota burst (0 = quota-rate/4, min 1)")
		slowMS     = flag.Float64("slow-query-ms", 0, "log requests slower than this many ms as JSON lines (0 = off; the /v1/debug/slow ring is always on)")
		slowPath   = flag.String("slow-query-log", "", "slow-query log destination (empty = stderr)")
		debugAddr  = flag.String("debug-addr", "", "serve pprof and expvar on this separate address (e.g. localhost:6060)")
	)
	flag.Parse()

	svc := service.New(service.Config{
		CacheCapacity: *cacheCap,
		Workers:       *workers,
		QueueDepth:    *queueDepth,
		Timeout:       *timeout,
		Admission: service.Admission{
			MaxQueueWait: *queueWait,
			RatePerSec:   *nodeRate,
		},
	})
	defer svc.Close()
	expvar.Publish("optimizer", svc.Counters())
	httpapi.StartDebugServer(*debugAddr)

	slowCfg, closeSlow, err := httpapi.SlowConfigFromFlags(*slowMS, *slowPath)
	if err != nil {
		log.Fatal(err)
	}
	defer closeSlow()
	api := httpapi.New(httpapi.ServiceEngine(svc), httpapi.Options{
		Quota: httpapi.QuotaConfig{
			RatePerSec: *quotaRate,
			Burst:      *quotaBurst,
		},
		Slow: slowCfg,
	})

	// SIGINT/SIGTERM drains in-flight optimizations instead of dropping
	// them: Shutdown stops accepting, waits for active handlers up to the
	// drain budget, then the deferred svc.Close releases the worker pool.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{Addr: *httpAddr, Handler: api.Mux()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("mpdp-serve: listening on %s (POST /v1/optimize /v1/batch /v1/cache/flush /v1/catalog/stats, GET /v1/stats /v1/healthz /v1/cache /metrics /v1/debug/slow, DELETE /v1/cache/{fp})", *httpAddr)
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("mpdp-serve: signal received, draining in-flight requests (budget %v)", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			log.Printf("mpdp-serve: drain incomplete: %v", err)
		}
	}
}
