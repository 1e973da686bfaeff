// Command mpdp-serve runs the optimizer as a service: a line protocol over
// stdin (default) or the shared versioned HTTP surface (internal/httpapi)
// that accepts one SQL statement in the internal/sql dialect per
// line/request, binds it against the built-in MusicBrainz schema and
// answers with the chosen plan's cost, algorithm and cache status. See
// SERVICE.md for the protocol and API.md for the wire spec.
//
// Usage:
//
//	echo "SELECT * FROM artist a, release r ... WHERE ..." | mpdp-serve
//	mpdp-serve -http :8080 &
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
// In stdin mode, lines starting with # are ignored and the directive
// ".stats" prints the counters. In HTTP mode, SIGINT/SIGTERM shuts down
// gracefully: in-flight optimizations drain (bounded by -drain) before the
// service closes, and a client that disconnects mid-request cancels its
// in-flight optimization.
package main

import (
	"bufio"
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/internal/sql"
)

// stdinServer drives the line protocol; the HTTP surface is the shared
// internal/httpapi mux.
type stdinServer struct {
	svc     *service.Service
	schema  sql.Schema
	explain bool
}

// readLine reads one newline-terminated line of at most
// httpapi.MaxStatementBytes, the bound HTTP bodies share.
// Longer lines are discarded to the next newline and reported as tooLong,
// so one oversized statement yields one error, not a dead server.
func readLine(r *bufio.Reader) (line string, tooLong bool, err error) {
	var b strings.Builder
	for {
		chunk, pref, err := r.ReadLine()
		if err != nil {
			return b.String(), false, err
		}
		if b.Len()+len(chunk) > httpapi.MaxStatementBytes {
			for pref {
				if _, pref, err = r.ReadLine(); err != nil {
					break
				}
			}
			return "", true, nil
		}
		b.Write(chunk)
		if !pref {
			return b.String(), false, nil
		}
	}
}

func (s *stdinServer) serveStdin(in io.Reader, out io.Writer) error {
	rd := bufio.NewReader(in)
	for {
		raw, tooLong, err := readLine(rd)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if tooLong {
			fmt.Fprintf(out, "error: statement exceeds %d bytes\n", httpapi.MaxStatementBytes)
			continue
		}
		line := strings.TrimSpace(raw)
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
			continue
		case line == ".stats":
			fmt.Fprintln(out, s.svc.Counters().String())
			continue
		}
		bound, err := sql.Compile(line, s.schema)
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			continue
		}
		res, err := s.svc.Optimize(context.Background(), bound.Query)
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			continue
		}
		fmt.Fprintf(out, "cost=%.6g rows=%.6g rels=%d alg=%s backend=%s shape=%s hit=%v coalesced=%v elapsed=%.1fus\n",
			res.Plan.Cost, res.Plan.Rows, bound.Query.N(), res.Algorithm, res.Backend, res.Shape,
			res.CacheHit, res.Coalesced, float64(res.Elapsed.Nanoseconds())/1e3)
		if s.explain {
			fmt.Fprint(out, core.Explain(bound.Query, res.Plan))
		}
	}
}

func main() {
	var (
		httpAddr   = flag.String("http", "", "serve HTTP on this address instead of stdin (e.g. :8080)")
		cacheCap   = flag.Int("cache", 0, "plan cache capacity in entries (0 = 4096)")
		shards     = flag.Int("shards", 0, "plan cache shard count (0 = 16)")
		workers    = flag.Int("workers", 0, "optimization workers (0 = GOMAXPROCS)")
		threads    = flag.Int("threads", 0, "CPU threads per optimization (0 = all)")
		timeout    = flag.Duration("timeout", 30*time.Second, "per-query optimization budget")
		k          = flag.Int("k", 0, "sub-problem bound of IDP2's windows (0 = 15)")
		gpuDevices = flag.Int("gpu-devices", 0, "simulated GPU device count (0 = 2)")
		explain    = flag.Bool("explain", false, "print the full plan tree in stdin mode")
		drain      = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight requests")
		queueDepth = flag.Int("queue-depth", 0, "admission queue depth (0 = 4x workers)")
		queueWait  = flag.Duration("queue-wait", 250*time.Millisecond, "max wait for a queue slot before shedding with 503 (0 = block indefinitely, <0 = shed immediately)")
		nodeRate   = flag.Float64("node-rate", 0, "admitted requests/sec for this instance, 0 = uncapped")
		quotaRate  = flag.Float64("quota-rate", 0, "per-tenant requests/sec quota on HTTP endpoints, 0 = disabled")
		quotaBurst = flag.Float64("quota-burst", 0, "per-tenant quota burst (0 = quota-rate/4, min 1)")
		slowMS     = flag.Float64("slow-query-ms", 0, "HTTP mode: log requests slower than this many ms as JSON lines (0 = off; the /v1/debug/slow ring is always on)")
		slowPath   = flag.String("slow-query-log", "", "slow-query log destination (empty = stderr)")
		debugAddr  = flag.String("debug-addr", "", "serve pprof and expvar on this separate address (e.g. localhost:6060)")
	)
	flag.Parse()

	svc := service.New(service.Config{
		CacheShards:   *shards,
		CacheCapacity: *cacheCap,
		Workers:       *workers,
		QueueDepth:    *queueDepth,
		Threads:       *threads,
		Timeout:       *timeout,
		K:             *k,
		GPU:           backend.GPUConfig{Devices: *gpuDevices},
		Admission: service.Admission{
			MaxQueueWait: *queueWait,
			RatePerSec:   *nodeRate,
		},
	})
	defer svc.Close()
	expvar.Publish("optimizer", svc.Counters())
	httpapi.StartDebugServer(*debugAddr)

	if *httpAddr == "" {
		srv := &stdinServer{svc: svc, schema: sql.MusicBrainzSchema(), explain: *explain}
		if err := srv.serveStdin(os.Stdin, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

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
	api.Handle("/debug/vars", expvar.Handler())

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
