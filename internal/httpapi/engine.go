package httpapi

import (
	"context"
	"io"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/service"
)

// Answer is one engine result: the service-level result plus the routing
// information only a cluster front door has.
type Answer struct {
	*service.Result
	Node     string
	Failover bool
}

// Health is an engine's liveness view.
type Health struct {
	OK bool
	// Status is "ok" or "down".
	Status string
	// AliveNodes is reported by cluster engines (-1 on single-node
	// engines, which omit the field from the healthz body).
	AliveNodes int
}

// Engine abstracts what the shared HTTP surface serves: a single
// optimizer-as-a-service instance (mpdp-serve) or a whole cluster behind
// its coordinator (mpdp-cluster). Both binaries mount the same API over
// their engine, which is what keeps the two wire surfaces identical.
type Engine interface {
	// Optimize plans a prepared statement under the fingerprint it carries;
	// ctx carries the HTTP client's cancellation.
	Optimize(ctx context.Context, p *service.Prepared) (*Answer, error)
	// StatsJSON returns the counters snapshot as a JSON object.
	StatsJSON() string
	// Health reports liveness for /v1/healthz.
	Health() Health
	// WriteMetrics emits the engine's live counters and latency histograms
	// in Prometheus exposition format (the /metrics body).
	WriteMetrics(w io.Writer) error
	// SlowLog returns the engine's ring of slowest requests (never nil).
	SlowLog() *obs.SlowLog
	// CacheInfo summarizes the engine's plan cache(s), listing the topN
	// hottest entries. Cluster engines aggregate over alive nodes.
	CacheInfo(topN int) service.CacheInfo
	// Invalidate drops the entry under the canonical fingerprint, reporting
	// whether it existed.
	Invalidate(key string) (found bool)
	// FlushCache drops every cached plan.
	FlushCache()
	// StatsEpoch returns the current catalog stats epoch.
	StatsEpoch() uint64
	// BumpStatsEpoch advances the catalog stats epoch, returning the epoch
	// before and after. Cached plans from older epochs are not flushed.
	BumpStatsEpoch() (old, cur uint64)
}

// serviceEngine adapts service.Service.
type serviceEngine struct{ svc *service.Service }

// ServiceEngine wraps a single-node service as an Engine.
func ServiceEngine(svc *service.Service) Engine { return serviceEngine{svc: svc} }

func (e serviceEngine) Optimize(ctx context.Context, p *service.Prepared) (*Answer, error) {
	res, err := e.svc.OptimizePrepared(ctx, p)
	if err != nil {
		return nil, err
	}
	return &Answer{Result: res}, nil
}

func (e serviceEngine) StatsJSON() string { return e.svc.Counters().String() }

func (e serviceEngine) Health() Health {
	return Health{OK: true, Status: "ok", AliveNodes: -1}
}

func (e serviceEngine) WriteMetrics(w io.Writer) error { return e.svc.WriteMetrics(w) }

func (e serviceEngine) SlowLog() *obs.SlowLog { return e.svc.SlowLog() }

func (e serviceEngine) CacheInfo(topN int) service.CacheInfo { return e.svc.CacheInfo(topN) }

func (e serviceEngine) Invalidate(key string) bool { return e.svc.Invalidate(key) }

func (e serviceEngine) FlushCache() { e.svc.Flush() }

func (e serviceEngine) StatsEpoch() uint64 { return e.svc.StatsEpoch() }

func (e serviceEngine) BumpStatsEpoch() (uint64, uint64) { return e.svc.BumpStatsEpoch() }

// clusterEngine adapts cluster.Cluster.
type clusterEngine struct{ c *cluster.Cluster }

// ClusterEngine wraps a cluster coordinator as an Engine.
func ClusterEngine(c *cluster.Cluster) Engine { return clusterEngine{c: c} }

func (e clusterEngine) Optimize(ctx context.Context, p *service.Prepared) (*Answer, error) {
	res, err := e.c.OptimizePrepared(ctx, p)
	if err != nil {
		return nil, err
	}
	return &Answer{Result: res.Result, Node: res.Node, Failover: res.Failover}, nil
}

func (e clusterEngine) StatsJSON() string { return e.c.Snapshot().String() }

func (e clusterEngine) WriteMetrics(w io.Writer) error { return e.c.WriteMetrics(w) }

func (e clusterEngine) SlowLog() *obs.SlowLog { return e.c.SlowLog() }

func (e clusterEngine) CacheInfo(topN int) service.CacheInfo { return e.c.CacheInfo(topN) }

func (e clusterEngine) Invalidate(key string) bool { return e.c.Invalidate(key) }

func (e clusterEngine) FlushCache() { e.c.FlushAll() }

func (e clusterEngine) StatsEpoch() uint64 { return e.c.StatsEpoch() }

func (e clusterEngine) BumpStatsEpoch() (uint64, uint64) { return e.c.BumpStatsEpochAll() }

func (e clusterEngine) Health() Health {
	alive := len(e.c.AliveNodes())
	h := Health{OK: alive > 0, Status: "ok", AliveNodes: alive}
	if alive == 0 {
		h.Status = "down"
	}
	return h
}
