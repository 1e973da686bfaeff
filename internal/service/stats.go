package service

import (
	"encoding/json"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/obs"
)

// Counters is the service's expvar-style instrumentation: lock-free atomic
// counters updated on every request. It implements expvar.Var (String
// returns JSON), so a server can expose it with
// expvar.Publish("optimizer", svc.Counters()).
type Counters struct {
	requests  atomic.Uint64
	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	fallbacks atomic.Uint64
	errors    atomic.Uint64
	canceled  atomic.Uint64
	// shed counts requests rejected by admission control (rate cap, queue
	// wait budget, or deadline-aware shedding); queued counts requests that
	// entered the worker queue, queueDepth is the live gauge of slots
	// occupied right now, and inflight the live gauge of Optimize calls in
	// progress (queued, coalesced and executing alike).
	shed       atomic.Uint64
	queued     atomic.Uint64
	queueDepth atomic.Int64
	inflight   atomic.Int64

	routeDPCCP   atomic.Uint64
	routeMPDP    atomic.Uint64
	routeMPDPGPU atomic.Uint64
	routeIDP2    atomic.Uint64
	routeUnionDP atomic.Uint64

	// epochBumps counts stats-epoch advances and statsEpoch holds the
	// current epoch (starts at 1).
	epochBumps atomic.Uint64
	statsEpoch atomic.Uint64

	// Per-backend accounting, indexed by slot: where the router
	// sent requests, which substrate actually served them (fallbacks
	// land on heuristic), which substrate's plans the cache re-served,
	// and which substrate blew the budget.
	backends [numBackends]backendCounters

	hitNanos  atomic.Uint64
	missNanos atomic.Uint64

	// lat holds the live latency histograms behind the avg_* fields: full
	// hit/miss distributions per backend plus shed and queue-wait, for
	// /metrics and the quantile rollup in /v1/stats.
	lat LatencySet
}

// backendCounters is one substrate's slice of the instrumentation.
type backendCounters struct {
	routed    atomic.Uint64
	served    atomic.Uint64
	hits      atomic.Uint64
	fallbacks atomic.Uint64
}

// numBackends is the counter-array capacity; TestBackendSlotCoversRegistry
// pins it to len(backend.IDs()) so a new backend cannot silently lose its
// counters.
const numBackends = 4

// backendSlot derives each ID's counter slot from its position in the
// backend registry — one source of truth, no hand-maintained switch.
var backendSlot = func() map[backend.ID]int {
	m := make(map[backend.ID]int, len(backend.IDs()))
	for i, id := range backend.IDs() {
		m[id] = i
	}
	return m
}()

// slot returns the counters of id, or nil for unknown IDs (e.g. entries
// imported from a peer without backend identity) — callers skip nil, which
// keeps the per-backend hit sum ≤ total hits and makes every path,
// including Snapshot, panic-free by construction.
func (c *Counters) slot(id backend.ID) *backendCounters {
	if i, ok := slotIdx(id); ok {
		return &c.backends[i]
	}
	return nil
}

// slotIdx resolves a backend's counter-array index.
func slotIdx(id backend.ID) (int, bool) {
	i, ok := backendSlot[id]
	return i, ok && i < numBackends
}

// BackendCounts is the snapshot of one backend's counters.
type BackendCounts struct {
	// Routed counts requests the router dispatched to this backend.
	Routed uint64 `json:"routed"`
	// Served counts optimizations this backend completed (a heuristic
	// fallback run counts for heuristic, not for the backend that timed
	// out).
	Served uint64 `json:"served"`
	// Hits counts cache hits whose entry this backend originally produced.
	Hits uint64 `json:"hits"`
	// Fallbacks counts optimizations that exceeded the budget on this
	// backend and fell back to a heuristic.
	Fallbacks uint64 `json:"fallbacks"`
}

// Snapshot is a point-in-time copy of the counters with derived rates.
type Snapshot struct {
	Requests  uint64 `json:"requests"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Fallbacks uint64 `json:"fallbacks"`
	Errors    uint64 `json:"errors"`
	// Canceled counts requests whose caller context was cancelled (client
	// disconnects included) before a plan was produced.
	Canceled uint64 `json:"canceled"`
	// Shed counts requests rejected by admission control with ErrOverloaded.
	Shed uint64 `json:"shed"`
	// Queued counts requests that entered the worker queue; QueueDepth is
	// the number of queue slots occupied at snapshot time, InFlight the
	// number of Optimize calls in progress.
	Queued     uint64 `json:"queued"`
	QueueDepth int64  `json:"queue_depth"`
	InFlight   int64  `json:"in_flight"`

	RouteDPCCP   uint64 `json:"route_dpccp"`
	RouteMPDP    uint64 `json:"route_mpdp_cpu"`
	RouteMPDPGPU uint64 `json:"route_mpdp_gpu"`
	RouteIDP2    uint64 `json:"route_idp2"`
	RouteUnionDP uint64 `json:"route_uniondp"`

	// StatsEpoch is the current catalog stats epoch and EpochBumps how many
	// times it advanced.
	StatsEpoch uint64 `json:"stats_epoch"`
	EpochBumps uint64 `json:"epoch_bumps"`
	// Deprecated: bench-compat; remove with the probes. Always 0.
	StaleProbes uint64 `json:"-"`
	// Deprecated: bench-compat; remove with the probes. Always 0.
	RecostWins uint64 `json:"-"`

	// Backends breaks requests down by execution substrate, keyed by
	// backend ID (cpu-seq, cpu-parallel, gpu, heuristic).
	Backends map[string]BackendCounts `json:"backends"`

	HitRate       float64 `json:"hit_rate"`
	AvgHitMicros  float64 `json:"avg_hit_us"`
	AvgMissMicros float64 `json:"avg_miss_us"`

	// Latency holds quantiles of the live latency distributions, keyed
	// "hit:<backend>", "miss:<backend>", "shed" and "queue_wait"; empty
	// distributions are omitted.
	Latency map[string]Quantiles `json:"latency,omitempty"`
}

// Snapshot copies the counters. Each counter is read atomically; the set is
// not one consistent cut, which is fine for monitoring.
func (c *Counters) Snapshot() Snapshot {
	s := Snapshot{
		Requests:     c.requests.Load(),
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Coalesced:    c.coalesced.Load(),
		Fallbacks:    c.fallbacks.Load(),
		Errors:       c.errors.Load(),
		Canceled:     c.canceled.Load(),
		Shed:         c.shed.Load(),
		Queued:       c.queued.Load(),
		QueueDepth:   c.queueDepth.Load(),
		InFlight:     c.inflight.Load(),
		RouteDPCCP:   c.routeDPCCP.Load(),
		RouteMPDP:    c.routeMPDP.Load(),
		RouteMPDPGPU: c.routeMPDPGPU.Load(),
		RouteIDP2:    c.routeIDP2.Load(),
		RouteUnionDP: c.routeUnionDP.Load(),

		StatsEpoch: c.statsEpoch.Load(),
		EpochBumps: c.epochBumps.Load(),

		Backends: make(map[string]BackendCounts, numBackends),
	}
	for _, id := range backend.IDs() {
		b := c.slot(id)
		if b == nil {
			continue
		}
		s.Backends[string(id)] = BackendCounts{
			Routed:    b.routed.Load(),
			Served:    b.served.Load(),
			Hits:      b.hits.Load(),
			Fallbacks: b.fallbacks.Load(),
		}
	}
	if served := s.Hits + s.Misses + s.Coalesced; served > 0 {
		s.HitRate = float64(s.Hits+s.Coalesced) / float64(served)
	}
	if s.Hits > 0 {
		s.AvgHitMicros = float64(c.hitNanos.Load()) / float64(s.Hits) / 1e3
	}
	if s.Misses > 0 {
		s.AvgMissMicros = float64(c.missNanos.Load()) / float64(s.Misses) / 1e3
	}
	s.Latency = c.lat.Quantiles()
	return s
}

// MergeLatencies adds this counter set's latency histograms into dst — the
// cluster coordinator's rollup primitive.
func (c *Counters) MergeLatencies(dst *LatencySet) { dst.Merge(&c.lat) }

// ExportLatencies renders the latency histograms in serializable form, for
// node-mode peers answering the coordinator's stats RPC.
func (c *Counters) ExportLatencies() map[string]obs.HistogramSnapshot { return c.lat.Export() }

// String renders the snapshot as JSON; it makes Counters an expvar.Var.
func (c *Counters) String() string {
	b, err := json.Marshal(c.Snapshot())
	if err != nil {
		return "{}"
	}
	return string(b)
}

func (c *Counters) observeQueued() {
	c.queued.Add(1)
	c.queueDepth.Add(1)
}

func (c *Counters) observeHit(d time.Duration, id backend.ID) {
	c.hits.Add(1)
	c.hitNanos.Add(uint64(d))
	if i, ok := slotIdx(id); ok {
		c.backends[i].hits.Add(1)
		c.lat.Hit[i].Record(d)
	}
}

func (c *Counters) observeMiss(d time.Duration, id backend.ID) {
	c.misses.Add(1)
	c.missNanos.Add(uint64(d))
	if i, ok := slotIdx(id); ok {
		c.lat.Miss[i].Record(d)
	}
}

func (c *Counters) observeShed(d time.Duration) {
	c.shed.Add(1)
	c.lat.Shed.Record(d)
}

func (c *Counters) observeQueueWait(d time.Duration) {
	c.lat.QueueWait.Record(d)
}

func (c *Counters) observeRoute(alg core.Algorithm, id backend.ID) {
	switch alg {
	case core.AlgDPCCP:
		c.routeDPCCP.Add(1)
	case core.AlgMPDPParallel:
		c.routeMPDP.Add(1)
	case core.AlgMPDPGPU:
		c.routeMPDPGPU.Add(1)
	case core.AlgIDP2:
		c.routeIDP2.Add(1)
	case core.AlgUnionDP:
		c.routeUnionDP.Add(1)
	}
	if b := c.slot(id); b != nil {
		b.routed.Add(1)
	}
}

// writeMetrics emits every counter, gauge and latency histogram in
// Prometheus exposition format. Metric names are documented in
// OBSERVABILITY.md; the golden-format test pins them.
func (c *Counters) writeMetrics(mw *obs.MetricsWriter) {
	mw.Counter("mpdp_requests_total", "Optimize calls accepted for processing.", nil, c.requests.Load())
	mw.Counter("mpdp_cache_hits_total", "Requests served from the plan cache.", nil, c.hits.Load())
	mw.Counter("mpdp_cache_misses_total", "Requests that ran an optimization.", nil, c.misses.Load())
	mw.Counter("mpdp_coalesced_total", "Requests that piggybacked on an identical in-flight optimization.", nil, c.coalesced.Load())
	mw.Counter("mpdp_fallbacks_total", "Exact optimizations that timed out and fell back to a heuristic.", nil, c.fallbacks.Load())
	mw.Counter("mpdp_errors_total", "Requests that failed.", nil, c.errors.Load())
	mw.Counter("mpdp_canceled_total", "Requests whose caller cancelled before a plan was produced.", nil, c.canceled.Load())
	mw.Counter("mpdp_shed_total", "Requests rejected by admission control.", nil, c.shed.Load())
	mw.Counter("mpdp_queued_total", "Requests that entered the worker queue.", nil, c.queued.Load())
	mw.Gauge("mpdp_queue_depth", "Worker-queue slots occupied.", nil, float64(c.queueDepth.Load()))
	mw.Gauge("mpdp_inflight", "Optimize calls in progress.", nil, float64(c.inflight.Load()))

	mw.Counter("mpdp_stats_epoch_bumps_total", "Catalog stats epoch advances.", nil, c.epochBumps.Load())
	mw.Gauge("mpdp_stats_epoch", "Current catalog stats epoch.", nil, float64(c.statsEpoch.Load()))

	const routeHelp = "Routing decisions by algorithm."
	mw.Counter("mpdp_route_total", routeHelp, obs.Labels{"algorithm": "dpccp"}, c.routeDPCCP.Load())
	mw.Counter("mpdp_route_total", routeHelp, obs.Labels{"algorithm": "mpdp_cpu"}, c.routeMPDP.Load())
	mw.Counter("mpdp_route_total", routeHelp, obs.Labels{"algorithm": "mpdp_gpu"}, c.routeMPDPGPU.Load())
	mw.Counter("mpdp_route_total", routeHelp, obs.Labels{"algorithm": "idp2"}, c.routeIDP2.Load())
	mw.Counter("mpdp_route_total", routeHelp, obs.Labels{"algorithm": "uniondp"}, c.routeUnionDP.Load())

	for _, id := range backend.IDs() {
		i, ok := slotIdx(id)
		if !ok {
			continue
		}
		b := &c.backends[i]
		l := obs.Labels{"backend": string(id)}
		mw.Counter("mpdp_backend_routed_total", "Requests the router dispatched to each backend.", l, b.routed.Load())
		mw.Counter("mpdp_backend_served_total", "Optimizations each backend completed.", l, b.served.Load())
		mw.Counter("mpdp_backend_cache_hits_total", "Cache hits whose entry each backend produced.", l, b.hits.Load())
		mw.Counter("mpdp_backend_fallbacks_total", "Budget overruns per backend.", l, b.fallbacks.Load())
	}

	c.lat.WriteMetrics(mw)
}

func (c *Counters) observeServed(id backend.ID) {
	if b := c.slot(id); b != nil {
		b.served.Add(1)
	}
}

func (c *Counters) observeFallback(id backend.ID) {
	c.fallbacks.Add(1)
	if b := c.slot(id); b != nil {
		b.fallbacks.Add(1)
	}
}
