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

	// route counts routing decisions, indexed like routed.
	route [len(routed)]atomic.Uint64

	// epochBumps counts stats-epoch advances and statsEpoch holds the
	// current epoch (starts at 1).
	epochBumps atomic.Uint64
	statsEpoch atomic.Uint64

	// Per-backend accounting, indexed by slot: which substrate actually
	// served requests (fallbacks land on heuristic), which substrate's
	// plans the cache re-served, and which substrate blew the budget. Where
	// the router sent requests is route, summed per backend by Snapshot.
	backends [len(backend.IDs)]backendCounters

	hitNanos  atomic.Uint64
	missNanos atomic.Uint64

	// lat holds the live latency histograms behind the avg_* fields: full
	// hit/miss distributions per backend plus shed and queue-wait, for
	// /metrics and the quantile rollup in /v1/stats.
	lat LatencySet
}

// backendCounters is one substrate's slice of the instrumentation.
type backendCounters struct {
	served    atomic.Uint64
	hits      atomic.Uint64
	fallbacks atomic.Uint64
}

// slotOf returns id's counter slot (slot i counts backend.IDs[i]), or -1
// for unknown IDs (e.g. entries imported from a peer without backend
// identity). Callers skip -1, which keeps the per-backend hit sum ≤ total
// hits.
func slotOf(id backend.ID) int {
	for i, b := range backend.IDs {
		if b == id {
			return i
		}
	}
	return -1
}

// slot returns the counters of id, or nil for unknown IDs.
func (c *Counters) slot(id backend.ID) *backendCounters {
	if i := slotOf(id); i >= 0 {
		return &c.backends[i]
	}
	return nil
}

// routed is every algorithm core.Route can name, in mpdp_route_total's
// order: its label there and its Snapshot field.
var routed = [...]struct {
	alg   core.Algorithm
	label string
	count func(*Snapshot) *uint64
}{
	{core.AlgDPCCP, "dpccp", func(s *Snapshot) *uint64 { return &s.RouteDPCCP }},
	{core.AlgMPDPParallel, "mpdp_cpu", func(s *Snapshot) *uint64 { return &s.RouteMPDP }},
	{core.AlgMPDPGPU, "mpdp_gpu", func(s *Snapshot) *uint64 { return &s.RouteMPDPGPU }},
	{core.AlgIDP2, "idp2", func(s *Snapshot) *uint64 { return &s.RouteIDP2 }},
	{core.AlgLinDP, "lindp", func(s *Snapshot) *uint64 { return &s.RouteLinDP }},
	{core.AlgUnionDP, "uniondp", func(s *Snapshot) *uint64 { return &s.RouteUnionDP }},
}

// BackendCounts is the snapshot of one backend's counters.
type BackendCounts struct {
	// Routed counts requests the router dispatched to this backend: the
	// sum of the route counts of the algorithms it runs (backend.Of).
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
	RouteLinDP   uint64 `json:"route_lindp"`
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
		Requests:   c.requests.Load(),
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Coalesced:  c.coalesced.Load(),
		Fallbacks:  c.fallbacks.Load(),
		Errors:     c.errors.Load(),
		Canceled:   c.canceled.Load(),
		Shed:       c.shed.Load(),
		Queued:     c.queued.Load(),
		QueueDepth: c.queueDepth.Load(),
		InFlight:   c.inflight.Load(),

		StatsEpoch: c.statsEpoch.Load(),
		EpochBumps: c.epochBumps.Load(),

		Backends: make(map[string]BackendCounts, len(backend.IDs)),
	}
	for i, id := range backend.IDs {
		b := &c.backends[i]
		s.Backends[string(id)] = BackendCounts{
			Served:    b.served.Load(),
			Hits:      b.hits.Load(),
			Fallbacks: b.fallbacks.Load(),
		}
	}
	for i, r := range routed {
		n := c.route[i].Load()
		*r.count(&s) = n
		id, _ := backend.Of(r.alg)
		b := s.Backends[string(id)]
		b.Routed += n
		s.Backends[string(id)] = b
	}
	s.deriveRates(float64(c.hitNanos.Load()), float64(c.missNanos.Load()), 1e3)
	s.Latency = c.lat.Quantiles()
	return s
}

// deriveRates sets HitRate from the counts, and AvgHitMicros and
// AvgMissMicros from the total hit and miss time, given in units of
// 1/perMicro µs.
func (s *Snapshot) deriveRates(hitTotal, missTotal, perMicro float64) {
	if served := s.Hits + s.Misses + s.Coalesced; served > 0 {
		s.HitRate = float64(s.Hits+s.Coalesced) / float64(served)
	}
	if s.Hits > 0 {
		s.AvgHitMicros = hitTotal / float64(s.Hits) / perMicro
	}
	if s.Misses > 0 {
		s.AvgMissMicros = missTotal / float64(s.Misses) / perMicro
	}
}

// SumSnapshots folds node snapshots into one, the cluster rollup: every
// counter and gauge and every backend's counts sum, StatsEpoch is the
// highest any node reports, HitRate is recomputed from the summed counts
// and AvgHitMicros/AvgMissMicros are the node means weighted by their hit
// and miss counts. Latency is left nil: quantiles do not sum, so callers
// merge the nodes' histograms (LatencySet.MergeExport) instead.
func SumSnapshots(snaps []Snapshot) Snapshot {
	t := Snapshot{Backends: make(map[string]BackendCounts)}
	var hitUS, missUS float64
	for _, s := range snaps {
		t.Requests += s.Requests
		t.Hits += s.Hits
		t.Misses += s.Misses
		t.Coalesced += s.Coalesced
		t.Fallbacks += s.Fallbacks
		t.Errors += s.Errors
		t.Canceled += s.Canceled
		t.Shed += s.Shed
		t.Queued += s.Queued
		t.QueueDepth += s.QueueDepth
		t.InFlight += s.InFlight
		for _, r := range routed {
			*r.count(&t) += *r.count(&s)
		}
		t.EpochBumps += s.EpochBumps
		t.StatsEpoch = max(t.StatsEpoch, s.StatsEpoch)
		for id, bc := range s.Backends {
			agg := t.Backends[id]
			agg.Routed += bc.Routed
			agg.Served += bc.Served
			agg.Hits += bc.Hits
			agg.Fallbacks += bc.Fallbacks
			t.Backends[id] = agg
		}
		hitUS += s.AvgHitMicros * float64(s.Hits)
		missUS += s.AvgMissMicros * float64(s.Misses)
	}
	t.deriveRates(hitUS, missUS, 1)
	return t
}

// WriteNodeMetrics emits every node metric family in Prometheus exposition
// format: the counters and gauges of s, cachePlans as mpdp_cache_plans and
// lat's histograms. It is the one writer of these families — a service
// passes its own counters, the cluster coordinator the sum of its nodes
// (SumSnapshots) and their merged histograms — so both binaries expose the
// same series. Metric names are documented in OBSERVABILITY.md; the
// golden-format test pins them.
func WriteNodeMetrics(mw *obs.MetricsWriter, s Snapshot, cachePlans int, lat *LatencySet) {
	mw.Counter("mpdp_requests_total", "Optimize calls accepted for processing.", nil, s.Requests)
	mw.Counter("mpdp_cache_hits_total", "Requests served from the plan cache.", nil, s.Hits)
	mw.Counter("mpdp_cache_misses_total", "Requests that ran an optimization.", nil, s.Misses)
	mw.Counter("mpdp_coalesced_total", "Requests that piggybacked on an identical in-flight optimization.", nil, s.Coalesced)
	mw.Counter("mpdp_fallbacks_total", "Exact optimizations that timed out and fell back to a heuristic.", nil, s.Fallbacks)
	mw.Counter("mpdp_errors_total", "Requests that failed.", nil, s.Errors)
	mw.Counter("mpdp_canceled_total", "Requests whose caller cancelled before a plan was produced.", nil, s.Canceled)
	mw.Counter("mpdp_shed_total", "Requests rejected by admission control.", nil, s.Shed)
	mw.Counter("mpdp_queued_total", "Requests that entered the worker queue.", nil, s.Queued)
	mw.Gauge("mpdp_queue_depth", "Worker-queue slots occupied.", nil, float64(s.QueueDepth))
	mw.Gauge("mpdp_inflight", "Optimize calls in progress.", nil, float64(s.InFlight))

	mw.Counter("mpdp_stats_epoch_bumps_total", "Catalog stats epoch advances.", nil, s.EpochBumps)
	mw.Gauge("mpdp_stats_epoch", "Current catalog stats epoch.", nil, float64(s.StatsEpoch))

	for _, r := range routed {
		mw.Counter("mpdp_route_total", "Routing decisions by algorithm.", obs.Labels{"algorithm": r.label}, *r.count(&s))
	}

	for _, id := range backend.IDs {
		b, ok := s.Backends[string(id)]
		if !ok {
			continue
		}
		l := obs.Labels{"backend": string(id)}
		mw.Counter("mpdp_backend_routed_total", "Requests the router dispatched to each backend.", l, b.Routed)
		mw.Counter("mpdp_backend_served_total", "Optimizations each backend completed.", l, b.Served)
		mw.Counter("mpdp_backend_cache_hits_total", "Cache hits whose entry each backend produced.", l, b.Hits)
		mw.Counter("mpdp_backend_fallbacks_total", "Budget overruns per backend.", l, b.Fallbacks)
	}

	lat.WriteMetrics(mw)
	mw.Gauge("mpdp_cache_plans", "Plans resident in the cache.", nil, float64(cachePlans))
}

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
	if i := slotOf(id); i >= 0 {
		c.backends[i].hits.Add(1)
		c.lat.Hit[i].Record(d)
	}
}

func (c *Counters) observeMiss(d time.Duration, id backend.ID) {
	c.misses.Add(1)
	c.missNanos.Add(uint64(d))
	if i := slotOf(id); i >= 0 {
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

func (c *Counters) observeRoute(alg core.Algorithm) {
	for i := range routed {
		if routed[i].alg == alg {
			c.route[i].Add(1)
			break
		}
	}
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
