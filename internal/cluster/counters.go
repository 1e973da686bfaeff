package cluster

import (
	"encoding/json"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/service"
)

// atomicCounter is a tiny wrapper so counter structs stay copy-proof and
// the call sites short.
type atomicCounter struct{ v atomic.Uint64 }

func (c *atomicCounter) add(n uint64) { c.v.Add(n) }
func (c *atomicCounter) load() uint64 { return c.v.Load() }

// counters is the coordinator's own instrumentation, distinct from each
// node's service.Counters: it counts routing-layer events (failovers,
// replication, rebalancing, membership changes) that no single node can
// see.
type counters struct {
	requests   atomicCounter
	failovers  atomicCounter
	overflows  atomicCounter
	replicated atomicCounter
	rebalanced atomicCounter
	deaths     atomicCounter
	rejoins    atomicCounter
	errors     atomicCounter
	canceled   atomicCounter

	// The guarded-transport layer: retries counts extra attempts after a
	// transport fault; breakerSkips counts owners skipped because their
	// circuit breaker was open (distinct from failovers — the skip happens
	// before any call is made); breakerForced counts calls pushed through an
	// open breaker because every owner was open; transportCalls/Fails count
	// individual attempts and their transport-level failures; quarantined
	// counts ring re-entries deferred because the node was flapping.
	retries        atomicCounter
	breakerSkips   atomicCounter
	breakerForced  atomicCounter
	transportCalls atomicCounter
	transportFails atomicCounter
	quarantined    atomicCounter
}

// NodeStats answers the stats RPC: one node's service counters, cache size
// and latency histograms in serializable form. It is how a remote
// (node-mode) peer's instrumentation reaches the coordinator's /v1/stats
// rollup and /metrics exposition.
type NodeStats struct {
	Snapshot  service.Snapshot                 `json:"snapshot"`
	CacheLen  int                              `json:"cache_len"`
	Latencies map[string]obs.HistogramSnapshot `json:"latencies,omitempty"`
}

// NodeSnapshot is one node's view in a cluster snapshot: its service
// counters plus cluster-level health.
type NodeSnapshot struct {
	service.Snapshot
	CacheLen int  `json:"cache_len"`
	Dead     bool `json:"dead"`
}

// Snapshot is a point-in-time copy of the whole cluster's instrumentation:
// coordinator counters, membership, and per-node service counters.
type Snapshot struct {
	Requests  uint64 `json:"requests"`
	Failovers uint64 `json:"failovers"`
	// Overflows counts requests a replica served because every earlier
	// owner shed them (admission control), with no node unreachable — the
	// hot-shard relief valve, distinct from failure-driven failovers.
	Overflows  uint64 `json:"overflows"`
	Replicated uint64 `json:"replicated_entries"`
	Rebalanced uint64 `json:"rebalanced_entries"`
	Deaths     uint64 `json:"deaths"`
	Rejoins    uint64 `json:"rejoins"`
	Errors     uint64 `json:"errors"`
	// Canceled counts requests whose caller context was cancelled (client
	// disconnects included); they are not errors.
	Canceled uint64 `json:"canceled"`
	// Retries counts extra transport attempts made after a fault;
	// TransportCalls and TransportFails count individual attempts and the
	// transport-level failures among them.
	Retries        uint64 `json:"retries"`
	TransportCalls uint64 `json:"transport_calls"`
	TransportFails uint64 `json:"transport_fails"`
	// BreakerSkips counts owners bypassed without a call because their
	// circuit breaker was open — routing went straight to the next replica.
	// Distinct from Failovers (a call failed first) and Overflows (the node
	// shed the request itself). BreakerForced counts calls pushed through an
	// open breaker because every owner in the sweep was open; BreakerOpens
	// sums closed→open transitions across all nodes.
	BreakerSkips  uint64 `json:"breaker_skips"`
	BreakerForced uint64 `json:"breaker_forced"`
	BreakerOpens  uint64 `json:"breaker_opens"`
	// Breakers maps each node to its breaker state (closed/open/half_open).
	Breakers map[string]string `json:"breakers,omitempty"`
	// Quarantined counts ring re-entries deferred because the node was
	// flapping (repeated death/rejoin inside the flap window).
	Quarantined uint64 `json:"quarantined"`
	// Shed, Queued, QueueDepth and InFlight sum the per-node admission-
	// control counters: requests rejected with ErrOverloaded, requests that
	// entered a worker queue, the queue slots occupied and the node-side
	// requests in progress at snapshot time.
	Shed       uint64 `json:"shed"`
	Queued     uint64 `json:"queued"`
	QueueDepth int64  `json:"queue_depth"`
	InFlight   int64  `json:"in_flight"`

	// StatsEpoch is the highest catalog stats epoch any node reports (a
	// node a bump did not reach lags behind until the next one).
	StatsEpoch uint64 `json:"stats_epoch"`

	Replicas   int      `json:"replicas"`
	AliveNodes []string `json:"alive_nodes"`
	DeadNodes  []string `json:"dead_nodes,omitempty"`

	// HitRate aggregates hits+coalesced over served requests across all
	// nodes — the cluster-wide warm ratio. AvgHitMicros and AvgMissMicros
	// are the request-weighted means of the per-node service times.
	HitRate       float64 `json:"hit_rate"`
	AvgHitMicros  float64 `json:"avg_hit_us"`
	AvgMissMicros float64 `json:"avg_miss_us"`

	// Latency holds cluster-wide latency quantiles, merged bucket-wise from
	// every node's histograms (lossless — same error bound as one node),
	// keyed "hit:<backend>", "miss:<backend>", "shed" and "queue_wait".
	Latency map[string]service.Quantiles `json:"latency,omitempty"`

	// Backends sums the per-backend counters over every node, so the
	// front door reports which execution substrate (cpu-seq,
	// cpu-parallel, gpu, heuristic) produced the cluster's plans.
	Backends map[string]service.BackendCounts `json:"backends"`

	PerNode map[string]NodeSnapshot `json:"per_node"`
}

// String renders the snapshot as JSON.
func (s Snapshot) String() string {
	b, err := json.Marshal(s)
	if err != nil {
		return "{}"
	}
	return string(b)
}
