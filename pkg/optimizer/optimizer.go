// Package optimizer is the public SDK of the MPDP join-order optimizer: a
// stable, embeddable surface over the repository's internal enumeration,
// serving and cluster layers.
//
// The entry point is the Optimizer interface — a single context-first
// Optimize call — with three drivers:
//
//   - InProcess runs the algorithms directly in the caller's process
//     (wrapping internal/core): no cache, full per-call algorithm control.
//   - Served runs a concurrent optimizer service in-process (wrapping
//     internal/service): canonical-fingerprint plan cache, request
//     coalescing, adaptive (algorithm, backend) routing.
//   - Remote talks to one or more mpdp-serve / mpdp-cluster servers over
//     the versioned /v1 HTTP API, hedging across endpoints.
//
// Queries are built with NewQueryBuilder (or a shared Catalog), compiled
// from SQL with CompileSQL, or generated with the workload constructors.
// A built Query is immutable, and that is load-bearing: it keeps its
// canonical fingerprint and encoded wire body after first use, so a caller
// that holds on to a *Query and asks it again — the serving workload — pays
// for neither twice, from any number of goroutines. Cancelling the context passed to Optimize aborts the in-flight
// enumeration promptly on every driver, including across the wire.
//
// See API.md for the wire specification and a quickstart.
package optimizer

import (
	"context"
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Algorithm names one of the registered join-order optimizers.
type Algorithm string

// The algorithm registry. The constants mirror the internal registry; the
// wire API and the SDK accept exactly these names.
const (
	// Exact, sequential.
	AlgDPSize Algorithm = "dpsize" // PostgreSQL's standard DP
	AlgDPSub  Algorithm = "dpsub"
	AlgDPCCP  Algorithm = "dpccp"
	AlgMPDP   Algorithm = "mpdp"
	// Exact, CPU-parallel.
	AlgMPDPParallel Algorithm = "mpdp-cpu"
	// Exact, GPU execution model.
	AlgDPSizeGPU Algorithm = "dpsize-gpu"
	AlgDPSubGPU  Algorithm = "dpsub-gpu"
	AlgMPDPGPU   Algorithm = "mpdp-gpu"
	// Heuristics.
	AlgGOO     Algorithm = "goo"
	AlgIKKBZ   Algorithm = "ikkbz"
	AlgLinDP   Algorithm = "lindp"
	AlgIDP2    Algorithm = "idp2-mpdp"
	AlgUnionDP Algorithm = "uniondp-mpdp"
	// AlgAuto picks the paper's recommended policy for the query size.
	AlgAuto Algorithm = "auto"
)

// Algorithms lists every registered optimizer name.
func Algorithms() []Algorithm {
	out := make([]Algorithm, 0, len(core.Algorithms()))
	for _, a := range core.Algorithms() {
		out = append(out, Algorithm(a))
	}
	return out
}

// IsExact reports whether the algorithm guarantees the optimal plan.
func (a Algorithm) IsExact() bool { return core.Algorithm(a).IsExact() }

// Valid reports whether a names a registered algorithm.
func (a Algorithm) Valid() bool {
	for _, b := range core.Algorithms() {
		if core.Algorithm(a) == b {
			return true
		}
	}
	return false
}

// Result is the outcome of one optimization, uniform across the three
// drivers. Cost and Fingerprint are always set; the enumeration counters
// (Evaluated, CCPPairs) are reported by the local drivers only.
type Result struct {
	// Cost and Rows of the chosen plan under the paper's cost model.
	Cost float64
	Rows float64
	// Algorithm that produced the plan and the execution Backend it ran on
	// (cpu-seq, cpu-parallel, gpu, heuristic; empty for InProcess runs of
	// explicitly chosen algorithms).
	Algorithm Algorithm
	Backend   string
	// Shape is the detected join-graph shape (chain, star, clique, tree,
	// general; empty for InProcess).
	Shape string
	// Fingerprint is the canonical join-graph fingerprint: the cache
	// identity shared by isomorphic queries with identical statistics.
	Fingerprint string
	// CacheHit/Coalesced/FellBack report the serving layers' behaviour.
	CacheHit  bool
	Coalesced bool
	FellBack  bool
	// Elapsed is the end-to-end latency observed by the driver.
	Elapsed time.Duration
	// Explain is the rendered plan tree, when requested with WithExplain.
	Explain string
	// Evaluated and CCPPairs are the paper's two enumeration counters
	// (local drivers only).
	Evaluated uint64
	CCPPairs  uint64
	// GPUDevices/GPUSimMS carry the simulated device work model when the
	// GPU backend produced the plan.
	GPUDevices int
	GPUSimMS   float64
	// StatsEpoch is the catalog stats epoch the plan was produced under
	// (serving drivers only).
	StatsEpoch uint64
	// Node and Failover are set when a Remote driver talked to a cluster.
	Node     string
	Failover bool
	// Trace is the request's phase breakdown, recorded when WithTrace was
	// passed (Served and Remote drivers; see OBSERVABILITY.md for the span
	// taxonomy). TraceWallUS is the wall time the trace covers.
	Trace       []TraceSpan
	TraceWallUS float64
}

// TraceSpan is one phase of a traced request: where the time went between
// the request entering the serving layer and its plan coming back. Spans
// with Sim set report modeled GPU time, not wall time.
type TraceSpan struct {
	// Phase names the pipeline stage (compile, cache_probe, queue_wait,
	// coalesce_wait, route, enumerate, materialize, replicate, gpu_*).
	Phase string `json:"phase"`
	// StartUS is the span's start relative to the trace's origin;
	// DurUS its duration. Both in microseconds.
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	// Sim marks modeled (simulated-GPU) time that did not occupy the
	// request's critical path wall-clock.
	Sim bool `json:"sim,omitempty"`
}

// traceSpans converts the internal span slice into the SDK's stable shape.
func traceSpans(spans []obs.Span) []TraceSpan {
	if len(spans) == 0 {
		return nil
	}
	out := make([]TraceSpan, len(spans))
	for i, s := range spans {
		out[i] = TraceSpan{Phase: s.Phase, StartUS: s.StartUS, DurUS: s.DurUS, Sim: s.Sim}
	}
	return out
}

// Optimizer is the single public optimization interface.
type Optimizer interface {
	// Optimize plans q. Cancelling ctx aborts the in-flight enumeration
	// promptly with the context's error. A nil ctx means
	// context.Background().
	Optimize(ctx context.Context, q *Query, opts ...Option) (*Result, error)
	// Close releases the driver's resources. Results remain valid.
	Close() error
}

// ErrServerRouted is returned when WithAlgorithm is passed to a driver
// whose algorithm choice is server-side (Served, Remote): the adaptive
// router picks the algorithm and backend per query shape.
var ErrServerRouted = errors.New("optimizer: algorithm selection is server-side for this driver; drop WithAlgorithm or use InProcess")

// callOptions collects the per-call options.
type callOptions struct {
	algorithm Algorithm
	timeout   time.Duration
	threads   int
	k         int
	explain   bool
	gpuDev    int
	trace     bool
	epoch     uint64
}

// Option configures one Optimize call.
type Option func(*callOptions)

// WithAlgorithm selects the algorithm explicitly (InProcess driver only;
// the serving drivers route server-side and reject it).
func WithAlgorithm(a Algorithm) Option { return func(o *callOptions) { o.algorithm = a } }

// WithTimeout bounds the optimization's wall-clock budget, independently
// of the context's deadline. On the Served driver the service budget
// applies instead; on Remote the timeout is enforced through the context.
func WithTimeout(d time.Duration) Option { return func(o *callOptions) { o.timeout = d } }

// WithThreads sets the CPU parallelism for the parallel algorithms (0:
// all cores).
func WithThreads(n int) Option { return func(o *callOptions) { o.threads = n } }

// WithK bounds the sub-problem size of IDP2/UnionDP (0: 15).
func WithK(k int) Option { return func(o *callOptions) { o.k = k } }

// WithExplain asks for the rendered plan tree in Result.Explain.
func WithExplain() Option { return func(o *callOptions) { o.explain = true } }

// WithGPUDevices sets the simulated device count for the *-gpu algorithms
// (InProcess driver only; 0 keeps the default).
func WithGPUDevices(n int) Option { return func(o *callOptions) { o.gpuDev = n } }

// WithStatsEpoch asserts the catalog stats epoch the caller planned
// against (as returned by CacheInfo or UpdateStats; epochs start at 1).
// The serving drivers reject the optimization with ErrStaleEpoch when the
// server's epoch has moved — statistics changed under the caller — which
// makes read-then-optimize sequences deterministic in tests. InProcess has
// no epoch and ignores it.
func WithStatsEpoch(epoch uint64) Option { return func(o *callOptions) { o.epoch = epoch } }

// WithTrace asks the serving drivers for the request's phase breakdown in
// Result.Trace: Served records it in-process, Remote forwards ?trace=1 so
// the server ships its spans back. InProcess has no serving pipeline and
// ignores it.
func WithTrace() Option { return func(o *callOptions) { o.trace = true } }

func applyOptions(opts []Option) callOptions {
	var o callOptions
	for _, f := range opts {
		f(&o)
	}
	return o
}
