package obs

import (
	"context"
	"sync"
	"time"
)

// The span taxonomy: every phase name the serving stack records. Wall-time
// phases partition a request's critical path — their durations sum to the
// request's wall time (within the cost of the unspanned glue between them).
// The gpu_* phases are *modeled* device time from gpusim's accounting
// (Span.Sim is true) and deliberately do not count toward that sum: on the
// simulated backend the device work model and the wall clock are different
// clocks.
const (
	// PhaseCompile is SQL parsing/binding or wire-query materialization.
	PhaseCompile = "compile"
	// PhaseCacheProbe is canonical fingerprinting plus the plan-cache
	// lookup.
	PhaseCacheProbe = "cache_probe"
	// PhaseQueueWait is the time a cold request sat in the admission queue
	// before a worker picked it up.
	PhaseQueueWait = "queue_wait"
	// PhaseCoalesceWait is a follower's wait on an identical in-flight
	// optimization.
	PhaseCoalesceWait = "coalesce_wait"
	// PhaseRoute is shape detection plus the routing decision: the
	// algorithm, which names its backend.
	PhaseRoute = "route"
	// PhaseEnumerate is the backend optimization run itself — the DP
	// enumeration (including any heuristic fallback retry).
	PhaseEnumerate = "enumerate"
	// PhaseMaterialize is plan-tree materialization and remapping: from the
	// worker arena into the canonical cache entry, and from the entry into
	// the caller's relation-index space.
	PhaseMaterialize = "materialize"
	// PhaseReplicate is the cluster coordinator pushing a fresh entry to
	// replica owners on the request path.
	PhaseReplicate = "replicate"

	// Modeled GPU phases (Span.Sim), from gpusim's device accounting.
	// Warp-lockstep compute is additionally broken down per kernel as
	// "gpu_" + the kernel name (gpu_unrank, gpu_filter, gpu_evaluate,
	// gpu_prune, gpu_scatter — see gpusim.Phase).
	PhaseGPULaunch   = "gpu_launch"   // kernel-launch latency
	PhaseGPUTransfer = "gpu_transfer" // per-level host↔device round trips
	PhaseGPUMemory   = "gpu_memory"   // global-memory transactions
)

// Span is one recorded phase of a request.
type Span struct {
	// Phase names the recorded phase (see the Phase* constants).
	Phase string `json:"phase"`
	// StartUS is the span's start offset from the trace's start, in
	// microseconds.
	StartUS float64 `json:"start_us"`
	// DurUS is the span's duration in microseconds. For Sim spans it is
	// modeled device time, not wall time.
	DurUS float64 `json:"dur_us"`
	// Sim marks modeled (simulated-device) time that does not count toward
	// the wall-time decomposition.
	Sim bool `json:"sim,omitempty"`
}

// Trace is a per-request span recorder. Create one with NewTrace, attach it
// to the request context with WithTrace, and recover it anywhere below with
// FromContext. All methods are safe for concurrent use (a worker goroutine
// and the caller may record into the same trace) and nil-receiver safe, so
// instrumented code needs no nil checks.
type Trace struct {
	requestID string
	start     time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTrace starts a trace anchored at time.Now. requestID joins the trace
// against the serving layer's logs (the httpapi layer passes its
// X-Request-Id).
func NewTrace(requestID string) *Trace {
	return &Trace{requestID: requestID, start: time.Now()}
}

// RequestID returns the ID the trace was created with ("" on nil traces).
func (t *Trace) RequestID() string {
	if t == nil {
		return ""
	}
	return t.requestID
}

// WallUS returns the microseconds elapsed since the trace started.
func (t *Trace) WallUS() float64 {
	if t == nil {
		return 0
	}
	return float64(time.Since(t.start).Nanoseconds()) / 1e3
}

// StartSpan opens a wall-time span for phase and returns the closer that
// records it; defer it or call it at the phase boundary. On a nil trace the
// closer is a no-op.
func (t *Trace) StartSpan(phase string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.add(phase, start, time.Since(start), false) }
}

// ObserveSince records a wall-time span for phase that began at start and
// ends now.
func (t *Trace) ObserveSince(phase string, start time.Time) {
	if t == nil {
		return
	}
	t.add(phase, start, time.Since(start), false)
}

// ObserveSim records a modeled-time span (simulated device work, not wall
// time); its start offset is the moment of recording.
func (t *Trace) ObserveSim(phase string, d time.Duration) {
	if t == nil {
		return
	}
	t.add(phase, time.Now(), d, true)
}

func (t *Trace) add(phase string, start time.Time, d time.Duration, sim bool) {
	s := Span{
		Phase:   phase,
		StartUS: float64(start.Sub(t.start).Nanoseconds()) / 1e3,
		DurUS:   float64(d.Nanoseconds()) / 1e3,
		Sim:     sim,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans, in recording order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// WallSpanSumUS sums the durations of the wall-time (non-Sim) spans — the
// quantity that should approximate WallUS when every phase of the critical
// path is instrumented.
func (t *Trace) WallSpanSumUS() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	for _, s := range t.spans {
		if !s.Sim {
			sum += s.DurUS
		}
	}
	return sum
}

type traceKey struct{}

// WithTrace attaches t to the context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the trace on ctx, or nil. A nil return is safe to use
// with every Trace method.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
