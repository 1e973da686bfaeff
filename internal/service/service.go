package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/gpusim"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
)

// Config tunes a Service. The zero value selects the defaults listed on
// each field. Routing has no setting: every request takes core.Route, a
// constant ladder sized for the paper's evaluation — exact DP for small
// graphs, CPU-parallel MPDP for medium ones, GPU-MPDP for trees and sparse
// cyclic graphs up to 41 relations, and beyond that IDP2 for trees and
// unicyclic graphs, the adaptive LinDP for the rest. Every route runs at
// core.Optimize's defaults — all cores, IDP2's k = 15 and LinDP's window
// of 100 — and the GPU band on the backend's pool of two devices.
type Config struct {
	// CacheCapacity is the total number of cached plans (0: 4096).
	CacheCapacity int
	// Deprecated: bench-compat; remove with the probes. Ignored.
	SubCacheCapacity int
	// Workers is the optimization worker-pool size (0: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the pending-request queue; enqueueing blocks when
	// full, applying backpressure to callers (0: 4 * Workers).
	QueueDepth int
	// Admission tunes admission control: queue-wait shedding, deadline-
	// aware shedding and the node-level rate cap. The zero value keeps the
	// legacy blocking backpressure.
	Admission Admission
	// Timeout is the per-query optimization budget. An exact run that
	// exceeds it falls back to the shape's heuristic with a fresh budget
	// (0: 30s).
	Timeout time.Duration
}

// cacheShards is the plan cache's shard count.
const cacheShards = 16

func (c Config) withDefaults() Config {
	if c.CacheCapacity == 0 {
		c.CacheCapacity = 4096
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// Result is one service answer. Plan is always a private copy in the
// caller's relation-index space; callers may mutate it freely.
type Result struct {
	Plan      *plan.Node
	Algorithm core.Algorithm
	// Backend identifies the substrate that produced the plan (cpu-seq,
	// cpu-parallel, gpu, heuristic); cache hits report the backend of the
	// original optimization.
	Backend backend.ID
	Shape   core.Shape
	Stats   dp.Stats
	// GPU carries the multi-device work model when Backend == gpu. It is
	// shared with the cache entry: treat as read-only.
	GPU *gpusim.MultiStats
	// CacheHit is true when the plan came from the cache without waiting
	// on any optimization; Coalesced when the request piggybacked on an
	// identical in-flight optimization.
	CacheHit  bool
	Coalesced bool
	// FellBack is true when the exact route exceeded the time budget and
	// the plan came from the heuristic fallback.
	FellBack bool
	Elapsed  time.Duration
	// Key is the canonical fingerprint the request was cached under.
	Key string
	// Epoch is the catalog stats epoch the served plan was produced under.
	Epoch uint64
}

// ErrClosed is returned by Optimize after Close.
var ErrClosed = errors.New("service: closed")

// ErrOverloaded is returned when admission control sheds a request: the
// node-level rate cap is exhausted, the worker queue stayed full past
// Admission.MaxQueueWait, or the caller's deadline cannot outlive the
// estimated queue delay. It is a retryable condition — the HTTP surface
// maps it to 503 with a Retry-After hint.
var ErrOverloaded = errors.New("service: overloaded")

// flight is one in-progress optimization that concurrent identical
// requests coalesce onto. It owns a cancellable context detached from any
// single caller: each caller holds a waiter reference, and when the last
// waiter abandons the flight (its own context cancelled) the flight's
// context is cancelled too, aborting the in-flight enumeration.
type flight struct {
	done  chan struct{}
	entry *cached // canonical-space result, nil on error
	err   error

	ctx     context.Context
	cancel  context.CancelCauseFunc
	waiters int // guarded by Service.mu
}

// request is one unit of work for the pool. tr is the initiating caller's
// trace: the worker records the phases it owns (queue-wait, route,
// enumerate, materialize) into it; coalesced followers see only their own
// coalesce_wait. arrived is when the caller entered Optimize (for shed
// latency accounting), enqueuedAt when the request entered the worker queue
// (for queue-wait accounting).
type request struct {
	q  *cost.Query
	fp Fingerprint
	fl *flight

	tr         *obs.Trace
	arrived    time.Time
	enqueuedAt time.Time
}

// Service is a concurrent, thread-safe optimizer front-end; see the
// package comment. Create with New, release with Close.
type Service struct {
	cfg      Config
	model    *cost.Model // cost.DefaultModel(), built once: it allocates
	backends *backend.Set
	cache    *Cache
	counters Counters
	// limiter is the node-level admission rate cap (nil: uncapped).
	limiter *TokenBucket

	mu       sync.Mutex
	inflight map[string]*flight

	reqs chan request
	// warm holds the service's one warm workspace (dp.NewWarmWorkspace)
	// while no worker runs on it; serve borrows it when it is there.
	warm chan *dp.Workspace
	quit chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// New starts a service and its worker pool.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		model:    cost.DefaultModel(),
		backends: backend.NewSet(backend.GPUConfig{}),
		cache:    NewCache(cacheShards, cfg.CacheCapacity),
		inflight: make(map[string]*flight),
		reqs:     make(chan request, cfg.QueueDepth),
		warm:     newWarm(),
		quit:     make(chan struct{}),
	}
	s.counters.statsEpoch.Store(1)
	if cfg.Admission.RatePerSec > 0 {
		s.limiter = NewTokenBucket(cfg.Admission.RatePerSec, cfg.Admission.RatePerSec/4)
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// newWarm returns the channel a service keeps its warm workspace in, with
// the workspace in its one slot: the send finds the slot empty and cannot
// block.
func newWarm() chan *dp.Workspace {
	c := make(chan *dp.Workspace, 1)
	c <- dp.NewWarmWorkspace()
	return c
}

// Close stops the worker pool: queued-but-unstarted requests are abandoned
// (their callers return ErrClosed) and Close waits only for optimizations
// already running on a worker to finish.
func (s *Service) Close() {
	s.once.Do(func() { close(s.quit) })
	s.wg.Wait()
}

// Counters returns the live instrumentation (expvar.Var compatible).
func (s *Service) Counters() *Counters { return &s.counters }

// WriteMetrics emits the service's live metrics — counters, gauges and
// latency histograms — in Prometheus text exposition format.
func (s *Service) WriteMetrics(w io.Writer) error {
	mw := obs.NewMetricsWriter(w)
	WriteNodeMetrics(mw, s.counters.Snapshot(), s.cache.Len(), &s.counters.lat)
	return mw.Flush()
}

// CacheLen returns the number of cached plans.
func (s *Service) CacheLen() int { return s.cache.Len() }

// Deprecated: bench-compat; remove with the probes. Always 0.
func (s *Service) SubCacheLen() int { return 0 }

// Deprecated: bench-compat; use core.DetectShape.
func DetectShape(g *graph.Graph) core.Shape { return core.DetectShape(g) }

// StatsEpoch returns the current catalog stats epoch (starts at 1).
func (s *Service) StatsEpoch() uint64 { return s.counters.statsEpoch.Load() }

// BumpStatsEpoch advances the catalog stats epoch and returns the old and
// new values. Nothing is flushed: cached entries keep serving exact-key
// hits (their keys embed the statistics they were costed under, so such
// hits remain sound), while queries carrying the *new* statistics miss the
// exact key and are planned afresh; the entries nobody asks for any more
// age out of the LRU. Call it whenever relation statistics or selectivities
// change.
func (s *Service) BumpStatsEpoch() (old, cur uint64) {
	cur = s.counters.statsEpoch.Add(1)
	s.counters.epochBumps.Add(1)
	return cur - 1, cur
}

// Route reports the algorithm core.Route picks for q, the backend that
// runs it and q's shape: the route a miss on q takes.
func (s *Service) Route(q *cost.Query) (core.Algorithm, backend.ID, core.Shape) {
	alg, shape := core.Route(q)
	bid, _ := backend.Of(alg)
	return alg, bid, shape
}

// Prepared is a compiled query together with its canonical fingerprint: the
// form a front door computes once per distinct statement and every layer
// below takes as given instead of canonicalising again. Both fields are
// read-only once prepared; one Prepared may serve concurrent requests.
type Prepared struct {
	Query *cost.Query
	Fingerprint
}

// Prepare fingerprints q.
func Prepare(q *cost.Query) *Prepared {
	return &Prepared{Query: q, Fingerprint: FingerprintQuery(q)}
}

// Optimize plans q, serving from the sharded plan cache when an
// isomorphic-with-identical-statistics query was planned before, coalescing
// onto an identical in-flight request otherwise, and finally optimizing on
// the worker pool with the algorithm the router picks for q's size and
// shape. It is safe for concurrent use.
//
// Cancelling ctx makes this call return promptly with the context's error.
// The underlying optimization keeps running only while some coalesced
// caller still waits on it; when the last waiter cancels, the enumeration
// itself is aborted mid-lattice and the flight completes with the
// cancellation error. A nil ctx means context.Background().
//
// Optimize fingerprints q on every call; callers that ask the same query
// again should Prepare it once and use OptimizePrepared.
func (s *Service) Optimize(ctx context.Context, q *cost.Query) (*Result, error) {
	start := time.Now()
	if emptyQuery(q) {
		s.counters.errors.Add(1)
		return nil, errEmptyQuery
	}
	return s.optimize(ctx, Prepare(q), start)
}

// OptimizePrepared is Optimize for a query whose fingerprint the caller
// already holds. It refuses a fingerprint whose permutation or key does not
// fit the query's relation count.
func (s *Service) OptimizePrepared(ctx context.Context, p *Prepared) (*Result, error) {
	start := time.Now()
	if p == nil || emptyQuery(p.Query) {
		s.counters.errors.Add(1)
		return nil, errEmptyQuery
	}
	// A hit remaps the cached plan through Perm, and Import holds every
	// plan under a key to the relation count the key names: both must be
	// the query's.
	if n, ok := keyRelations(p.Key); len(p.Perm) != p.Query.N() || !ok || n != p.Query.N() {
		s.counters.errors.Add(1)
		return nil, fmt.Errorf("service: fingerprint of %d relations (key %.12q) on a query of %d", len(p.Perm), p.Key, p.Query.N())
	}
	return s.optimize(ctx, p, start)
}

var errEmptyQuery = errors.New("service: empty query")

func emptyQuery(q *cost.Query) bool { return q == nil || q.G == nil || q.N() == 0 }

// optimize is the body of both entry points: probe, coalesce or enqueue;
// start is when the caller entered the service.
func (s *Service) optimize(ctx context.Context, p *Prepared, start time.Time) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.counters.inflight.Add(1)
	defer s.counters.inflight.Add(-1)
	q, fp := p.Query, p.Fingerprint
	tr := obs.FromContext(ctx)
	s.counters.requests.Add(1)
	if s.limiter != nil {
		if ok, _ := s.limiter.Allow(time.Now(), 1); !ok {
			s.counters.observeShed(time.Since(start))
			return nil, ErrOverloaded
		}
	}

	probeStart := time.Now()
	inv := invert(fp.Perm)

	var fl *flight
	var joined, probed bool
	for {
		e, ok := s.cache.Get(fp.Key)
		if !probed {
			// The probe span covers the first cache lookup; retries after
			// a dying flight are coalesce territory.
			tr.ObserveSince(obs.PhaseCacheProbe, probeStart)
			probed = true
		}
		if ok {
			e.hits.Add(1)
			done := tr.StartSpan(obs.PhaseMaterialize)
			res := resultFrom(e, inv, 0, true, false)
			done()
			res.Elapsed = time.Since(start)
			s.counters.observeHit(res.Elapsed, e.Backend)
			return res, nil
		}

		s.mu.Lock()
		fl, joined = s.inflight[fp.Key]
		if joined && context.Cause(fl.ctx) != nil {
			// The flight is dying: its last waiter already cancelled it.
			// Joining would inherit someone else's cancellation, so wait for
			// the dying flight to leave the map and retry.
			s.mu.Unlock()
			select {
			case <-fl.done:
				continue
			case <-ctx.Done():
				s.counters.canceled.Add(1)
				return nil, context.Cause(ctx)
			case <-s.quit:
				return nil, ErrClosed
			}
		}
		if !joined {
			fl = &flight{done: make(chan struct{})}
			// The flight's context is rooted at Background, not at this
			// caller's ctx: coalesced followers must be able to keep the run
			// alive after the initiating caller walks away.
			//mpdpvet:ignore ctxfirst flight detach: coalesced followers outlive the initiating caller
			fl.ctx, fl.cancel = context.WithCancelCause(context.Background())
			s.inflight[fp.Key] = fl
		}
		fl.waiters++
		s.mu.Unlock()
		break
	}

	if !joined {
		if err := s.enqueue(ctx, request{q: q, fp: fp, fl: fl, tr: tr, arrived: start}); err != nil {
			return nil, err
		}
	}

	waitStart := time.Now()
	select {
	case <-fl.done:
	case <-ctx.Done():
		s.leave(ctx, fl)
		s.counters.canceled.Add(1)
		return nil, context.Cause(ctx)
	case <-s.quit:
		return nil, ErrClosed
	}
	if joined {
		tr.ObserveSince(obs.PhaseCoalesceWait, waitStart)
	}
	if fl.err != nil {
		switch {
		case errors.Is(fl.err, context.Canceled), errors.Is(fl.err, context.DeadlineExceeded):
			s.counters.canceled.Add(1)
		case errors.Is(fl.err, ErrOverloaded):
			// A coalesced follower of a flight whose initiator was shed.
			s.counters.observeShed(time.Since(start))
		default:
			s.counters.errors.Add(1)
		}
		return nil, fl.err
	}
	done := tr.StartSpan(obs.PhaseMaterialize)
	res := resultFrom(fl.entry, inv, 0, false, joined)
	done()
	res.Elapsed = time.Since(start)
	if joined {
		s.counters.coalesced.Add(1)
	} else {
		s.counters.observeMiss(res.Elapsed, fl.entry.Backend)
	}
	return res, nil
}

// enqueue submits a freshly created flight's request to the worker queue,
// applying admission control on the way in. A non-nil return is what
// Optimize should return: ErrOverloaded when the request was shed (the
// flight is abandoned, waking any coalesced followers with the same error),
// the context's cause when the initiator cancelled, ErrClosed on shutdown.
func (s *Service) enqueue(ctx context.Context, r request) error {
	// Deadline-aware shed: a caller whose deadline cannot outlive the
	// estimated queue delay would time out while queued — rejecting now
	// costs microseconds instead of a wasted queue slot and worker run.
	if err := s.admit(ctx); err != nil {
		s.counters.observeShed(time.Since(r.arrived))
		s.abandon(r.fp.Key, r.fl, err)
		return err
	}
	r.enqueuedAt = time.Now()
	if s.cfg.Admission.MaxQueueWait < 0 {
		// Never wait: shed unless a slot is free right now.
		select {
		case s.reqs <- r:
			s.counters.observeQueued()
			return nil
		default:
			s.counters.observeShed(time.Since(r.arrived))
			s.abandon(r.fp.Key, r.fl, ErrOverloaded)
			return ErrOverloaded
		}
	}
	var shedC <-chan time.Time
	if w := s.cfg.Admission.MaxQueueWait; w > 0 {
		t := time.NewTimer(w)
		defer t.Stop()
		shedC = t.C
	}
	select {
	case s.reqs <- r:
		s.counters.observeQueued()
		return nil
	case <-shedC:
		// The queue stayed full for the whole wait budget; one last
		// non-blocking try resolves the race where the timer and a freed
		// slot become ready together.
		select {
		case s.reqs <- r:
			s.counters.observeQueued()
			return nil
		default:
		}
		s.counters.observeShed(time.Since(r.arrived))
		s.abandon(r.fp.Key, r.fl, ErrOverloaded)
		return ErrOverloaded
	case <-ctx.Done():
		// The initiator gives up while the queue is full, but followers
		// may already be coalesced onto this flight and they cannot
		// enqueue it themselves. Hand the enqueue off: it completes for
		// the followers, is shed when the queue stays full past the wait
		// budget, or dies with the flight context once the last of them
		// leaves too.
		go func(r request) {
			var shedC <-chan time.Time
			if w := s.cfg.Admission.MaxQueueWait; w > 0 {
				t := time.NewTimer(w)
				defer t.Stop()
				shedC = t.C
			}
			select {
			case s.reqs <- r:
				s.counters.observeQueued()
			case <-shedC:
				r.fl.err = ErrOverloaded
				r.fl.cancel(ErrOverloaded)
				s.finishFlight(r)
			case <-r.fl.ctx.Done():
				r.fl.err = context.Cause(r.fl.ctx)
				s.finishFlight(r)
			case <-s.quit:
				r.fl.err = ErrClosed
				s.finishFlight(r)
			}
		}(r)
		s.leave(ctx, r.fl)
		s.counters.canceled.Add(1)
		return context.Cause(ctx)
	case <-s.quit:
		s.abandon(r.fp.Key, r.fl, ErrClosed)
		return ErrClosed
	}
}

// leave drops one waiter reference from a flight whose caller cancelled;
// the last leaver aborts the in-flight optimization. The cancel happens
// under s.mu — the same lock the join path holds while checking
// context.Cause(fl.ctx) — so a joiner can never slip in between "waiters
// hit zero" and "flight cancelled" and inherit a stranger's cancellation.
func (s *Service) leave(ctx context.Context, fl *flight) {
	s.mu.Lock()
	fl.waiters--
	if fl.waiters == 0 {
		fl.cancel(context.Cause(ctx))
	}
	s.mu.Unlock()
}

// abandon removes a flight that was never enqueued and unblocks any
// followers that joined it.
func (s *Service) abandon(key string, fl *flight, cause error) {
	s.mu.Lock()
	delete(s.inflight, key)
	s.mu.Unlock()
	fl.err = cause
	fl.cancel(cause)
	close(fl.done)
}

func resultFrom(e *cached, inv []int, elapsed time.Duration, hit, coalesced bool) *Result {
	return &Result{
		Plan:      remapPlan(e.Plan, inv),
		Algorithm: e.Algorithm,
		Backend:   e.Backend,
		Shape:     e.Shape,
		Stats:     e.Stats,
		GPU:       e.GPU,
		CacheHit:  hit,
		Coalesced: coalesced,
		FellBack:  e.FellBack,
		Elapsed:   elapsed,
		Key:       e.Key,
		Epoch:     e.Epoch,
	}
}

func (s *Service) worker() {
	defer s.wg.Done()
	// Each worker owns the memory its enumerations run in (dp.Workspace):
	// DP table, census, evaluator scratch and the arena of the plan tree are
	// recycled from one request to the next, and from one inner DP of a
	// large query to the next. The tree is dead once serve has copied it
	// into the cache (remapPlan), which is before the worker's next run.
	// It keeps at most a 2^16-slot table between runs; the one workspace
	// that keeps a star-18's (s.warm) is the service's, lent to whichever
	// worker is idle, so resident memory grows by one large table per
	// service rather than one per worker.
	ws := new(dp.Workspace)
	for {
		// Check quit first: a closed quit and a non-empty queue are both
		// ready, and a plain select would pick randomly — draining
		// abandoned requests nobody is waiting for.
		select {
		case <-s.quit:
			return
		default:
		}
		select {
		case <-s.quit:
			return
		case r := <-s.reqs:
			s.counters.queueDepth.Add(-1)
			s.serve(r, ws)
		}
	}
}

// serve runs one optimization, publishes the canonical-space plan to the
// cache and completes the flight. The run borrows the service's warm
// workspace when no other worker has it, and the worker's own otherwise.
// The optimizer's plan tree lives in that workspace; only the remapped copy
// survives this call.
func (s *Service) serve(r request, own *dp.Workspace) {
	defer r.fl.cancel(nil) // release the flight context's resources
	if !r.enqueuedAt.IsZero() {
		s.counters.observeQueueWait(time.Since(r.enqueuedAt))
		r.tr.ObserveSince(obs.PhaseQueueWait, r.enqueuedAt)
	}
	if err := context.Cause(r.fl.ctx); err != nil {
		// Every waiter cancelled while the request sat in the queue: do not
		// burn a worker on a result nobody wants.
		r.fl.err = err
		s.finishFlight(r)
		return
	}
	routeDone := r.tr.StartSpan(obs.PhaseRoute)
	alg, shape := core.Route(r.q)
	s.counters.observeRoute(alg)
	routeDone()

	ws := own
	select {
	case ws = <-s.warm:
	default:
	}
	enumDone := r.tr.StartSpan(obs.PhaseEnumerate)
	res, err := s.optimizeWithFallback(r.fl.ctx, r.q, alg, ws)
	enumDone()
	if err == nil {
		s.counters.observeServed(res.Backend)
		// The GPU's modeled device time decomposes into Sim spans: launch,
		// transfer, per-kernel cycles, memory — the paper's per-level cost
		// breakdown, per request.
		res.GPU.TraceInto(r.tr)
		matDone := r.tr.StartSpan(obs.PhaseMaterialize)
		r.fl.entry = &cached{Entry: Entry{
			Key:       r.fp.Key,
			Plan:      remapPlan(res.Plan, r.fp.Perm),
			Stats:     res.Stats,
			Algorithm: res.Algorithm,
			Backend:   res.Backend,
			Shape:     shape,
			GPU:       res.GPU,
			FellBack:  res.Algorithm != alg,
			Epoch:     s.StatsEpoch(),
		}}
		s.cache.Put(r.fl.entry)
		matDone()
	} else {
		r.fl.err = err
	}
	// Handed back before the waiters wake, so a caller's next request
	// finds the warm workspace idle.
	if ws != own {
		s.warm <- ws
	}
	s.finishFlight(r)
}

// finishFlight publishes the flight's outcome and wakes every waiter.
func (s *Service) finishFlight(r request) {
	s.mu.Lock()
	delete(s.inflight, r.fp.Key)
	s.mu.Unlock()
	close(r.fl.done)
}

// optimizeWithFallback runs the routed algorithm on its backend under the
// time budget; when an exact route times out it retries once with the
// graph's heuristic (core.HeuristicFor) under a fresh budget (the adaptive
// part of adaptive routing: the router's crossover thresholds are
// estimates, the budget is the contract). The fallback is charged to the
// backend that timed out. Caller cancellation (ctx) aborts outright — a
// caller that walked away gets no heuristic retry.
func (s *Service) optimizeWithFallback(ctx context.Context, q *cost.Query, alg core.Algorithm, ws *dp.Workspace) (*backend.Result, error) {
	opts := backend.Options{
		Model:     s.model,
		Timeout:   s.cfg.Timeout,
		Workspace: ws,
	}
	bid, _ := backend.Of(alg)
	res, err := s.backends.Get(bid).Optimize(ctx, q, alg, opts)
	if err == nil || !errors.Is(err, dp.ErrTimeout) || !alg.IsExact() {
		return res, err
	}
	s.counters.observeFallback(bid)
	return s.backends.Get(backend.Heuristic).Optimize(ctx, q, core.HeuristicFor(q), opts)
}
