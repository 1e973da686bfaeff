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
	"repro/internal/obs"
	"repro/internal/plan"
)

// Config tunes a Service. The zero value selects the defaults listed on
// each field, which follow the regimes of the paper's evaluation: exact DP
// for small graphs, CPU-parallel MPDP for medium ones, GPU-MPDP for large
// trees and sparse cyclic graphs up to the bitset width, IDP2/UnionDP
// beyond.
type Config struct {
	// CacheShards is the plan-cache shard count (0: 16; rounded up to a
	// power of two).
	CacheShards int
	// CacheCapacity is the total number of cached plans (0: 4096).
	CacheCapacity int
	// Deprecated: bench-compat; remove with the probes. Ignored.
	SubCacheCapacity int
	// Workers is the optimization worker-pool size (0: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the pending-request queue; enqueueing blocks when
	// full, applying backpressure to callers (0: 4 * Workers).
	QueueDepth int
	// Threads is passed to CPU-parallel optimizers (0: all cores).
	Threads int
	// Crossover sets the backend-crossover thresholds of the router (nil:
	// backend.DefaultCrossover(), calibrated from the GPU device model;
	// load deployment overrides with backend.LoadCrossover, which
	// validates the ladder). Programmatic values are taken as-is: the
	// router is a waterfall (small → cpu-parallel → gpu → heuristic), so
	// an inverted ladder is well-defined and simply leaves the shadowed
	// band empty (e.g. GPULimit < CPUParallelLimit disables the GPU
	// band).
	Crossover *backend.Crossover
	// GPU configures the simulated GPU backend: device model and device
	// count (zero value: 2 × GTX 1080).
	GPU backend.GPUConfig
	// K is the sub-problem bound for IDP2/UnionDP (0: 15).
	K int
	// Admission tunes admission control: queue-wait shedding, deadline-
	// aware shedding and the node-level rate cap. The zero value keeps the
	// legacy blocking backpressure.
	Admission Admission
	// Slow configures the slow-request ring surfaced at /v1/debug/slow and
	// the JSON-lines slow-query log. The zero value keeps a default-sized
	// ring with threshold logging disabled.
	Slow obs.SlowConfig
	// Timeout is the per-query optimization budget. An exact run that
	// exceeds it falls back to the shape's heuristic with a fresh budget
	// (0: 30s).
	Timeout time.Duration
	// Model is the cost model (nil: cost.DefaultModel()).
	Model *cost.Model
}

func (c Config) withDefaults() Config {
	if c.CacheShards == 0 {
		c.CacheShards = 16
	}
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
	if c.Model == nil {
		c.Model = cost.DefaultModel()
	}
	c.Admission = c.Admission.withDefaults()
	return c
}

// crossover resolves the router thresholds: the Crossover field, or the
// calibrated defaults.
func (c Config) crossover() backend.Crossover {
	if c.Crossover != nil {
		return c.Crossover.WithDefaults()
	}
	return backend.DefaultCrossover()
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
	Shape   Shape
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
	xover    backend.Crossover
	backends *backend.Set
	cache    *Cache
	counters Counters
	slog     *obs.SlowLog
	// limiter is the node-level admission rate cap (nil: uncapped).
	limiter *TokenBucket

	mu       sync.Mutex
	inflight map[string]*flight

	reqs chan request
	quit chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// New starts a service and its worker pool.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		xover:    cfg.crossover(),
		backends: backend.NewSet(cfg.GPU),
		cache:    NewCache(cfg.CacheShards, cfg.CacheCapacity),
		slog:     obs.NewSlowLog(cfg.Slow),
		inflight: make(map[string]*flight),
		reqs:     make(chan request, cfg.QueueDepth),
		quit:     make(chan struct{}),
	}
	s.counters.statsEpoch.Store(1)
	if cfg.Admission.RatePerSec > 0 {
		s.limiter = NewTokenBucket(cfg.Admission.RatePerSec, cfg.Admission.Burst)
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
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
	s.counters.writeMetrics(mw)
	mw.Gauge("mpdp_cache_plans", "Plans resident in the cache.", nil, float64(s.cache.Len()))
	return mw.Flush()
}

// CacheLen returns the number of cached plans.
func (s *Service) CacheLen() int { return s.cache.Len() }

// Deprecated: bench-compat; remove with the probes. Always 0.
func (s *Service) SubCacheLen() int { return 0 }

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

// Route reports which (algorithm, backend) pair the adaptive router would
// pick for q, given its size, detected shape and edge density.
func (s *Service) Route(q *cost.Query) (core.Algorithm, backend.ID, Shape) {
	shape := DetectShape(q.G)
	alg, bid := s.route(q.N(), shape, len(q.G.Edges))
	return alg, bid, shape
}

// Crossover returns the resolved router thresholds.
func (s *Service) Crossover() backend.Crossover { return s.xover }

// route walks the crossover ladder (see backend.Crossover): for small
// graphs, CPU-parallel MPDP on cliques and stars, where every set is one
// block or a tree and the levels are thick, and sequential DPCCP on the
// rest; CPU-parallel MPDP to the paper's fall-back limit, then — where the
// pre-GPU router gave up and went heuristic — GPU-MPDP with fused pruning
// and CCC for large trees and sparse cyclic graphs up to the bitset width.
// Cliques and dense general graphs (whose connected-set space explodes the
// same way) cap the exact bands early, and everything beyond goes to the
// shape's heuristic.
func (s *Service) route(n int, shape Shape, edges int) (core.Algorithm, backend.ID) {
	x := &s.xover
	if n <= x.SmallLimit && n <= 64 {
		if shape == ShapeClique || shape == ShapeStar {
			return core.AlgMPDPParallel, backend.CPUParallel
		}
		return core.AlgDPCCP, backend.CPUSeq
	}
	// Only literal cliques shrink the CPU-parallel band (its pre-backend
	// contract); the density test additionally caps the new GPU band,
	// where a dense general graph's connected-set lattice explodes like a
	// clique's. Dense graphs of 17..25 relations therefore still get the
	// exact CPU-parallel route they always had.
	cpuLimit := x.CPUParallelLimit
	if shape == ShapeClique && x.CliqueCPULimit < cpuLimit {
		cpuLimit = x.CliqueCPULimit
	}
	if n <= cpuLimit && n <= 64 {
		return core.AlgMPDPParallel, backend.CPUParallel
	}
	gpuLimit := x.GPULimit
	if shape == ShapeClique || shape == ShapeStar ||
		(shape == ShapeGeneral && float64(edges) > x.DenseEdgeFactor*float64(n)) {
		// Cliques and dense graphs explode the candidate-pair space;
		// stars explode the *lattice* instead — a hub of degree d has
		// 2^d connected supersets, so a star past ~26 relations is
		// mathematically guaranteed to overflow the memo cap before the
		// GPU run finishes enumerating. All three skip to the clique cap
		// (stars ≤ the CPU band never reach here, so in practice stars
		// route heuristically beyond 25 — the pre-backend behaviour).
		gpuLimit = x.GPUCliqueLimit
	}
	if n <= gpuLimit && n <= 64 {
		return core.AlgMPDPGPU, backend.GPU
	}
	if shape.IsTree() {
		return core.AlgIDP2, backend.Heuristic
	}
	return core.AlgUnionDP, backend.Heuristic
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
	return s.serveRequest(ctx, Prepare(q), start)
}

// OptimizePrepared is Optimize for a query whose fingerprint the caller
// already holds.
func (s *Service) OptimizePrepared(ctx context.Context, p *Prepared) (*Result, error) {
	start := time.Now()
	if p == nil || emptyQuery(p.Query) {
		s.counters.errors.Add(1)
		return nil, errEmptyQuery
	}
	if len(p.Perm) != p.Query.N() {
		s.counters.errors.Add(1)
		return nil, fmt.Errorf("service: fingerprint of %d relations on a query of %d", len(p.Perm), p.Query.N())
	}
	return s.serveRequest(ctx, p, start)
}

var errEmptyQuery = errors.New("service: empty query")

func emptyQuery(q *cost.Query) bool { return q == nil || q.G == nil || q.N() == 0 }

// serveRequest owns the in-flight gauge and the slow-log observation around
// optimize; start is when the caller entered the service.
func (s *Service) serveRequest(ctx context.Context, p *Prepared, start time.Time) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.counters.inflight.Add(1)
	res, err := s.optimize(ctx, p, start)
	s.counters.inflight.Add(-1)
	if !errors.Is(err, ErrClosed) {
		s.observeSlow(obs.FromContext(ctx), p.Query, res, start, err)
	}
	return res, err
}

// observeSlow feeds one finished request into the slow-request ring and the
// slow-query log.
func (s *Service) observeSlow(tr *obs.Trace, q *cost.Query, res *Result, start time.Time, err error) {
	e := obs.SlowEntry{
		RequestID: tr.RequestID(),
		WallUS:    float64(time.Since(start).Nanoseconds()) / 1e3,
		Relations: q.N(),
		Spans:     tr.Spans(),
	}
	if res != nil {
		e.Shape = string(res.Shape)
		e.Algorithm = string(res.Algorithm)
		e.Backend = string(res.Backend)
		e.CacheHit = res.CacheHit
	}
	if err != nil {
		e.Error = err.Error()
	}
	s.slog.Observe(e)
}

// SlowLog returns the service's slow-request ring (never nil).
func (s *Service) SlowLog() *obs.SlowLog { return s.slog }

// optimize is the body of both entry points: probe, coalesce or enqueue.
func (s *Service) optimize(ctx context.Context, p *Prepared, start time.Time) (*Result, error) {
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
			s.counters.observeHit(res.Elapsed, e.backend)
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
		s.counters.observeMiss(res.Elapsed, fl.entry.backend)
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
		Plan:      remapPlan(e.plan, inv),
		Algorithm: e.alg,
		Backend:   e.backend,
		Shape:     e.shape,
		Stats:     e.stats,
		GPU:       e.gpu,
		CacheHit:  hit,
		Coalesced: coalesced,
		FellBack:  e.fellBack,
		Elapsed:   elapsed,
		Key:       e.key,
		Epoch:     e.epoch,
	}
}

func (s *Service) worker() {
	defer s.wg.Done()
	// Each worker owns the memory its enumerations run in (dp.Workspace):
	// DP table, census, evaluator scratch and the arena of the plan tree are
	// recycled from one request to the next, and from one inner DP of a
	// large query to the next. The tree is dead once serve has copied it
	// into the cache (remapPlan), which is before the worker's next run.
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
// cache and completes the flight. The optimizer's plan tree lives in the
// worker's workspace; only the remapped copy survives this call.
func (s *Service) serve(r request, ws *dp.Workspace) {
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
	shape := DetectShape(r.q.G)
	alg, bid := s.route(r.q.N(), shape, len(r.q.G.Edges))
	s.counters.observeRoute(alg, bid)
	routeDone()

	enumDone := r.tr.StartSpan(obs.PhaseEnumerate)
	res, usedAlg, usedBid, err := s.optimizeWithFallback(r.fl.ctx, r.q, alg, bid, shape, ws)
	enumDone()
	if err == nil {
		s.counters.observeServed(usedBid)
		// The GPU's modeled device time decomposes into Sim spans: launch,
		// transfer, per-kernel cycles, memory — the paper's per-level cost
		// breakdown, per request.
		res.GPU.TraceInto(r.tr, s.cfg.GPU.DeviceModel())
		matDone := r.tr.StartSpan(obs.PhaseMaterialize)
		r.fl.entry = &cached{
			key:      r.fp.Key,
			plan:     remapPlan(res.Plan, r.fp.Perm),
			stats:    res.Stats,
			alg:      usedAlg,
			backend:  usedBid,
			shape:    shape,
			gpu:      res.GPU,
			fellBack: usedAlg != alg,
			epoch:    s.StatsEpoch(),
		}
		s.cache.Put(r.fl.entry)
		matDone()
	} else {
		r.fl.err = err
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

// optimizeWithFallback runs the routed algorithm on the routed backend
// under the time budget; when an exact route times out it retries once
// with the shape's heuristic under a fresh budget (the adaptive part of
// adaptive routing: the router's crossover thresholds are estimates, the
// budget is the contract). The fallback is charged to the backend that
// timed out. Caller cancellation (ctx) aborts outright — a caller that
// walked away gets no heuristic retry.
func (s *Service) optimizeWithFallback(ctx context.Context, q *cost.Query, alg core.Algorithm, bid backend.ID, shape Shape, ws *dp.Workspace) (*backend.Result, core.Algorithm, backend.ID, error) {
	opts := backend.Options{
		Model:     s.cfg.Model,
		Timeout:   s.cfg.Timeout,
		Threads:   s.cfg.Threads,
		K:         s.cfg.K,
		Workspace: ws,
	}
	res, err := s.backends.Get(bid).Optimize(ctx, q, alg, opts)
	if err == nil || !errors.Is(err, dp.ErrTimeout) || !alg.IsExact() {
		return res, alg, bid, err
	}
	s.counters.observeFallback(bid)
	fb := core.AlgUnionDP
	if shape.IsTree() {
		fb = core.AlgIDP2
	}
	res, err = s.backends.Get(backend.Heuristic).Optimize(ctx, q, fb, opts)
	return res, fb, backend.Heuristic, err
}
