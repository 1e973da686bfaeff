package bench

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/cost"
	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/pkg/optimizer"
)

// serveSpec describes one serving workload: SDK optimizer.Remote over
// loopback HTTP to httpapi in front of a 2-node cluster (2 replicas, local
// transport). An open-loop Poisson arrival schedule takes the first openShare
// of the run; the rest is one caller's closed loop on the same stack.
type serveSpec struct {
	rate     float64       // offered requests per second, open loop
	sloLimit time.Duration // a request answered later than this misses the SLO
	// closedRate sizes the prepared closed-loop input of a workload whose
	// requests cannot be repeated (requests per second it may use).
	closedRate float64
	// chunk is how many consecutive answers of the closed loop make one
	// chunk (see chunkFloor): some 70 ms of them, which is several garbage
	// collections, so that a chunk carries its share of their cost. On
	// serve-churn it is also twelve of the stream's blocks of four, so every
	// chunk has the same classes in the same numbers.
	chunk int
	churn bool
	node  service.Config // per-node service configuration
}

const (
	requestTimeout = 2 * time.Second
	maxInFlight    = 1024 // arrivals beyond this many outstanding requests are dropped and taint the run
	openShare      = 0.4  // of the run length: the open loop; the closed loop has the rest
	poolSize       = 64   // 16 at smoke-test scale
	zipfS          = 1.2
	twinShare      = 0.20
	// churnSeeded serve-churn queries are sent in set-up, so that the first
	// request of the run already has 400 earlier ones to be a re-analysed
	// twin of (40 at smoke-test scale).
	churnSeeded = 400
	// churnWindow is the size of every other pair of serve-churn's sliding
	// windows: the smallest the router sends to MPDP, the only enumerator
	// that reads and fills the sub-plan memo. The pairs between have one
	// relation less and go to DPCCP, which ignores it.
	churnWindow = 13
)

func serveSpecs(name string) (serveSpec, bool) {
	workers := runtime.GOMAXPROCS(0)
	switch name {
	case "serve-warm":
		return serveSpec{rate: 1000, sloLimit: 5 * time.Millisecond, chunk: 480,
			node: service.Config{Workers: workers}}, true
	case "serve-churn":
		// Both LRUs are small enough to evict during the run.
		return serveSpec{rate: 100, sloLimit: 50 * time.Millisecond, closedRate: 900, chunk: 48, churn: true,
			node: service.Config{Workers: workers, CacheCapacity: 512, SubCacheCapacity: 1024}}, true
	}
	return serveSpec{}, false
}

// stack is one in-process serving stack with its own client.
type stack struct {
	cl     *cluster.Cluster
	srv    *http.Server
	done   chan struct{} // closed when the server's accept loop has returned
	url    string
	client *http.Client
	remote optimizer.Optimizer
}

func newStack(node service.Config) (*stack, error) {
	conns := runtime.GOMAXPROCS(0)
	cl := cluster.New(cluster.Config{Nodes: 2, Replicas: 2, Service: node})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cl.Close()
		return nil, err
	}
	s := &stack{
		cl:   cl,
		srv:  &http.Server{Handler: httpapi.New(httpapi.ClusterEngine(cl), httpapi.Options{}).Mux()},
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns,
		}},
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	s.remote, err = optimizer.Remote(optimizer.RemoteConfig{
		Endpoints: []string{s.url}, HedgeDelay: -1, HTTPClient: s.client,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stack) close() {
	if s.remote != nil {
		s.remote.Close() // closes the client's idle connections
	}
	s.client.CloseIdleConnections()
	s.srv.Close()
	<-s.done
	s.cl.Close()
}

// warm sends every pool query once so that the run starts from a full cache.
// On serve-churn the catalog is then re-analysed once: every plan the pool
// left behind is stale for the run's first request.
func (s *stack) warm(ctx context.Context, pool []*op, churn bool) error {
	call := sdkCall(s.remote)
	for _, o := range pool {
		if out := call(ctx, o); out.err != nil {
			return fmt.Errorf("warming %s: %w", o.label, out.err)
		}
	}
	if churn {
		s.cl.BumpStatsEpochAll()
	}
	return nil
}

// arrival is one scheduled request of the open loop.
type arrival struct {
	at time.Duration // due time, as an offset from the start of the loop
	op *op
}

// serveInputs is what set-up produces for a serving workload.
type serveInputs struct {
	spec     serveSpec
	pool     []*op     // sent in set-up: serve-warm's working set, serve-churn's earlier traffic
	arrivals []arrival // the open loop's schedule
	closed   []*op     // the closed loop's input, in order
	wrap     bool      // closed may be replayed cyclically
	st       *stack
}

func (in *serveInputs) close() { in.st.close() }

// setupServe generates the schedule and every request from the seed,
// computes the references, starts the stack and warms it.
func setupServe(ctx context.Context, spec serveSpec, cfg runConfig) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	in := &serveInputs{spec: spec}
	// Exactly rate x length arrivals, exponential gaps between them: the
	// open loop then ends within a few percent of its length, and the closed
	// loop starts at the same place in the stream whatever the seed.
	due := make([]time.Duration, int(openShare*cfg.seconds*spec.rate))
	for i := 1; i < len(due); i++ {
		due[i] = due[i-1] + time.Duration(rng.ExpFloat64()/spec.rate*float64(time.Second))
	}
	var ops []*op
	var err error
	if spec.churn {
		seeded := churnSeeded
		if cfg.toy {
			seeded = churnSeeded / 10
		}
		nClosed := int((1 - openShare) * cfg.seconds * spec.closedRate)
		in.pool, ops, err = churnStream(seeded, len(due)+nClosed, rng)
		if err == nil {
			in.closed = ops[len(due):]
		}
	} else {
		size := poolSize
		if cfg.toy {
			size = poolSize / 4
		}
		in.pool, ops, err = warmStream(size, len(due), rng)
		in.closed, in.wrap = ops, true
	}
	if err != nil {
		return nil, err
	}
	for i, at := range due {
		in.arrivals = append(in.arrivals, arrival{at: at, op: ops[i]})
	}
	if err := checkDistinct(append(in.pool, ops...)); err != nil {
		return nil, err
	}
	if err := computeReferences(nil, ops, true); err != nil {
		return nil, err
	}
	if in.st, err = newStack(spec.node); err != nil {
		return nil, err
	}
	if err := in.st.warm(ctx, in.pool, spec.churn); err != nil {
		in.st.close()
		return nil, err
	}
	return in, nil
}

// warmStream builds the read-side request stream: a pool of MusicBrainz
// walks of 8-14 relations in Zipf popularity order, requested again as is
// (replay) or as another client would write them (twin). Nothing is cold.
func warmStream(size, n int, rng *rand.Rand) (pool, stream []*op, err error) {
	shape := rand.New(rand.NewSource(shapeSeed))
	for i := 0; i < size; i++ {
		rels := 8 + i%7
		q, err := genQuery("musicbrainz", rels, shape, rng)
		if err != nil {
			return nil, nil, err
		}
		o, err := newOp(fmt.Sprintf("musicbrainz-%d", rels), "replay", q)
		if err != nil {
			return nil, nil, err
		}
		pool = append(pool, o)
	}
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(size-1))
	for i := 0; i < n; i++ {
		o := pool[zipf.Uint64()]
		if rng.Float64() < twinShare {
			if o, err = twinOf(o, rng); err != nil {
				return nil, nil, err
			}
		}
		stream = append(stream, o)
	}
	return pool, stream, nil
}

// churnStream builds the write-side request stream, in which no request was
// ever seen before. Of every four requests, in an order the seed decides, two
// are new MusicBrainz walks of 10-12 relations, one slides a window (13 and
// 12 relations in turn, two of each: see churnWindow) that keeps 50-75% of
// the previous window's relations and their statistics (what a sub-plan
// memo can reuse), and one repeats the join
// graph of a walk seeded/4 to 3*seeded/4 walks back under re-analysed
// statistics (its plan is cached, but under an older epoch). The first
// seeded queries are the pool that set-up sends, with a third walk in place
// of the twin, so the mix holds from the run's first request. Every
// seeded/2-th request of the stream re-analyses the catalog: once in 2 s at
// the offered rate.
//
// Walks and windows each come from a fixed sequence of their own (see
// shapeSeed): every seed times the same join graphs, class by class.
func churnStream(seeded, n int, rng *rand.Rand) (pool, stream []*op, err error) {
	walkShape, winShape := rand.New(rand.NewSource(shapeSeed)), rand.New(rand.NewSource(shapeSeed+1))
	win := newMBWindows(winShape)
	block := []string{"cold", "cold", "window", "stale"}
	seen := make(map[string]bool, seeded+n)
	all := make([]*op, 0, seeded+n)
	var walks []*op // all but the windows: what a re-analysed twin repeats
	windows := 0
	for len(all) < seeded+n {
		i := len(all)
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		class := block[i%len(block)]
		if class == "stale" && i < seeded {
			class = "cold" // nothing earlier to be a twin of
		}
		var o *op
		switch class {
		case "stale":
			o, err = staleTwinOf(walks[len(walks)-seeded/4-rng.Intn(seeded/2)], rng)
		case "window":
			size := churnWindow - windows/2%2
			o, err = newOp(fmt.Sprintf("mbwindow-%d", size), class, win.next(size))
		default:
			size := 10 + walkShape.Intn(3)
			var q *cost.Query
			if q, err = genQuery("musicbrainz", size, walkShape, rng); err == nil {
				o, err = newOp(fmt.Sprintf("musicbrainz-%d", size), class, q)
			}
		}
		if err != nil {
			return nil, nil, err
		}
		if seen[o.fp] {
			continue // a window that came round again: draw another
		}
		seen[o.fp] = true
		o.bump = i >= seeded && (i-seeded)%(seeded/2) == seeded/2-1
		all = append(all, o)
		if class == "window" {
			windows++
		} else {
			walks = append(walks, o)
		}
	}
	return all[:seeded], all[seeded:], nil
}

// reanalysing wraps call for serve-churn: a request marked bump advances
// every node's statistics epoch before it is sent.
func reanalysing(cl *cluster.Cluster, call func(context.Context, *op) outcome) func(context.Context, *op) outcome {
	return func(ctx context.Context, o *op) outcome {
		if o.bump {
			cl.BumpStatsEpochAll()
		}
		return call(ctx, o)
	}
}

// spinWindow is how long before a due time the generator stops sleeping and
// yields in a loop instead.
const spinWindow = time.Millisecond

// openLoop sends every arrival at its due time whatever the responses do,
// and times each request from when it was due. How late each request was
// actually sent is returned with it.
//
// A runtime sleep shorter than a millisecond is rounded up to the poller's
// millisecond when the process is idle, so a generator that only sleeps
// sends 0.3-0.5 ms late at the median and adds that to every latency. This
// one sleeps in the kernel until a millisecond before the due time and
// yields in a loop from there, which sends within a microsecond. At 1000
// req/s that loop is nearly always running and holds one of this host's two
// Ps: the latencies are those of a service that shares the machine with a
// busy client, about 1 ms at the median where the same stack answers an
// idle client in 0.3 ms. A 100 us loop measures that 0.3 ms, but with the
// client mostly asleep p95 sits on the edge between finding a free
// connection and waiting for one, and it and the median vary three times
// as much from run to run (spread 0.55 and 0.24 against 0.17 and 0.09).
func openLoop(ctx context.Context, arrivals []arrival, call func(context.Context, *op) outcome) []outcome {
	outs := make([]outcome, len(arrivals))
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for i, a := range arrivals {
		due := start.Add(a.at)
		for rem := time.Until(due); rem > 0; rem = time.Until(due) {
			if rem > spinWindow {
				kernelSleep(rem - spinWindow)
			} else {
				runtime.Gosched()
			}
		}
		late := time.Since(due)
		select {
		case sem <- struct{}{}:
		default:
			outs[i] = outcome{op: a.op, dropped: true, at: a.at, lateBy: late}
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rctx, cancel := context.WithTimeout(ctx, requestTimeout)
			out := call(rctx, a.op)
			cancel()
			out.lat, out.at, out.lateBy = time.Since(due), a.at, late
			outs[i] = out
			<-sem
		}()
	}
	wg.Wait()
	return outs
}

// closedPhase runs one caller's closed loop over ops for the given time (or
// until ops that may not repeat run out) on one P, and returns its answers
// in order, each stamped with when it completed.
//
// One P, because this host's two virtual CPUs are not two cores: a request
// that crosses from one to the other waits for the hypervisor to wake it,
// and that wait, not the program, was what varied from run to run (two
// callers on two Ps: spread of the best chunk's median 0.12-0.23 over runs
// minutes apart; one caller on one P: 0.03-0.05). On one P a request is
// client, server, cluster and service taking turns on one thread: the CPU
// time of the whole round trip, and nothing else.
func closedPhase(ctx context.Context, ops []*op, wrap bool, seconds float64, call func(context.Context, *op) outcome) []outcome {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var outs []outcome
	start := time.Now()
	for i := 0; time.Since(start).Seconds() < seconds && (wrap || i < len(ops)); i++ {
		rctx, cancel := context.WithTimeout(ctx, requestTimeout)
		out := call(rctx, ops[i%len(ops)])
		cancel()
		out.at = time.Since(start)
		outs = append(outs, out)
	}
	return outs
}

// serveRun is the raw result of a serving workload's timed part.
type serveRun struct {
	open    []outcome // the open loop, by arrival
	closed  []outcome // the closed loop, in order
	allocKB float64   // allocated by the process meanwhile
}

// runServe runs the open loop for openShare of length seconds and the
// closed loop for the rest.
func runServe(ctx context.Context, in *serveInputs, arrivals []arrival, seconds float64) serveRun {
	var run serveRun
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	call := sdkCall(in.st.remote)
	if in.spec.churn {
		call = reanalysing(in.st.cl, call)
	}
	run.open = openLoop(ctx, arrivals, call)
	run.closed = closedPhase(ctx, in.closed, in.wrap, (1-openShare)*seconds, call)
	runtime.ReadMemStats(&after)
	run.allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024
	return run
}

// genLag summarises how late the open-loop generator sent its requests.
func genLag(outs []outcome) (p50, p99 time.Duration, dropped int) {
	lags := make(durs, 0, len(outs))
	for _, o := range outs {
		lags = append(lags, o.lateBy)
		if o.dropped {
			dropped++
		}
	}
	s := lags.sorted()
	return s.pct(0.50), s.pct(0.99), dropped
}
