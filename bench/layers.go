package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/graph"
	"repro/internal/heuristic"
	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/sql"
	"repro/pkg/optimizer"
)

// The traced run looks at the layers from outside. The benchmark cannot put
// spans inside the program, so it calls each layer's public entry point
// itself: the same requests, in the same order, go to one equally
// configured standalone instance per layer (SDK driver, HTTP surface,
// cluster coordinator, service, fingerprint, routed enumerator). The calls
// of one request run back to back and are recorded as spans whose parent is
// the layer that would have made the call; a layer's self time is its span
// minus its children's. End-to-end numbers never come from this run.

// perLayer is every per-layer metric with its unit, in print order. A
// traced run emits all of them; one that does not apply to the workload
// reads 0.
var perLayer = []struct{ name, unit string }{
	{"dp.mpdp_ms", "ms"}, {"dp.dpccp_ms", "ms"}, {"dp.mpdp_over_dpccp", "ratio"},
	{"dp.evaluated_pairs", "count"}, {"dp.ccp_pairs", "count"}, {"dp.useful_pair_frac", "frac"},
	{"dp.connected_sets", "count"}, {"graph.find_blocks_ms", "ms"}, {"graph.blocks_per_set", "ratio"},
	{"dp.ns_per_ccp_pair", "ns"}, {"dp.allocs_per_op", "count"}, {"dp.bytes_per_op", "B"},
	{"parallel.mpdp_ms", "ms"}, {"parallel.speedup", "ratio"}, {"parallel.allocs_per_op", "count"},
	{"gpusim.wall_ms", "ms"}, {"gpusim.sim_ms", "ms"},
	{"backend.routed.cpu-seq", "count"}, {"backend.routed.cpu-parallel", "count"},
	{"backend.routed.gpu", "count"}, {"backend.routed.heuristic", "count"},
	{"service.fellback_frac", "frac"},
	{"heuristic.idp2_ms", "ms"}, {"heuristic.uniondp_ms", "ms"}, {"heuristic.goo_ms", "ms"},
	{"heuristic.lindp_ms", "ms"}, {"heuristic.idp2_cost_ratio", "ratio"}, {"heuristic.uniondp_cost_ratio", "ratio"},
	{"service.fingerprint_p50_us", "us"}, {"service.hit_p50_us", "us"}, {"service.twin_hit_p50_us", "us"},
	{"service.cache_hit_ratio", "frac"},
	{"cluster.hit_p50_us", "us"}, {"cluster.self_p50_us", "us"},
	{"httpapi.hit_p50_us", "us"}, {"httpapi.self_p50_us", "us"},
	{"wire.encode_p50_us", "us"}, {"wire.decode_p50_us", "us"},
	{"optimizer.remote_self_p50_us", "us"}, {"sql.compile_p50_us", "us"},
	{"cluster.replicated", "count"}, {"cluster.overflows", "count"},
	{"service.miss_p50_ms", "ms"}, {"service.miss_self_p50_us", "us"}, {"service.warm_seeded_frac", "frac"},
	{"service.stale_probes", "count"}, {"service.recost_wins", "count"},
	{"service.cache_len", "count"}, {"service.sub_len", "count"},
	{"service.queue_wait_p99_us", "us"}, {"service.shed_frac", "frac"}, {"service.coalesced_frac", "frac"},
	{"service.trace_cover_frac", "frac"},
	{"lat_open_p50_ms", "ms"}, {"lat_p95_ms", "ms"}, {"lat_p99_ms", "ms"},
	{"bench.gen_lag_p50_us", "us"}, {"bench.gen_lag_p99_us", "us"},
	{"bench.trace_overhead_frac", "frac"}, {"bench.layer_sum_frac", "frac"}, {"bench.peak_heap_mb", "MB"},
}

// layerValues collects per-layer metric values by name.
type layerValues map[string]float64

// emit writes every per-layer metric, in order, into the result.
func (v layerValues) emit(res *runResult) {
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)
	v["bench.peak_heap_mb"] = float64(heap.HeapSys) / (1 << 20)
	for _, m := range perLayer {
		res.metrics.set(m.name, m.unit, v[m.name])
	}
}

// span is one timed call into a layer, as written to the trace file.
type span struct {
	Req     int     `json:"req"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// layerInfo is what a layer call reports about its request besides time.
type layerInfo struct {
	svc  *service.Result // set by the service layer
	sdk  outcome         // set by the SDK layer
	skip bool            // the layer had nothing to do for this request
}

// layer is one entry point the traced run calls for every request.
type layer struct {
	name, parent string
	call         func(ctx context.Context, req int, o *op) (layerInfo, error)
}

// skipped marks a request a layer did not run for. It is no duration a
// difference of spans can take, which may well be negative.
const skipped = time.Duration(math.MinInt64)

// chainRun is the traced pass over a request sample.
type chainRun struct {
	layers   []layer
	ops      []*op
	dur      map[string][]time.Duration // per layer, per request; skipped where the layer had nothing to do
	hit      []bool                     // per request, from the service layer
	untraced durs                       // the same requests on the untraced SDK instance
	sdk      []outcome                  // the traced SDK layer's answers
	svc      []*service.Result
	spans    []span
}

// run sends every sampled request first to the untraced SDK instance, then
// down the chain of traced layers, outermost first. before, when non-nil,
// runs ahead of request i (the churn workload bumps epochs there).
func (c *chainRun) run(ctx context.Context, untraced func(context.Context, *op) outcome, before func(i int)) error {
	c.dur = map[string][]time.Duration{}
	c.hit, c.sdk, c.svc = make([]bool, len(c.ops)), make([]outcome, len(c.ops)), make([]*service.Result, len(c.ops))
	origin := time.Now()
	for i, o := range c.ops {
		if before != nil {
			before(i)
		}
		out := untraced(ctx, o)
		if out.err != nil {
			return fmt.Errorf("untraced %s: %w", o.label, out.err)
		}
		c.untraced = append(c.untraced, out.lat)
		for li, l := range c.layers {
			t0 := time.Now()
			info, err := l.call(ctx, i, o)
			t1 := time.Now()
			if err != nil && li > 0 {
				// A failure of the outermost layer is an answer to check;
				// one further in means the instances disagree.
				return fmt.Errorf("layer %s on %s: %w", l.name, o.label, err)
			}
			d := t1.Sub(t0)
			if info.skip {
				d = skipped
			} else {
				c.spans = append(c.spans, span{Req: i, Name: l.name, Parent: l.parent,
					StartUS: us(t0.Sub(origin)), EndUS: us(t1.Sub(origin))})
			}
			c.dur[l.name] = append(c.dur[l.name], d)
			if li == 0 {
				info.sdk.lat = d
				c.sdk[i] = info.sdk
			}
			if info.svc != nil {
				c.svc[i], c.hit[i] = info.svc, info.svc.CacheHit || info.svc.Coalesced
			}
		}
	}
	return nil
}

// self returns, per request, the layer's span minus its children's.
func (c *chainRun) self(name string) []time.Duration {
	out := append([]time.Duration(nil), c.dur[name]...)
	for _, l := range c.layers {
		if l.parent != name {
			continue
		}
		for i, d := range c.dur[l.name] {
			if d != skipped && out[i] != skipped {
				out[i] -= d
			}
		}
	}
	return out
}

// p50 is the median of the values whose request passes keep (nil: all),
// leaving out requests the layer skipped.
func (c *chainRun) p50(vals []time.Duration, keep func(i int) bool) time.Duration {
	var s durs
	for i, d := range vals {
		if d != skipped && (keep == nil || keep(i)) {
			s = append(s, d)
		}
	}
	return s.sorted().pct(0.5)
}

// diffP50 is the median over requests of layer a's span minus layer b's.
func (c *chainRun) diffP50(a, b string, keep func(i int) bool) time.Duration {
	diff := make([]time.Duration, len(c.ops))
	for i := range diff {
		if diff[i] = skipped; c.dur[a][i] != skipped && c.dur[b][i] != skipped {
			diff[i] = c.dur[a][i] - c.dur[b][i]
		}
	}
	return c.p50(diff, keep)
}

// common fills in the metrics every traced workload has: fingerprint and
// miss timings of the service layer, the cost of the trace itself, how much
// of the request the binary's own spans cover, and whether the layers' self
// times add up to the outermost span.
func (c *chainRun) common(v layerValues) {
	miss := func(i int) bool { return !c.hit[i] }
	v["service.fingerprint_p50_us"] = us(c.p50(c.dur["service.fingerprint"], nil))
	v["service.miss_p50_ms"] = ms(c.p50(c.dur["service.optimize"], miss))
	v["service.miss_self_p50_us"] = us(c.diffP50("service.optimize", "enumerate", miss))
	var seeded, sets float64
	for _, r := range c.svc {
		if r != nil && !r.CacheHit {
			seeded += float64(r.Stats.WarmSeeded)
			sets += float64(r.Stats.WarmSeeded + r.Stats.ConnectedSets)
		}
	}
	v["service.warm_seeded_frac"] = ratio(seeded, sets)

	outer := c.layers[0].name
	traced := c.p50(c.dur[outer], nil)
	if _, set := v["lat_p99_ms"]; !set {
		s := c.untraced.sorted()
		v["lat_p95_ms"], v["lat_p99_ms"] = ms(s.pct(0.95)), ms(s.pct(0.99))
	}
	v["bench.trace_overhead_frac"] = ratio(float64(traced), float64(c.untraced.sorted().pct(0.5))) - 1
	var selfSum time.Duration
	for _, l := range c.layers {
		selfSum += c.p50(c.self(l.name), nil)
	}
	v["bench.layer_sum_frac"] = ratio(float64(selfSum), float64(traced))
	var covered, wall float64
	for _, out := range c.sdk {
		if out.res == nil {
			continue
		}
		wall += out.res.TraceWallUS
		for _, s := range out.res.Trace {
			if !s.Sim {
				covered += s.DurUS
			}
		}
	}
	v["service.trace_cover_frac"] = ratio(covered, wall)
}

// write saves the spans to <dir>/<workload>.trace.json.
func (c *chainRun) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, c.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), raw, 0o644)
}

// sdkLayer calls an SDK driver with the binary's own tracing on.
func sdkLayer(name string, opt optimizer.Optimizer) layer {
	call := sdkCall(opt, optimizer.WithTrace())
	return layer{name: name, call: func(ctx context.Context, _ int, o *op) (layerInfo, error) {
		out := call(ctx, o)
		return layerInfo{sdk: out}, out.err
	}}
}

// tracedCtx attaches a fresh trace, as the HTTP surface does for ?trace=1.
func tracedCtx(ctx context.Context) context.Context {
	return obs.WithTrace(ctx, obs.NewTrace(""))
}

func serviceLayer(parent string, svc *service.Service) layer {
	return layer{name: "service.optimize", parent: parent, call: func(ctx context.Context, _ int, o *op) (layerInfo, error) {
		res, err := svc.Optimize(tracedCtx(ctx), o.q)
		if err != nil {
			return layerInfo{}, err
		}
		return layerInfo{svc: res}, nil
	}}
}

func fingerprintLayer() layer {
	return layer{name: "service.fingerprint", parent: "service.optimize", call: func(_ context.Context, _ int, o *op) (layerInfo, error) {
		service.FingerprintQuery(o.q)
		return layerInfo{}, nil
	}}
}

// enumerateLayer runs the enumerator the router picks, on the backend it
// picks, directly: no cache, no queue, no memo hooks. Requests the service
// answered from its cache are skipped. A run that exhausts the budget is
// timed up to there: the service would fall back at the same moment.
func enumerateLayer(c *chainRun, svc *service.Service, backs *backend.Set, timeout time.Duration) layer {
	return layer{name: "enumerate", parent: "service.optimize", call: func(ctx context.Context, req int, o *op) (layerInfo, error) {
		if c.hit[req] {
			return layerInfo{skip: true}, nil
		}
		alg, bid, _ := svc.Route(o.q)
		_, err := backs.Get(bid).Optimize(ctx, o.q, alg, backend.Options{Model: cost.DefaultModel(), Timeout: timeout})
		if errors.Is(err, dp.ErrTimeout) {
			err = nil
		}
		return layerInfo{}, err
	}}
}

// traceRounds is how many rounds of a closed-loop workload the traced run
// replays: about a quarter of a run, as whole rounds so that counts repeat.
func traceRounds(prepared int) int {
	if n := prepared / 5; n > 1 {
		return n
	}
	return 1
}

// traceClosed is the traced run of a closed-loop SDK workload.
func traceClosed(ctx context.Context, spec closedSpec, cfg runConfig, res *runResult) error {
	in, err := setupClosed(spec, cfg)
	if err != nil {
		return err
	}
	defer in.close()
	var ops []*op
	for _, r := range in.rounds[:traceRounds(len(in.rounds))] {
		ops = append(ops, r...)
	}
	served := optimizer.Served(optimizer.ServedConfig{Workers: runtime.GOMAXPROCS(0), Timeout: exactBudget})
	defer served.Close()
	svc := service.New(service.Config{Workers: runtime.GOMAXPROCS(0), Timeout: exactBudget})
	defer svc.Close()
	backs := backend.NewSet(backend.GPUConfig{})
	defer backs.Close()

	c := &chainRun{ops: ops}
	c.layers = []layer{
		sdkLayer("optimizer.served", served),
		serviceLayer("optimizer.served", svc),
		fingerprintLayer(),
		enumerateLayer(c, svc, backs, exactBudget),
	}
	if err := c.run(ctx, sdkCall(in.opt), nil); err != nil {
		return err
	}
	t, err := check(c.sdk, spec.sloLimit, true)
	if err != nil {
		return err
	}
	res.correct, res.attempted, res.failed, res.mix = true, t.attempted, t.failed, mixOf(c.sdk)

	v := layerValues{}
	c.common(v)
	snap := svc.Counters().Snapshot()
	for id, b := range snap.Backends {
		v["backend.routed."+id] = float64(b.Routed)
	}
	v["service.fellback_frac"] = ratio(float64(snap.Fallbacks), float64(snap.Misses))
	v["service.cache_len"], v["service.sub_len"] = float64(svc.CacheLen()), float64(svc.SubCacheLen())
	probe := in.rounds[0]
	if spec.exact {
		probeEnumerators(ctx, probe, svc, backs, v)
	} else {
		probeHeuristics(probe, v)
	}
	v.emit(res)
	res.notes = append(res.notes, fmt.Sprintf("traced %d requests through %d layers; direct probes on %d queries", len(ops), len(c.layers), len(probe)))
	return c.write(cfg.outDir, cfg.workload)
}

// traceServe is the traced run of a serving workload.
func traceServe(ctx context.Context, spec serveSpec, cfg runConfig, res *runResult) error {
	in, err := setupServe(ctx, spec, cfg)
	if err != nil {
		return err
	}
	defer in.close()
	// A quarter of the run: the open loop's first arrivals, then the closed
	// loop, for what only shows under concurrency: generator lag, queueing,
	// shedding, coalescing, replication, the tail percentiles.
	v := layerValues{}
	quarter := in.arrivals[:(len(in.arrivals)+3)/4]
	ops := make([]*op, len(quarter))
	for i, a := range quarter {
		ops[i] = a.op
	}
	warmed := nodeTotals(in.st.cl.Snapshot())
	run := runServe(ctx, in, quarter, cfg.seconds/4)
	for _, outs := range [][]outcome{run.open, run.closed} {
		if _, err := check(outs, spec.sloLimit, spec.churn); err != nil {
			return err
		}
	}
	lag50, lag99, _ := genLag(run.open)
	openLats := lats(run.open)
	v["lat_open_p50_ms"], v["lat_p95_ms"], v["lat_p99_ms"] = ms(openLats.pct(0.5)), ms(openLats.pct(0.95)), ms(openLats.pct(0.99))
	v["bench.gen_lag_p50_us"], v["bench.gen_lag_p99_us"] = us(lag50), us(lag99)
	snap := in.st.cl.Snapshot()
	// Counters are the two phases' alone: what warming the stack did is
	// subtracted. (The queue-wait histogram cannot be, so it is reported
	// only when the phases themselves queued something.)
	d := nodeTotals(snap)
	d.sub(warmed)
	v["service.cache_hit_ratio"] = ratio(float64(d.Hits+d.Coalesced), float64(d.Hits+d.Misses+d.Coalesced))
	v["cluster.replicated"], v["cluster.overflows"] = float64(snap.Replicated-warmed.replicated), float64(snap.Overflows)
	if d.Queued > 0 {
		v["service.queue_wait_p99_us"] = snap.Latency["queue_wait"].P99MS * 1000
	}
	v["service.shed_frac"] = ratio(float64(d.Shed), float64(d.Requests))
	v["service.coalesced_frac"] = ratio(float64(d.Coalesced), float64(d.Requests))

	// The standalone instances, one per layer, all warmed alike.
	var stacks []*stack
	defer func() {
		for _, s := range stacks {
			s.close()
		}
	}()
	for len(stacks) < 3 {
		s, err := newStack(spec.node)
		if err != nil {
			return err
		}
		stacks = append(stacks, s)
		if err := s.warm(ctx, in.pool, spec.churn); err != nil {
			return err
		}
	}
	untraced, sdkStack, httpStack := stacks[0], stacks[1], stacks[2]
	cl := cluster.New(cluster.Config{Nodes: 2, Replicas: 2, Service: spec.node})
	defer cl.Close()
	svc := service.New(spec.node)
	defer svc.Close()
	backs := backend.NewSet(backend.GPUConfig{})
	defer backs.Close()
	for _, o := range in.pool {
		if _, err := cl.Optimize(ctx, o.q); err != nil {
			return err
		}
		if _, err := svc.Optimize(ctx, o.q); err != nil {
			return err
		}
	}
	if spec.churn {
		cl.BumpStatsEpochAll()
		svc.BumpStatsEpoch()
	}
	bodies := make([][]byte, len(ops))
	for i, o := range ops {
		if bodies[i], err = json.Marshal(httpapi.FromQuery(o.q)); err != nil {
			return err
		}
	}

	c := &chainRun{ops: ops}
	c.layers = []layer{
		sdkLayer("optimizer.remote", sdkStack.remote),
		{name: "httpapi.roundtrip", parent: "optimizer.remote", call: func(ctx context.Context, req int, _ *op) (layerInfo, error) {
			return layerInfo{}, postExplain(ctx, httpStack, bodies[req])
		}},
		{name: "cluster.optimize", parent: "httpapi.roundtrip", call: func(ctx context.Context, _ int, o *op) (layerInfo, error) {
			_, err := cl.Optimize(tracedCtx(ctx), o.q)
			return layerInfo{}, err
		}},
		serviceLayer("cluster.optimize", svc),
		fingerprintLayer(),
		enumerateLayer(c, svc, backs, 0),
	}
	// The catalog is re-analysed ahead of the same requests on every
	// instance.
	before := func(i int) {
		if ops[i].bump {
			for _, s := range stacks {
				s.cl.BumpStatsEpochAll()
			}
			cl.BumpStatsEpochAll()
			svc.BumpStatsEpoch()
		}
	}
	if err := c.run(ctx, sdkCall(untraced.remote), before); err != nil {
		return err
	}
	t, err := check(c.sdk, spec.sloLimit, spec.churn)
	if err != nil {
		return err
	}
	res.correct, res.attempted, res.failed, res.mix = true, t.attempted, t.failed, mixOf(c.sdk)

	c.common(v)
	hit := func(i int) bool { return c.hit[i] }
	class := func(want string) func(int) bool {
		return func(i int) bool { return c.hit[i] && ops[i].class == want }
	}
	v["service.hit_p50_us"] = us(c.p50(c.dur["service.optimize"], class("replay")))
	v["service.twin_hit_p50_us"] = us(c.p50(c.dur["service.optimize"], class("twin")))
	v["cluster.hit_p50_us"] = us(c.p50(c.dur["cluster.optimize"], hit))
	v["cluster.self_p50_us"] = us(c.diffP50("cluster.optimize", "service.optimize", hit))
	v["httpapi.hit_p50_us"] = us(c.p50(c.dur["httpapi.roundtrip"], hit))
	v["httpapi.self_p50_us"] = us(c.diffP50("httpapi.roundtrip", "cluster.optimize", hit))
	v["optimizer.remote_self_p50_us"] = us(c.diffP50("optimizer.remote", "httpapi.roundtrip", nil))
	ssnap := svc.Counters().Snapshot()
	v["service.stale_probes"], v["service.recost_wins"] = float64(ssnap.StaleProbes), float64(ssnap.RecostWins)
	v["service.cache_len"], v["service.sub_len"] = float64(svc.CacheLen()), float64(svc.SubCacheLen())
	for id, b := range ssnap.Backends {
		v["backend.routed."+id] = float64(b.Routed)
	}
	v["service.fellback_frac"] = ratio(float64(ssnap.Fallbacks), float64(ssnap.Misses))
	probe := ops
	if len(probe) > 64 {
		probe = probe[:64]
	}
	if err := probeWire(probe, bodies, v); err != nil {
		return err
	}
	probeEnumerators(ctx, probe, svc, backs, v)
	v.emit(res)
	res.notes = append(res.notes, fmt.Sprintf("traced %d requests through %d layers; open loop of %d arrivals and closed loop of %d answers; direct probes on %d queries", len(ops), len(c.layers), len(quarter), len(run.closed), len(probe)))
	return c.write(cfg.outDir, cfg.workload)
}

// totals is the sum of the nodes' service counters at one moment.
type totals struct {
	service.Snapshot
	replicated uint64
}

func nodeTotals(snap cluster.Snapshot) totals {
	t := totals{replicated: snap.Replicated}
	for _, n := range snap.PerNode {
		t.Requests += n.Requests
		t.Hits += n.Hits
		t.Misses += n.Misses
		t.Coalesced += n.Coalesced
		t.Shed += n.Shed
		t.Queued += n.Queued
	}
	return t
}

func (t *totals) sub(o totals) {
	t.Requests -= o.Requests
	t.Hits -= o.Hits
	t.Misses -= o.Misses
	t.Coalesced -= o.Coalesced
	t.Shed -= o.Shed
	t.Queued -= o.Queued
}

// postExplain is the SDK's request without the SDK: the pre-encoded body
// posted to /v1/explain with tracing on, the response read and dropped.
func postExplain(ctx context.Context, s *stack, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/v1/explain?trace=1", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/explain: %s", resp.Status)
	}
	return nil
}

// timeEach returns the median time of f over i in [0, n).
func timeEach(n int, f func(i int) error) (time.Duration, error) {
	var s durs
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		s = append(s, time.Since(t0))
	}
	return s.sorted().pct(0.5), nil
}

// probeWire times the codec and the SQL front end on the workload's own
// queries: encoding a query for the wire, decoding it back into a query,
// and compiling the same join written as SQL text.
func probeWire(ops []*op, bodies [][]byte, v layerValues) error {
	enc, err := timeEach(len(ops), func(i int) error {
		_, err := json.Marshal(httpapi.FromQuery(ops[i].q))
		return err
	})
	if err != nil {
		return err
	}
	dec, err := timeEach(len(ops), func(i int) error {
		var wq httpapi.WireQuery
		if err := json.Unmarshal(bodies[i], &wq); err != nil {
			return err
		}
		_, err := wq.ToQuery(nil)
		return err
	})
	if err != nil {
		return err
	}
	schema := sql.MusicBrainzSchema()
	stmts := make([]string, len(ops))
	for i, o := range ops {
		stmts[i] = sqlText(o.q)
	}
	comp, err := timeEach(len(ops), func(i int) error {
		_, err := sql.Compile(stmts[i], schema)
		return err
	})
	if err != nil {
		return fmt.Errorf("compiling generated SQL: %w", err)
	}
	v["wire.encode_p50_us"], v["wire.decode_p50_us"], v["sql.compile_p50_us"] = us(enc), us(dec), us(comp)
	return nil
}

// sqlText writes a MusicBrainz query's join graph as a statement of the
// internal dialect. Every predicate gets its own column pair so the binder
// adds no transitive edges. Relations are aliased: a twin's relation names
// are not schema tables.
func sqlText(q *cost.Query) string {
	base := catalogNames(q)
	var b strings.Builder
	b.WriteString("SELECT t0.id FROM ")
	for i, name := range base {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s t%d", name, i)
	}
	b.WriteString(" WHERE ")
	for i, e := range q.G.Edges {
		if i > 0 {
			b.WriteString(" AND ")
		}
		fmt.Fprintf(&b, "t%d.c%d = t%d.c%d", e.A, i, e.B, i)
	}
	return b.String()
}

// catalogNames maps a query's relations to schema tables for sqlText: a
// relation that is not a schema table (a renamed twin) is read as "artist",
// which changes the statistics the binder sees but not the work it does.
func catalogNames(q *cost.Query) []string {
	schema := sql.MusicBrainzSchema()
	names := make([]string, q.N())
	for i, n := range q.Names() {
		if _, ok := schema[n]; !ok {
			n = "artist"
		}
		names[i] = n
	}
	return names
}

// probeEnumerators calls the exact enumerators directly on the workload's
// own queries. The level-driver probes (MPDP sequential and parallel) are
// limited to queries of at most 25 relations, the CPU band: beyond it a
// single cyclic block makes CPU MPDP walk 2^n subsets. Counts are exact
// and repeat for a seed.
func probeEnumerators(ctx context.Context, ops []*op, svc *service.Service, backs *backend.Set, v layerValues) {
	model := cost.DefaultModel()
	var mpdpMS, dpccpMS, overDPCCP, parMS, speedup, blocksMS, gpuWallMS []float64
	var st dp.Stats
	var dpccpTime time.Duration
	var dpccpPairs, blocks, sets, cpuOps uint64
	var seqMallocs, seqBytes, parMallocs uint64
	var gpuSimMS float64
	var mem0, mem1 runtime.MemStats
	for _, o := range ops {
		in := dp.Input{Q: o.q, M: model}
		t0 := time.Now()
		_, cst, err := dp.DPCCP(in)
		dccp := time.Since(t0)
		if err != nil {
			continue
		}
		dpccpTime += dccp
		dpccpPairs += cst.CCP

		if buckets, err := dp.ConnectedBuckets(in); err == nil {
			var sc graph.BlockScratch
			t0 = time.Now()
			for _, bucket := range buckets {
				for _, s := range bucket {
					blocks += uint64(len(o.q.G.FindBlocksInto(s, &sc)))
					sets++
				}
			}
			blocksMS = append(blocksMS, ms(time.Since(t0)))
		}

		if o.q.N() <= 25 {
			runtime.ReadMemStats(&mem0)
			t0 = time.Now()
			_, mst, err := dp.MPDP(in)
			seq := time.Since(t0)
			runtime.ReadMemStats(&mem1)
			if err != nil {
				continue
			}
			seqMallocs += mem1.Mallocs - mem0.Mallocs
			seqBytes += mem1.TotalAlloc - mem0.TotalAlloc
			st.Add(mst)
			cpuOps++
			pin := in
			pin.Threads = runtime.GOMAXPROCS(0)
			t0 = time.Now()
			_, _, err = parallel.MPDP(pin)
			par := time.Since(t0)
			runtime.ReadMemStats(&mem0)
			if err != nil {
				continue
			}
			parMallocs += mem0.Mallocs - mem1.Mallocs
			mpdpMS, dpccpMS = append(mpdpMS, ms(seq)), append(dpccpMS, ms(dccp))
			overDPCCP = append(overDPCCP, ratio(float64(seq), float64(dccp)))
			parMS, speedup = append(parMS, ms(par)), append(speedup, ratio(float64(seq), float64(par)))
		}

		// The GPU band goes through the backend, as the service does:
		// core.Optimize(mpdp-gpu) models one device without fused pruning
		// and does not finish a 40-relation cycle in a minute.
		if alg, bid, _ := svc.Route(o.q); bid == backend.GPU {
			t0 = time.Now()
			r, err := backs.Get(bid).Optimize(ctx, o.q, alg, backend.Options{Model: model, Timeout: exactBudget})
			if err == nil && r.GPU != nil {
				gpuWallMS = append(gpuWallMS, ms(time.Since(t0)))
				gpuSimMS += r.GPU.SimTimeMS
			}
		}
	}
	v["dp.mpdp_ms"], v["dp.dpccp_ms"], v["dp.mpdp_over_dpccp"] = geomean(mpdpMS), geomean(dpccpMS), geomean(overDPCCP)
	v["dp.evaluated_pairs"], v["dp.ccp_pairs"] = float64(st.Evaluated), float64(st.CCP)
	v["dp.useful_pair_frac"] = ratio(float64(st.CCP), float64(st.Evaluated))
	v["dp.connected_sets"] = float64(st.ConnectedSets)
	v["graph.find_blocks_ms"] = geomean(blocksMS)
	v["graph.blocks_per_set"] = ratio(float64(blocks), float64(sets))
	v["dp.ns_per_ccp_pair"] = ratio(float64(dpccpTime.Nanoseconds()), float64(dpccpPairs))
	v["dp.allocs_per_op"] = ratio(float64(seqMallocs), float64(cpuOps))
	v["dp.bytes_per_op"] = ratio(float64(seqBytes), float64(cpuOps))
	v["parallel.mpdp_ms"], v["parallel.speedup"] = geomean(parMS), geomean(speedup)
	v["parallel.allocs_per_op"] = ratio(float64(parMallocs), float64(cpuOps))
	v["gpusim.wall_ms"], v["gpusim.sim_ms"] = geomean(gpuWallMS), gpuSimMS
}

// probeHeuristics calls the heuristics directly on the workload's own
// queries: the two baselines on every query, and the MPDP-based heuristic
// the router would pick (IDP2 on trees, UnionDP otherwise).
func probeHeuristics(ops []*op, v layerValues) {
	opt := heuristic.Options{Model: cost.DefaultModel()}
	timed := func(f func(*cost.Query, heuristic.Options) (*plan.Node, error), q *cost.Query) (float64, float64) {
		t0 := time.Now()
		p, err := f(q, opt)
		if err != nil {
			return 0, 0
		}
		return ms(time.Since(t0)), p.Cost
	}
	var goo, lin, idp2, union, idp2Ratio, unionRatio []float64
	for _, o := range ops {
		t, _ := timed(heuristic.GOO, o.q)
		goo = append(goo, t)
		t, _ = timed(heuristic.Adaptive, o.q)
		lin = append(lin, t)
		if service.DetectShape(o.q.G).IsTree() {
			t, c := timed(heuristic.IDP2, o.q)
			idp2, idp2Ratio = append(idp2, t), append(idp2Ratio, ratio(c, o.ref))
		} else {
			t, c := timed(heuristic.UnionDP, o.q)
			union, unionRatio = append(union, t), append(unionRatio, ratio(c, o.ref))
		}
	}
	v["heuristic.goo_ms"], v["heuristic.lindp_ms"] = geomean(goo), geomean(lin)
	v["heuristic.idp2_ms"], v["heuristic.uniondp_ms"] = geomean(idp2), geomean(union)
	v["heuristic.idp2_cost_ratio"], v["heuristic.uniondp_cost_ratio"] = geomean(idp2Ratio), geomean(unionRatio)
}
