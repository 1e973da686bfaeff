package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/pkg/optimizer"
)

// exactBudget is the per-query optimization budget of the SDK workloads:
// the paper's promise is the exact optimum *inside a fixed budget*.
const exactBudget = time.Second

// closedSpec describes one closed-loop SDK workload: one caller drives
// optimizer.Served through rounds of the same join graphs under fresh
// statistics, every query new to the cache.
type closedSpec struct {
	// round is the mix every round draws (fresh statistics each time), sized
	// to take 0.55-0.7 s at the commit that defined the benchmark.
	round []mixItem
	// singles run once each, one after each of the first rounds: queries too
	// expensive (or, for rungs, too slow by design) to repeat every round.
	// They count in every metric except latency and throughput.
	singles []mixItem
	rungs   []mixItem // singles that are expected to blow the budget
	toy     []mixItem // the round of the smoke test
	// exact selects the oracle: dp.DPCCP optimum, else min(GOO, LinDP).
	exact bool
	// sloLimit is the latency within which an answer counts for slo_ok_frac.
	sloLimit time.Duration
}

var closedSpecs = map[string]closedSpec{
	"exact-dense": {
		round: []mixItem{
			{"clique", 11, 6}, {"clique", 12, 4}, {"clique", 13, 1}, {"clique", 14, 1},
			{"star", 14, 6}, {"star", 15, 4}, {"star", 16, 3}, {"star", 17, 1}, {"star", 18, 1},
		},
		rungs:    []mixItem{{"clique", 16, 1}},
		toy:      []mixItem{{"clique", 9, 2}, {"star", 12, 2}, {"clique", 11, 1}},
		exact:    true,
		sloLimit: 2 * exactBudget,
	},
	"exact-sparse": {
		round: []mixItem{
			{"cycle", 16, 3}, {"cycle", 18, 2}, {"cycle", 20, 2}, {"cycle", 22, 1}, {"cycle", 24, 1},
			{"musicbrainz", 14, 3}, {"musicbrainz", 16, 2}, {"musicbrainz", 18, 1},
			{"chain", 25, 2}, {"snowflake", 20, 2}, {"snowflake", 23, 1}, {"snowflake", 26, 1},
			{"chain", 40, 2}, {"cycle", 40, 2}, {"snowflake", 28, 1},
		},
		singles:  []mixItem{{"snowflake", 30, 1}, {"musicbrainz", 20, 1}},
		rungs:    []mixItem{{"snowflake", 34, 1}},
		toy:      []mixItem{{"cycle", 16, 1}, {"musicbrainz", 13, 1}, {"chain", 25, 1}, {"snowflake", 20, 1}, {"cycle", 30, 1}},
		exact:    true,
		sloLimit: 2 * exactBudget,
	},
	"heuristic-large": {
		round: []mixItem{
			{"snowflake", 60, 3}, {"snowflake", 120, 2}, {"snowflake", 250, 1},
			{"star", 60, 3}, {"star", 100, 2}, {"star", 200, 1},
			// Two cycle-100s and three cycle-200s so that the round's median
			// is always a cycle-200, 7.4 ms whatever its statistics: below it
			// sit five small queries and, depending on their statistics, two
			// to four of the MusicBrainz-56s and snowflake-120s (3.5-8 ms).
			{"cycle", 100, 2}, {"cycle", 200, 3},
			{"musicbrainz", 56, 2},
		},
		// The LinDP baseline costs several times what the served heuristic
		// does at these sizes, so the large ones run once, not every round.
		singles:  []mixItem{{"star", 300, 1}, {"snowflake", 500, 1}, {"snowflake", 1000, 1}, {"cycle", 400, 1}, {"cycle", 600, 1}},
		toy:      []mixItem{{"snowflake", 60, 1}, {"star", 60, 1}, {"cycle", 100, 1}, {"musicbrainz", 56, 1}},
		exact:    false,
		sloLimit: exactBudget,
	},
}

// closedInputs is what set-up produces for a closed-loop workload.
type closedInputs struct {
	rounds  [][]*op
	singles []*op // singles[i] runs after rounds[i]
	opt     optimizer.Optimizer
}

func (in *closedInputs) close() { in.opt.Close() }

// roundsFor is how many rounds set-up prepares for a run of the given
// length: with the once-only queries, about what the timed loop gets
// through at the defining commit. Every reference cost is a DPCCP run in
// set-up, so spare rounds are not free; a faster build runs out of rounds
// before the time is up, and its latency and rate are floors over the rounds
// it ran anyway.
func roundsFor(seconds float64) int {
	n := int(seconds*1.25 + 0.999)
	if n < 1 {
		n = 1
	}
	return n
}

// setupClosed generates the rounds from the seed, computes every reference
// cost and starts the service. Nothing is warmed: the workload is cold.
func setupClosed(spec closedSpec, cfg runConfig) (*closedInputs, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	in := &closedInputs{}
	round, nRounds := spec.round, roundsFor(cfg.seconds)
	if cfg.toy {
		round, nRounds = spec.toy, 1
	}
	var all []*op
	for r := 0; r < nRounds; r++ {
		// Every round draws the same join graphs.
		ops, err := genMix(round, "cold", rand.New(rand.NewSource(shapeSeed)), rng)
		if err != nil {
			return nil, err
		}
		in.rounds = append(in.rounds, ops)
		all = append(all, ops...)
	}
	if !cfg.toy {
		shape := rand.New(rand.NewSource(shapeSeed + 1))
		rungs, err := genMix(spec.rungs, "rung", shape, rng)
		if err != nil {
			return nil, err
		}
		singles, err := genMix(spec.singles, "cold", shape, rng)
		if err != nil {
			return nil, err
		}
		in.singles = append(rungs, singles...)
	}
	if err := checkDistinct(append(all, in.singles...)); err != nil {
		return nil, err
	}
	if err := computeReferences(in.singles, all, spec.exact); err != nil {
		return nil, err
	}
	in.opt = optimizer.Served(optimizer.ServedConfig{
		Workers: runtime.GOMAXPROCS(0),
		Timeout: exactBudget,
	})
	return in, nil
}

// outcome is what one timed call returned, kept for checking afterwards so
// that no oracle work sits inside the timed loop.
type outcome struct {
	op  *op
	lat time.Duration
	err error
	res *optimizer.Result
	// at places the request inside its phase: when it was due (open loop)
	// or when it completed (capacity phase), from the phase's start; in a
	// closed-loop workload, the index of its round.
	at      time.Duration
	lateBy  time.Duration // open loop only: how late the generator sent it
	dropped bool          // open loop only: never sent, harness saturated
}

// closedRun is the raw result of the timed loop.
type closedRun struct {
	outs    []outcome // every call, in order; at is the index of its round, -1 for a single
	rounds  int       // whole rounds run
	elapsed time.Duration
	allocKB float64
}

// runClosed drives whole rounds until the time is up (or the rounds run
// out), one caller, each call asking for its plan. singles[i] runs after
// rounds[i].
func runClosed(ctx context.Context, rounds [][]*op, singles []*op, seconds float64, call func(context.Context, *op) outcome) closedRun {
	var run closedRun
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for r, ops := range rounds {
		if r > 0 && time.Since(start).Seconds() >= seconds {
			break
		}
		for _, o := range ops {
			out := call(ctx, o)
			out.at = time.Duration(r)
			run.outs = append(run.outs, out)
		}
		run.rounds++
		if r < len(singles) {
			out := call(ctx, singles[r])
			out.at = -1
			run.outs = append(run.outs, out)
		}
	}
	run.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	run.allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024
	return run
}

// roundFloors is, for each query of a round, the fastest correct answer that
// any query of its slot got in any round, in milliseconds; singles are left
// out. Every round asks the same join graphs under fresh statistics, and
// what disturbs an answer only ever slows it (on this host that is the
// neighbours, in bursts of tens of milliseconds, about half of the time), so
// the floors are the round as an undisturbed host would run it.
func roundFloors(ok []outcome, round []*op) []float64 {
	fastest := map[int]float64{}
	for _, o := range ok {
		if l, seen := fastest[o.op.slot]; o.at >= 0 && (!seen || ms(o.lat) < l) {
			fastest[o.op.slot] = ms(o.lat)
		}
	}
	floors := make([]float64, len(round))
	for i, o := range round {
		floors[i] = fastest[o.slot]
	}
	return floors
}

// sdkCall is the timed operation of every workload: one SDK Optimize that
// asks for the plan, as a client that wants to execute it would.
func sdkCall(opt optimizer.Optimizer, extra ...optimizer.Option) func(context.Context, *op) outcome {
	opts := append([]optimizer.Option{optimizer.WithExplain()}, extra...)
	return func(ctx context.Context, o *op) outcome {
		t0 := time.Now()
		res, err := opt.Optimize(ctx, o.sdk, opts...)
		return outcome{op: o, lat: time.Since(t0), res: res, err: err}
	}
}

// tally is the checked summary of a set of outcomes.
type tally struct {
	attempted, failed int
	ok                []outcome // the correct answers
	ratios            []float64 // served cost / reference, correct answers
	inBudget          int       // the optimum (or a plan within baselineSlack of the baseline), no fallback, within the budget
	inSLO             int       // correct within sloLimit
	firstErr          error
}

// check verifies every outcome against the oracle. wantMiss makes a cache
// hit a harness error: a cold workload that hits measured nothing.
func check(outs []outcome, sloLimit time.Duration, wantMiss bool) (tally, error) {
	var t tally
	for _, out := range outs {
		t.attempted++
		err := out.err
		if out.dropped {
			err = fmt.Errorf("%s: arrival dropped by the generator", out.op.label)
		}
		if err == nil {
			res := out.res
			switch {
			case res.Fingerprint != out.op.fp:
				return t, fmt.Errorf("harness: %s reached the server as a different query (fingerprint %s, generated %s)", out.op.label, res.Fingerprint, out.op.fp)
			case wantMiss && (res.CacheHit || res.Coalesced):
				return t, fmt.Errorf("harness: cold query %s was a cache hit", out.op.label)
			}
			if err = checkAnswer(out.op, res.Cost, res.FellBack); err == nil {
				err = checkPlan(out.op.q, res.Explain)
			}
		}
		if err != nil {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = err
			}
			continue
		}
		t.ok = append(t.ok, out)
		t.ratios = append(t.ratios, out.res.Cost/out.op.ref)
		slack := costTol
		if !out.op.exactRef {
			slack = baselineSlack
		}
		if !out.res.FellBack && out.lat <= exactBudget && out.res.Cost <= out.op.ref*(1+slack) {
			t.inBudget++
		}
		if out.lat <= sloLimit {
			t.inSLO++
		}
	}
	return t, nil
}

// plus is the tally of both sets of outcomes.
func (t tally) plus(u tally) tally {
	t.attempted += u.attempted
	t.failed += u.failed
	t.ok = append(append([]outcome(nil), t.ok...), u.ok...)
	t.ratios = append(append([]float64(nil), t.ratios...), u.ratios...)
	t.inBudget += u.inBudget
	t.inSLO += u.inSLO
	if t.firstErr == nil {
		t.firstErr = u.firstErr
	}
	return t
}

// lats returns the sorted latencies of the given outcomes.
func lats(outs []outcome) durs {
	d := make(durs, len(outs))
	for i, o := range outs {
		d[i] = o.lat
	}
	return d.sorted()
}

// chunkFloor cuts one caller's answers, in order and after the first warmup
// of them, into chunks of n and returns the lowest median latency any chunk
// had, in milliseconds, and the highest rate any chunk had, per second. What
// disturbs a chunk only ever slows it, so these are the chunk an undisturbed
// host would give every time. The warm-up is a count, not a time, so that a
// chunk holds the same requests in every run. With fewer than n answers left
// they are one chunk.
func chunkFloor(outs []outcome, warmup, n int) (p50ms, rate float64, chunks int) {
	from := time.Duration(0)
	if warmup >= len(outs) {
		warmup = 0
	}
	if warmup > 0 {
		from, outs = outs[warmup-1].at, outs[warmup:]
	}
	if len(outs) == 0 {
		return 0, 0, 0
	}
	if len(outs) < n {
		n = len(outs)
	}
	p50ms = math.Inf(1)
	for i := 0; i+n <= len(outs); i += n {
		to := outs[i+n-1].at
		p50ms = math.Min(p50ms, ms(lats(outs[i:i+n]).pct(0.5)))
		rate = math.Max(rate, float64(n)/(to-from).Seconds())
		from = to
		chunks++
	}
	return p50ms, rate, chunks
}

// endToEnd turns a tally into the end-to-end metrics every workload
// reports. Fractions are of attempted operations, so a failed, shed or
// timed-out request misses every limit.
func (t tally) endToEnd(m *metrics, setup time.Duration, p50ms, plansPerS, sloOK, allocKBPerPlan float64) {
	n := float64(t.attempted)
	m.set("setup_s", "s", setup.Seconds())
	m.set("plans_per_s", "1/s", plansPerS)
	m.set("lat_p50_ms", "ms", p50ms)
	m.set("slo_ok_frac", "frac", sloOK)
	m.set("exact_in_budget_frac", "frac", ratio(float64(t.inBudget), n))
	m.set("plan_cost_ratio", "ratio", geomean(t.ratios))
	m.set("alloc_kb_per_plan", "KB", allocKBPerPlan)
}
