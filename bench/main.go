// Package bench is the repository's benchmark: one driver for five named
// workloads, the end-to-end metrics a user of the optimizer would see, and
// outside-in probes of every layer a request crosses. BENCHMARK.json at the
// repository root names the workloads, the metrics, their units and the
// bound by which each end-to-end metric may worsen; README.md in this
// directory says what each one means and which layer should move which.
//
// The driver's contract (one workload, one JSON line last on stdout):
//
//	bash bench/run.sh --workload serve-warm --seed 1 --seconds 15 --trace 0
//
// For people:
//
//	bash bench/run.sh -workload all -seed 1            # end-to-end table
//	bash bench/run.sh -workload all -seed 1 -trace 1   # per-layer table + bench/out/*.trace.json
//	bash bench/run.sh -workload exact-dense -repeat 5 -out a.json
//	bash bench/run.sh -compare a.json b.json
//
// The program is cmd/bench; this package is all of it but the root context.
package bench

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloadNames is the order workloads run and print in.
var workloadNames = []string{"exact-dense", "exact-sparse", "heuristic-large", "serve-warm", "serve-churn"}

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	toy      bool   // smoke-test scale: the smallest sizes, no rungs
	outDir   string // where a traced run writes <workload>.trace.json
}

// runResult is one run's outcome. Its JSON form is the contract's line.
type runResult struct {
	workload  string
	seed      int64
	trace     bool
	correct   bool
	attempted int
	failed    int
	metrics   metrics
	mix       map[string]int // offered requests by class, a count that repeats for a seed
	notes     []string       // sample counts and anything a reader should know
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) MarshalJSON() ([]byte, error) {
	ms := make(map[string]jsonValue, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.Name] = jsonValue{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]jsonValue `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
}

// closer is a set of prepared inputs that holds running servers.
type closer interface{ close() }

// repeatSetup runs set-up up to five times and reports the median time,
// keeping the last result. It stops repeating once set-up has taken 0.4 of
// the run's length in all: more would only make the benchmark slower, and a
// set-up that long is steady without the median.
func repeatSetup[T closer](cfg runConfig, build func() (T, error)) (T, time.Duration, error) {
	seconds, repeats := cfg.seconds, 5
	if cfg.toy {
		repeats = 1
	}
	var times []float64
	var total time.Duration
	for {
		t0 := time.Now()
		in, err := build()
		if err != nil {
			return in, 0, err
		}
		d := time.Since(t0)
		times = append(times, d.Seconds())
		total += d
		if len(times) == repeats || total.Seconds() >= 0.4*seconds {
			return in, time.Duration(median(times) * float64(time.Second)), nil
		}
		in.close()
	}
}

// runWorkload runs one workload once, untraced (end-to-end metrics) or
// traced (per-layer metrics).
func runWorkload(ctx context.Context, cfg runConfig) (*runResult, error) {
	res := &runResult{workload: cfg.workload, seed: cfg.seed, trace: cfg.trace}
	var err error
	if spec, ok := closedSpecs[cfg.workload]; ok {
		if cfg.trace {
			err = traceClosed(ctx, spec, cfg, res)
		} else {
			err = measureClosed(ctx, spec, cfg, res)
		}
	} else if spec, ok := serveSpecs(cfg.workload); ok {
		if cfg.trace {
			err = traceServe(ctx, spec, cfg, res)
		} else {
			err = measureServe(ctx, spec, cfg, res)
		}
	} else {
		err = fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	res.correct = res.correct && res.failed == 0
	res.notes = append(res.notes, fmt.Sprintf("request mix %v", res.mix))
	return res, nil
}

// mixOf counts requests by class.
func mixOf(outs []outcome) map[string]int {
	mix := map[string]int{}
	for _, o := range outs {
		mix[o.op.class]++
	}
	return mix
}

// classP50 renders the median latency of each request class.
func classP50(ok []outcome) string {
	by := map[string][]outcome{}
	for _, o := range ok {
		by[o.op.class] = append(by[o.op.class], o)
	}
	var classes []string
	for c := range by {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var b strings.Builder
	for _, c := range classes {
		fmt.Fprintf(&b, " %s %.3fms (%d)", c, ms(lats(by[c]).pct(0.5)), len(by[c]))
	}
	return b.String()
}

// measureClosed is the untraced run of a closed-loop SDK workload.
func measureClosed(ctx context.Context, spec closedSpec, cfg runConfig, res *runResult) error {
	in, setup, err := repeatSetup(cfg, func() (*closedInputs, error) { return setupClosed(spec, cfg) })
	if err != nil {
		return err
	}
	defer in.close()
	run := runClosed(ctx, in.rounds, in.singles, cfg.seconds, sdkCall(in.opt))
	t, err := check(run.outs, spec.sloLimit, true)
	if err != nil {
		return err
	}
	res.correct, res.attempted, res.failed, res.mix = true, t.attempted, t.failed, mixOf(run.outs)
	// The median latency is that of a round's queries each at the fastest its
	// join graph was answered in any round, and throughput the rate of such a
	// round. The once-only
	// queries between rounds count in everything else.
	floors := roundFloors(t.ok, in.rounds[0])
	total := 0.0
	for _, f := range floors {
		total += f
	}
	t.endToEnd(&res.metrics, setup, median(floors), ratio(1000*float64(len(floors)), total), ratio(float64(t.inSLO), float64(t.attempted)), ratio(run.allocKB, float64(len(run.outs))))
	res.notes = append(res.notes,
		fmt.Sprintf("closed loop, 1 caller, %d rounds of %d queries and %d once-only queries in %.1fs; over all of it p50 %.3fms", run.rounds, len(floors), len(run.outs)-run.rounds*len(floors), run.elapsed.Seconds(), ms(lats(t.ok).pct(0.5))))
	if t.firstErr != nil {
		res.notes = append(res.notes, "first failure: "+t.firstErr.Error())
	}
	return nil
}

// measureServe is the untraced run of a serving workload.
func measureServe(ctx context.Context, spec serveSpec, cfg runConfig, res *runResult) error {
	in, setup, err := repeatSetup(cfg, func() (*serveInputs, error) { return setupServe(ctx, spec, cfg) })
	if err != nil {
		return err
	}
	defer in.close()
	run := runServe(ctx, in, in.arrivals, cfg.seconds)
	open, err := check(run.open, spec.sloLimit, spec.churn)
	if err != nil {
		return err
	}
	sat, err := check(run.closed, spec.sloLimit, spec.churn)
	if err != nil {
		return err
	}
	all := open.plus(sat)
	res.correct, res.attempted, res.failed, res.mix = true, all.attempted, all.failed, mixOf(run.open)
	// The median latency and the throughput are the closed loop's, floors
	// over its chunks; the SLO share is of the open loop's offered requests.
	// A chunk of warm-up for every two seconds of the run: half a second of
	// a 15 s run.
	warmup := spec.chunk * int(cfg.seconds/2)
	p50, rate, chunks := chunkFloor(sat.ok, warmup, spec.chunk)
	all.endToEnd(&res.metrics, setup, p50, rate, ratio(float64(open.inSLO), float64(open.attempted)), ratio(run.allocKB, float64(all.attempted)))
	lag50, lag99, dropped := genLag(run.open)
	res.notes = append(res.notes,
		fmt.Sprintf("open loop %.0f req/s: offered %d, latency p50 %.3fms p95 %.3fms of %d samples", spec.rate, len(run.open), ms(lats(open.ok).pct(0.5)), ms(lats(open.ok).pct(0.95)), len(open.ok)),
		fmt.Sprintf("closed loop, 1 caller on 1 P: %d answers, after %d of warm-up %d chunks of %d; over all of it p50 %.3fms", len(sat.ok), warmup, chunks, spec.chunk, ms(lats(sat.ok).pct(0.5))),
		fmt.Sprintf("generator lag p50 %.1fus p99 %.1fus, dropped %d", us(lag50), us(lag99), dropped),
		"open loop latency p50 by class:"+classP50(open.ok))
	if p50 := lats(open.ok).pct(0.5); dropped > 0 || float64(lag50) > 0.1*float64(p50) {
		res.correct = false
		res.notes = append(res.notes, fmt.Sprintf("invalid run: generator lag p50 %v against latency p50 %v, %d arrivals dropped", lag50, p50, dropped))
	}
	if all.firstErr != nil {
		res.notes = append(res.notes, "first failure: "+all.firstErr.Error())
	}
	return nil
}

// Main is the program: it parses args (without the program name), runs, and
// returns the exit code.
func Main(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "all", "workload name, or all")
		seed     = fs.Int64("seed", 1, "seed of every generated input")
		seconds  = fs.Float64("seconds", 0, "length of the timed part (0: run_seconds of BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "1: traced run, prints per-layer metrics and writes bench/out/<workload>.trace.json")
		repeat   = fs.Int("repeat", 1, "run each workload this many times and report median, quartiles and spread against the bounds")
		out      = fs.String("out", "", "with -repeat: write the runs to this file, for -compare")
		compare  = fs.Bool("compare", false, "compare two files written by -out: bench -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(specPath)
	if err == nil {
		if *compare {
			err = errors.New("-compare takes two files written by -out")
			if fs.NArg() == 2 {
				err = compareFiles(spec, fs.Arg(0), fs.Arg(1))
			}
		} else {
			if *seconds == 0 {
				*seconds = float64(spec.RunSeconds)
			}
			cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: "bench/out"}
			err = runAll(ctx, spec, cfg, *repeat, *out)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// runAll runs cfg's workload (or all of them) repeat times each.
func runAll(ctx context.Context, spec *benchSpec, cfg runConfig, repeat int, out string) error {
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames
	}
	var sets []runSet
	failed := false
	for _, name := range names {
		cfg.workload = name
		set, ok, err := runRepeated(ctx, cfg, repeat, len(names) == 1 && repeat == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		sets, failed = append(sets, set), failed || !ok
	}
	if repeat > 1 {
		for _, set := range sets {
			if !set.report(os.Stdout, spec) {
				failed = true
			}
		}
	}
	if out != "" {
		if err := writeSets(out, sets); err != nil {
			return err
		}
	}
	if failed && (len(names) > 1 || repeat > 1) {
		// A single run says so in its JSON line and still exits 0: the
		// line is the answer.
		return errors.New("a run was incorrect, invalid or outside its bound")
	}
	return nil
}

// runRepeated runs cfg's workload repeat times and reports whether every run
// was correct and valid. contractLine prints the run as the contract's JSON
// line: last on stdout, nothing after it.
func runRepeated(ctx context.Context, cfg runConfig, repeat int, contractLine bool) (runSet, bool, error) {
	fmt.Fprintln(os.Stderr, hostFacts(cfg.seed))
	set, ok := runSet{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace}, true
	for i := 0; i < repeat; i++ {
		stolen, ticks := cpuTicks()
		res, err := runWorkload(ctx, cfg)
		if err != nil {
			return set, false, err
		}
		if s, t := cpuTicks(); t > ticks {
			res.notes = append(res.notes, fmt.Sprintf("the host took %.1f%% of this guest's CPU time during the run (steal)", 100*float64(s-stolen)/float64(t-ticks)))
		}
		printResult(os.Stderr, res)
		set.add(res)
		ok = ok && res.correct
		if contractLine {
			line, err := json.Marshal(res)
			if err != nil {
				return set, false, err
			}
			fmt.Println(string(line))
		}
	}
	return set, ok, nil
}

// printResult prints one run for a reader: every metric by name with its
// unit, the failure fraction, and the sample counts.
func printResult(w *os.File, r *runResult) {
	kind := "end-to-end"
	if r.trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %s  correct=%v  attempted=%d  failed=%d  fail_frac=%.4g\n",
		r.workload, r.seed, kind, r.correct, r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
}

// hostFacts is the line that makes a number comparable: a parallel speed-up
// means nothing without the core count next to it.
func hostFacts(seed int64) string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit(), seed)
}
