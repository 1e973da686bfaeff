// BenchmarkCore is the tracked hot-path benchmark suite of the optimizer
// core: cold plan optimization (enumeration + costing, no service cache in
// front) swept over the paper's workload shapes, serial and parallel. Every
// run rewrites BENCH_core.json with ns/op, allocs/op and B/op per row so the
// core perf trajectory accumulates across commits, exactly like
// BENCH_cluster.json does for the cluster layer.
//
// BENCH_budget.json (committed) holds hard ceilings for selected rows:
// allocs/op as an absolute ceiling, and ns/op as a regression *ratio*
// against a committed baseline (ns_per_op_baseline × ns_per_op_max_ratio).
// The benchmark fails when either gate trips, which is what the CI
// bench-core smoke step relies on to catch allocation and latency
// regressions. Ratios are generous (CI machines are noisy); they catch
// order-of-magnitude regressions, not percent-level drift — the nightly
// job's artifact trail is for the fine trend.
package repro

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/gpusim"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/workload"
)

// coreBenchRow is one row of BENCH_core.json.
type coreBenchRow struct {
	Name        string  `json:"name"`
	Kind        string  `json:"kind"`
	N           int     `json:"n"`
	Algo        string  `json:"algo"`
	Threads     int     `json:"threads"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	Evaluated   uint64  `json:"evaluated_pairs"`
	CCP         uint64  `json:"ccp_pairs"`
	// GPUSimMS is the modeled device time of the mpdp-gpu rows (real
	// wall time is NsPerOp, as for every row).
	GPUSimMS float64 `json:"gpu_sim_ms,omitempty"`
}

// coreBudget is the shape of BENCH_budget.json: row name -> gates.
type coreBudget struct {
	// AllocsPerOp is the absolute allocs/op ceiling (0 disables the gate).
	AllocsPerOp float64 `json:"allocs_per_op"`
	// NsPerOpBaseline is the committed reference latency; when non-zero,
	// the row fails if measured ns/op exceeds baseline × max_ratio.
	NsPerOpBaseline float64 `json:"ns_per_op_baseline,omitempty"`
	// NsPerOpMaxRatio is the allowed regression factor (0: 4).
	NsPerOpMaxRatio float64 `json:"ns_per_op_max_ratio,omitempty"`
}

// coreSweep lists the benchmarked (shape, size) grid. Clique stops at 15
// relations (Theta(3^n) enumeration) and cycles at 20 for the CPU
// enumerators (sized when MPDP's full-cycle block cost 2^n candidate
// visits; it walks the block's n(n-1) connected subsets now, and the rows
// stay so the tracked series does);
// gpuSizes extends each shape into the GPU backend's band, where costing
// is output-sensitive and the lockstep volume is modeled (cycle/40 is the
// tracked headline row — the size the pre-backend router could only serve
// heuristically).
func coreSweep() []struct {
	kind     workload.Kind
	sizes    []int
	gpuSizes []int
} {
	return []struct {
		kind     workload.Kind
		sizes    []int
		gpuSizes []int
	}{
		{workload.KindChain, []int{10, 15, 20}, []int{20}},
		{workload.KindStar, []int{10, 15, 20}, []int{18}},
		{workload.KindClique, []int{10, 12, 15}, []int{15}},
		{workload.KindMB, []int{10, 15, 20}, []int{20}},
		{workload.KindCycle, []int{10, 15, 20}, []int{20, 40}},
	}
}

// benchGPUDevices is the simulated device count of the mpdp-gpu rows.
const benchGPUDevices = 2

// gpuBenchFunc adapts the multi-device GPU scheduler to the benchmark's
// dp.Func shape, capturing the last run's device model.
func gpuBenchFunc(simMS *float64) dp.Func {
	cfg := gpusim.DefaultConfig()
	cfg.Devices = benchGPUDevices
	return func(in dp.Input) (*plan.Node, dp.Stats, error) {
		p, st, gs, err := gpusim.MPDPGPUMulti(in, cfg)
		*simMS = gs.SimTimeMS
		return p, st, err
	}
}

func BenchmarkCore(b *testing.B) {
	type algo struct {
		name    string
		f       dp.Func
		threads int
		simMS   *float64 // non-nil for GPU rows
	}
	algs := []algo{
		{"mpdp-seq", dp.MPDPGeneral, 1, nil},
		{"dpccp-seq", dp.DPCCP, 1, nil},
		{"mpdp-par", parallel.MPDP, 0, nil},
	}
	var gpuSimMS float64
	gpuAlg := algo{"mpdp-gpu", gpuBenchFunc(&gpuSimMS), benchGPUDevices, &gpuSimMS}

	// The bench runner re-invokes sub-benchmarks (an N=1 shakedown plus
	// the timed run, and calibration reruns under a duration-based
	// -benchtime); keyed rows keep the largest-b.N run of each.
	rows := make(map[string]coreBenchRow)
	var order []string

	runRow := func(kind workload.Kind, n int, alg algo) {
		q := benchQuery(kind, n)
		m := cost.DefaultModel()
		name := fmt.Sprintf("%s/n=%d/%s", kind, n, alg.name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			in := dp.Input{Q: q, M: m, Threads: alg.threads}
			// Warm one run outside the measured window so one-time costs
			// (lazy graph adjacency, runtime growth) don't pollute the
			// steady-state numbers.
			if _, _, err := alg.f(in); err != nil {
				b.Fatal(err)
			}
			var stats dp.Stats
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, st, err := alg.f(in)
				if err != nil {
					b.Fatal(err)
				}
				if p == nil {
					b.Fatal("nil plan")
				}
				stats = st
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			allocs := float64(m1.Mallocs-m0.Mallocs) / float64(b.N)
			bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(b.N)
			b.ReportMetric(allocs, "allocs/op-measured")
			prev, seen := rows[name]
			if !seen {
				order = append(order, name)
			}
			if seen && prev.Iters > b.N {
				return
			}
			row := coreBenchRow{
				Name:        name,
				Kind:        string(kind),
				N:           n,
				Algo:        alg.name,
				Threads:     alg.threads,
				Iters:       b.N,
				NsPerOp:     nsPerOp,
				AllocsPerOp: allocs,
				BytesPerOp:  bytes,
				Evaluated:   stats.Evaluated,
				CCP:         stats.CCP,
			}
			if alg.simMS != nil {
				row.GPUSimMS = *alg.simMS
			}
			rows[name] = row
		})
	}

	for _, sw := range coreSweep() {
		for _, n := range sw.sizes {
			for _, alg := range algs {
				runRow(sw.kind, n, alg)
			}
		}
		for _, n := range sw.gpuSizes {
			runRow(sw.kind, n, gpuAlg)
		}
	}

	ordered := make([]coreBenchRow, 0, len(order))
	for _, name := range order {
		ordered = append(ordered, rows[name])
	}
	out, err := json.MarshalIndent(ordered, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_core.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("wrote BENCH_core.json (%d rows)", len(ordered))

	// Enforce the committed allocation budget: any row named in
	// BENCH_budget.json must stay at or under its allocs/op ceiling.
	raw, err := os.ReadFile("BENCH_budget.json")
	if os.IsNotExist(err) {
		return
	}
	if err != nil {
		b.Fatal(err)
	}
	var budget map[string]coreBudget
	if err := json.Unmarshal(raw, &budget); err != nil {
		b.Fatalf("BENCH_budget.json: %v", err)
	}
	for name, limit := range budget {
		row, ok := rows[name]
		if !ok {
			// A -bench filter can exclude budget rows; only the rows that
			// actually ran are enforced (CI runs the full sweep).
			b.Logf("budget row %q not in this run", name)
			continue
		}
		if limit.AllocsPerOp > 0 && row.AllocsPerOp > limit.AllocsPerOp {
			b.Errorf("allocation budget exceeded: %s allocs/op = %.0f > budget %.0f",
				name, row.AllocsPerOp, limit.AllocsPerOp)
		}
		if limit.NsPerOpBaseline > 0 {
			maxRatio := limit.NsPerOpMaxRatio
			if maxRatio == 0 {
				maxRatio = 4
			}
			if ratio := row.NsPerOp / limit.NsPerOpBaseline; ratio > maxRatio {
				b.Errorf("latency budget exceeded: %s ns/op = %.3g is %.1fx the committed baseline %.3g (max ratio %.1f)",
					name, row.NsPerOp, ratio, limit.NsPerOpBaseline, maxRatio)
			}
		}
	}
}
