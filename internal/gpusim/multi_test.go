package gpusim

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/workload"
)

func multiQuery(t testing.TB, kind workload.Kind, n int, seed int64) *cost.Query {
	t.Helper()
	q, err := workload.Generate(kind, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func relClose(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// TestMultiDeviceCostIdenticalToCPU: the multi-device schedule must return
// plans cost-identical to the sequential CPU enumerator for any device
// count — partitioning only moves work, never changes it.
func TestMultiDeviceCostIdenticalToCPU(t *testing.T) {
	for _, kind := range []workload.Kind{
		workload.KindChain, workload.KindCycle, workload.KindStar, workload.KindClique, workload.KindMB,
	} {
		for _, ndev := range []int{1, 2, 3, 4} {
			n := 10
			q := multiQuery(t, kind, n, int64(ndev))
			in := dp.Input{Q: q, M: cost.DefaultModel()}
			ref, _, err := dp.DPCCP(in)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Devices = ndev
			p, _, _, err := Run(in, cfg, AlgoMPDP)
			if err != nil {
				t.Fatalf("%s/dev=%d: %v", kind, ndev, err)
			}
			if !relClose(p.Cost, ref.Cost) {
				t.Errorf("%s/dev=%d: cost %g, want %g", kind, ndev, p.Cost, ref.Cost)
			}
		}
	}
}

// TestMultiDeviceCountersMatchSingle: the aggregate algorithmic counters of
// a partitioned run must equal the single-device run's — the same pairs are
// examined no matter how many devices split them.
func TestMultiDeviceCountersMatchSingle(t *testing.T) {
	q := multiQuery(t, workload.KindCycle, 14, 3)
	in := dp.Input{Q: q, M: cost.DefaultModel()}
	cfg1 := DefaultConfig()
	cfg1.Devices = 1
	_, st1, gs1, err := Run(in, cfg1, AlgoMPDP)
	if err != nil {
		t.Fatal(err)
	}
	cfg4 := DefaultConfig()
	cfg4.Devices = 4
	_, st4, gs4, err := Run(in, cfg4, AlgoMPDP)
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st4 {
		t.Errorf("algorithmic stats diverge: 1 dev %+v, 4 dev %+v", st1, st4)
	}
	if gs1.UnrankedSets != gs4.UnrankedSets || gs1.FilteredSets != gs4.FilteredSets ||
		gs1.CandidatePairs != gs4.CandidatePairs || gs1.ValidPairs != gs4.ValidPairs {
		t.Errorf("aggregate device work diverges:\n1 dev %+v\n4 dev %+v", gs1.Stats, gs4.Stats)
	}
	if len(gs4.PerDevice) != 4 {
		t.Fatalf("PerDevice = %d entries, want 4", len(gs4.PerDevice))
	}
	var launches uint64
	for _, d := range gs4.PerDevice {
		launches += d.KernelLaunches
		if d.Levels != gs4.Levels {
			t.Errorf("device levels %d != run levels %d (every device pays every level's transfer)",
				d.Levels, gs4.Levels)
		}
	}
	if launches != gs4.KernelLaunches {
		t.Errorf("per-device launches sum %d != aggregate %d", launches, gs4.KernelLaunches)
	}
}

// TestMultiDeviceMonotonicScaling: in simulated time, adding devices never
// slows a query down — the per-level wall time is the slowest device's
// share, which can only shrink when the split gets finer.
func TestMultiDeviceMonotonicScaling(t *testing.T) {
	for _, tc := range []struct {
		kind workload.Kind
		n    int
	}{
		{workload.KindChain, 20},
		{workload.KindCycle, 20},
		{workload.KindStar, 18},
		{workload.KindClique, 12},
		{workload.KindMB, 18},
	} {
		q := multiQuery(t, tc.kind, tc.n, 7)
		in := dp.Input{Q: q, M: cost.DefaultModel()}
		prev := math.Inf(1)
		for _, ndev := range []int{1, 2, 4, 8} {
			cfg := DefaultConfig()
			cfg.Devices = ndev
			_, _, gs, err := Run(in, cfg, AlgoMPDP)
			if err != nil {
				t.Fatalf("%s/%d dev=%d: %v", tc.kind, tc.n, ndev, err)
			}
			// Strict monotonicity up to float addition order: the d-device
			// level max never exceeds the (d-1)-device one.
			if gs.SimTimeMS > prev*(1+1e-9) {
				t.Errorf("%s/%d: %d devices simulated %.4fms, slower than fewer devices' %.4fms",
					tc.kind, tc.n, ndev, gs.SimTimeMS, prev)
			}
			prev = gs.SimTimeMS
			// No device is busy for longer than the run's wall time.
			for d, ds := range gs.PerDevice {
				if ds.SimTimeMS <= 0 || ds.SimTimeMS > gs.SimTimeMS*(1+1e-9) {
					t.Errorf("%s/%d dev=%d: device %d busy %.4fms of a %.4fms run", tc.kind, tc.n, ndev, d, ds.SimTimeMS, gs.SimTimeMS)
				}
			}
		}
	}
}

// TestMultiTreeLevelsBitIdentical: the tree path's level workers, one per
// device, write winners into claimed slots as they go. On 1 to 4 devices the
// plan (cost bits and explain bytes) is the sequential enumerator's, and the
// counters and the device model's totals are the one-device run's, on a
// hashed table (snowflake-26) and a direct one (star-16).
func TestMultiTreeLevelsBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		kind workload.Kind
		n    int
	}{{workload.KindSnowflake, 26}, {workload.KindStar, 16}} {
		in := dp.Input{Q: multiQuery(t, tc.kind, tc.n, 26), M: cost.DefaultModel()}
		want, _, err := dp.MPDP(in)
		if err != nil {
			t.Fatal(err)
		}
		var one dp.Stats
		var oneGPU Stats
		for devices := 1; devices <= 4; devices++ {
			cfg := DefaultConfig()
			cfg.Devices = devices
			got, st, gs, err := Run(in, cfg, AlgoMPDP)
			if err != nil {
				t.Fatalf("%s-%d on %d devices: %v", tc.kind, tc.n, devices, err)
			}
			if devices == 1 {
				one, oneGPU = st, gs.Stats
			}
			if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || got.Explain(nil) != want.Explain(nil) {
				t.Errorf("%s-%d on %d devices: cost %v, sequential %v", tc.kind, tc.n, devices, got.Cost, want.Cost)
			}
			if st != one || gs.UnrankedSets != oneGPU.UnrankedSets || gs.CandidatePairs != oneGPU.CandidatePairs || gs.ValidPairs != oneGPU.ValidPairs {
				t.Errorf("%s-%d on %d devices: %+v %+v, on one %+v %+v", tc.kind, tc.n, devices, st, gs.Stats, one, oneGPU)
			}
		}
	}
}

// TestMultiRunSeesCancellation: every run is behind the level barrier it
// shares with the CPU-parallel driver, whose workers keep one deadline
// checker for the run — a chain-40 (the gpu route's everyday query) and a
// clique-12 (levels of up to 924 sets, thick enough to start the helpers)
// cancelled before they start must not return a plan, on one device or
// several.
func TestMultiRunSeesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range []*cost.Query{multiQuery(t, workload.KindChain, 40, 3), multiQuery(t, workload.KindClique, 12, 3)} {
		for _, devices := range []int{1, 2} {
			cfg := DefaultConfig()
			cfg.Devices = devices
			p, _, _, err := Run(dp.Input{Q: q, M: cost.DefaultModel(), Ctx: ctx}, cfg, AlgoMPDP)
			if !errors.Is(err, context.Canceled) || p != nil {
				t.Errorf("%d relations, devices=%d: plan %v, err %v; want no plan and context.Canceled", q.N(), devices, p != nil, err)
			}
		}
	}
}

// TestWorkspaceChangesNoDeviceModel: Run seeds its table from the input's
// workspace. One workspace under all three algorithms on one device and
// under MPDP on three, tree and general graphs, sizes going up and down:
// plan, counters and every number of the device model are the run's
// without one — whose allocations are bounded.
func TestWorkspaceChangesNoDeviceModel(t *testing.T) {
	ws := new(dp.Workspace)
	for i, tc := range []struct {
		kind workload.Kind
		n    int
	}{
		{workload.KindStar, 12}, {workload.KindCycle, 14}, {workload.KindChain, 30},
		{workload.KindClique, 9}, {workload.KindMB, 13}, {workload.KindSnowflake, 16}, {workload.KindChain, 2},
	} {
		q := multiQuery(t, tc.kind, tc.n, int64(i))
		fresh := dp.Input{Q: q, M: cost.DefaultModel()}
		borrowed := fresh
		borrowed.Workspace = ws
		for _, algo := range []Algo{AlgoMPDP, AlgoDPSub, AlgoDPSize} {
			if algo != AlgoMPDP && tc.n > 16 {
				continue // the baselines' candidate volume is the point of the paper
			}
			for _, devices := range []int{1, 3} {
				if algo != AlgoMPDP && devices > 1 {
					continue // the baselines run on one device
				}
				cfg := DefaultConfig()
				cfg.Devices = devices
				want, wantStats, wantGPU, err := Run(fresh, cfg, algo)
				if err != nil {
					t.Fatalf("%s-%d %v on %d devices: %v", tc.kind, tc.n, algo, devices, err)
				}
				got, gotStats, gotGPU, err := Run(borrowed, cfg, algo)
				if err != nil {
					t.Fatalf("%s-%d %v on %d devices, on a workspace: %v", tc.kind, tc.n, algo, devices, err)
				}
				if gotStats != wantStats || gotGPU.Stats != wantGPU.Stats || got.Explain(nil) != want.Explain(nil) ||
					math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
					t.Errorf("%s-%d %v on %d devices: on a workspace %+v %+v cost %v, without %+v %+v cost %v",
						tc.kind, tc.n, algo, devices, gotStats, gotGPU.Stats, got.Cost, wantStats, wantGPU.Stats, want.Cost)
				}
			}
		}
	}

	// How often a run without a workspace allocates is a count as well:
	// 156 and 335 times measured, ten percent on top.
	for _, row := range []struct {
		n       int
		ceiling float64
	}{{20, 172}, {40, 369}} {
		in := dp.Input{Q: multiQuery(t, workload.KindCycle, row.n, 1+int64(row.n)), M: cost.DefaultModel()}
		cfg := DefaultConfig()
		cfg.Devices = 2
		got := testing.AllocsPerRun(5, func() {
			if _, _, _, err := Run(in, cfg, AlgoMPDP); err != nil {
				t.Fatal(err)
			}
		})
		if got > row.ceiling {
			t.Errorf("cycle-%d on 2 devices makes %.0f allocations per run, ceiling %.0f", row.n, got, row.ceiling)
		}
	}
}

// TestMultiJoinsItsHelpers: every run is behind the shared level barrier,
// whose helpers live for the run and are joined by the Close its driver
// defers. On a tree (star-14, the spider lattice, levels of up to 1 716
// sets) and a general graph (clique-12, the census, up to 924), on success,
// on an expired deadline and on a cancelled context, at 1, 2 and 4 devices,
// no helper goroutine outlives Run. The count has a positive control: while a thick
// barrier at two workers is open, its helper is counted, so a helper the
// count no longer recognises fails the test instead of passing it.
func TestMultiJoinsItsHelpers(t *testing.T) {
	star := dp.Input{Q: multiQuery(t, workload.KindStar, 14, 27), M: cost.DefaultModel()}.ForTree()
	buckets, err := dp.ConnectedBuckets(star)
	if err != nil {
		t.Fatal(err)
	}
	open := dp.NewLevels(star, dp.EvaluateSetMPDPTree, buckets, 2)
	alive := 0
	// A helper that has not run yet shows only its go statement's wrapper.
	for deadline := time.Now().Add(time.Second); alive == 0 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		alive = levelHelpers(0)
	}
	open.Close()
	if alive < 1 {
		t.Fatalf("a star-14's barrier is open at 2 workers and %d helpers are counted", alive)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	spent, stop := context.WithTimeoutCause(context.Background(), -time.Second, dp.ErrTimeout)
	stop() // already done: the cause stays dp.ErrTimeout
	for _, q := range []*cost.Query{multiQuery(t, workload.KindStar, 14, 27), multiQuery(t, workload.KindClique, 12, 27)} {
		for _, devices := range []int{1, 2, 4} {
			for _, mode := range []string{"success", "deadline", "cancelled"} {
				in := dp.Input{Q: q, M: cost.DefaultModel()}
				var want error
				switch mode {
				case "deadline": // the census polls too rarely to see it: a worker's first poll trips it
					in.Ctx, want = spent, dp.ErrTimeout
				case "cancelled":
					in.Ctx, want = cancelled, context.Canceled
				}
				cfg := DefaultConfig()
				cfg.Devices = devices
				_, _, _, err := Run(in, cfg, AlgoMPDP)
				if !errors.Is(err, want) {
					t.Errorf("%d relations, %d devices, %s: err %v, want %v", q.N(), devices, mode, err, want)
				}
				if left := levelHelpers(time.Second); left != 0 {
					t.Errorf("%d relations, %d devices, %s: %d helpers outlived the run", q.N(), devices, mode, left)
				}
			}
		}
	}
}

// levelHelpers counts the goroutines inside dp.Levels' helper loop, giving
// one that has just been joined settle to get past its last statement.
func levelHelpers(settle time.Duration) int {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(settle); ; time.Sleep(time.Millisecond) {
		n := strings.Count(string(buf[:runtime.Stack(buf, true)]), "dp.(*Levels).help(")
		if n == 0 || time.Now().After(deadline) {
			return n
		}
	}
}
