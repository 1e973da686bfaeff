package backend

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/gpusim"
	"repro/internal/workload"
)

func genQuery(t testing.TB, kind workload.Kind, n int, seed int64) *cost.Query {
	t.Helper()
	q, err := workload.Generate(kind, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func relEq(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// TestSetDispatch: every registered algorithm but auto is supported by
// exactly one backend, and the mapping follows the substrate split. The
// registry drives the loop, so a name added to or left in core without a
// backend, or claimed by two, fails here.
func TestSetDispatch(t *testing.T) {
	s := NewSet(GPUConfig{})
	for _, id := range IDs() {
		if s.Get(id) == nil {
			t.Fatalf("Get(%s) = nil", id)
		}
	}

	want := map[core.Algorithm]ID{
		core.AlgDPCCP:        CPUSeq,
		core.AlgMPDP:         CPUSeq,
		core.AlgDPSize:       CPUSeq,
		core.AlgDPSub:        CPUSeq,
		core.AlgMPDPParallel: CPUParallel,
		core.AlgMPDPGPU:      GPU,
		core.AlgDPSubGPU:     GPU,
		core.AlgDPSizeGPU:    GPU,
		core.AlgGOO:          Heuristic,
		core.AlgIKKBZ:        Heuristic,
		core.AlgLinDP:        Heuristic,
		core.AlgIDP2:         Heuristic,
		core.AlgUnionDP:      Heuristic,
	}
	seen := 0
	for _, alg := range core.Algorithms() {
		var claimed []ID
		for _, id := range IDs() {
			if s.Get(id).Supports(alg) {
				claimed = append(claimed, id)
			}
		}
		if alg == core.AlgAuto {
			if len(claimed) != 0 {
				t.Errorf("auto is a policy, not a backend algorithm; claimed by %v", claimed)
			}
			continue
		}
		seen++
		id, ok := want[alg]
		switch {
		case !ok:
			t.Errorf("%s: registered, but this test does not say which backend runs it", alg)
		case len(claimed) != 1 || claimed[0] != id:
			t.Errorf("%s: claimed by %v, want exactly %s", alg, claimed, id)
		case s.For(alg) != s.Get(id):
			t.Errorf("%s: For resolves to %v, want %s", alg, s.For(alg), id)
		}
	}
	if seen != len(want) {
		t.Errorf("%d algorithms registered besides auto, the substrate map names %d", seen, len(want))
	}
}

// TestBackendsCostIdentical: the three exact substrates return
// cost-identical plans, and each result is stamped with its backend.
func TestBackendsCostIdentical(t *testing.T) {
	s := NewSet(GPUConfig{Devices: 2})
	m := cost.DefaultModel()

	for _, kind := range []workload.Kind{workload.KindCycle, workload.KindStar, workload.KindMB} {
		q := genQuery(t, kind, 12, 3)
		ref, _, err := dp.DPCCP(dp.Input{Q: q, M: m})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			alg core.Algorithm
			id  ID
		}{
			{core.AlgDPCCP, CPUSeq},
			{core.AlgMPDPParallel, CPUParallel},
			{core.AlgMPDPGPU, GPU},
		} {
			res, err := s.Get(tc.id).Optimize(context.Background(), q, tc.alg, Options{Model: m})
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, tc.id, err)
			}
			if res.Backend != tc.id {
				t.Errorf("%s/%s: result stamped %s", kind, tc.id, res.Backend)
			}
			if res.Algorithm != tc.alg {
				t.Errorf("%s/%s: algorithm %s, want %s", kind, tc.id, res.Algorithm, tc.alg)
			}
			if !relEq(res.Plan.Cost, ref.Cost) {
				t.Errorf("%s/%s: cost %g, want %g", kind, tc.id, res.Plan.Cost, ref.Cost)
			}
			if tc.id == GPU && (res.GPU == nil || res.GPU.Devices != 2) {
				t.Errorf("%s: GPU result missing multi-device stats: %+v", kind, res.GPU)
			}
			if tc.id != GPU && res.GPU != nil {
				t.Errorf("%s/%s: non-GPU result carries GPU stats", kind, tc.id)
			}
		}
	}
}

// TestGPUMatchesDeviceModel: an mpdp-gpu request is one gpusim.MPDPGPUMulti
// run on the whole device pool, with fused pruning and CCC. At 1, 2 and 4
// devices, on the gpu route's everyday shapes (a tree, a cycle and a
// snowflake), the plan, the enumeration counters and every number of the
// device model — devices, per-device accounting, simulated time, aggregate
// counts — are the direct call's, so the served gpu_sim_ms is the model's.
func TestGPUMatchesDeviceModel(t *testing.T) {
	m := cost.DefaultModel()
	qs := []*cost.Query{
		genQuery(t, workload.KindChain, 40, 1),
		genQuery(t, workload.KindCycle, 40, 1),
		genQuery(t, workload.KindSnowflake, 26, 1),
	}
	for _, devices := range []int{1, 2, 4} {
		gpu := NewSet(GPUConfig{Devices: devices}).Get(GPU)
		cfg := gpusim.Config{Device: gpusim.GTX1080(), Devices: devices, FusedPrune: true, CCC: true}
		for _, q := range qs {
			res, err := gpu.Optimize(context.Background(), q, core.AlgMPDPGPU, Options{Model: m, Workspace: new(dp.Workspace)})
			if err != nil {
				t.Fatalf("%d devices, %d relations: %v", devices, q.N(), err)
			}
			want, wantStats, wantGPU, err := gpusim.MPDPGPUMulti(dp.Input{Q: q, M: m}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(res.Plan.Cost) != math.Float64bits(want.Cost) || res.Plan.Explain(nil) != want.Explain(nil) || res.Stats != wantStats {
				t.Errorf("%d devices, %d relations: cost %v %+v, model %v %+v", devices, q.N(), res.Plan.Cost, res.Stats, want.Cost, wantStats)
			}
			got := res.GPU
			if got.Devices != devices || got.Devices != wantGPU.Devices || got.Stats != wantGPU.Stats || len(got.PerDevice) != len(wantGPU.PerDevice) {
				t.Fatalf("%d devices, %d relations: served %d devices %+v, model %d devices %+v",
					devices, q.N(), got.Devices, got.Stats, wantGPU.Devices, wantGPU.Stats)
			}
			for d := range got.PerDevice {
				if got.PerDevice[d] != wantGPU.PerDevice[d] {
					t.Errorf("%d devices, %d relations: device %d served %+v, model %+v", devices, q.N(), d, got.PerDevice[d], wantGPU.PerDevice[d])
				}
			}
		}
	}
}

// TestGPUConcurrentCallers: the gpu backend runs each call on its caller's
// goroutine and workspace, so concurrent callers — each on a workspace of
// its own, as the service's workers are — all get the exact plan for their
// own query.
func TestGPUConcurrentCallers(t *testing.T) {
	gpu := NewSet(GPUConfig{Devices: 4}).Get(GPU)
	m := cost.DefaultModel()
	const callers = 12
	qs := make([]*cost.Query, callers)
	refs := make([]float64, callers)
	for i := range qs {
		qs[i] = genQuery(t, workload.KindCycle, 10+i%4, int64(i))
		p, _, err := dp.DPCCP(dp.Input{Q: qs[i], M: m})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = p.Cost
	}

	var wg sync.WaitGroup
	errs := make([]error, callers)
	results := make([]*Result, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = gpu.Optimize(context.Background(), qs[i], core.AlgMPDPGPU, Options{Model: m, Workspace: new(dp.Workspace)})
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !relEq(results[i].Plan.Cost, refs[i]) {
			t.Errorf("caller %d: cost %g, want %g", i, results[i].Plan.Cost, refs[i])
		}
	}
}

// TestGPUTimeout: an expired budget surfaces as dp.ErrTimeout so the
// service's fallback path can engage.
func TestGPUTimeout(t *testing.T) {
	s := NewSet(GPUConfig{Devices: 2})
	q := genQuery(t, workload.KindClique, 17, 1)
	_, err := s.Get(GPU).Optimize(context.Background(), q, core.AlgMPDPGPU, Options{Model: cost.DefaultModel(), Timeout: time.Nanosecond})
	if !errors.Is(err, dp.ErrTimeout) {
		t.Errorf("err = %v, want dp.ErrTimeout", err)
	}
}

// TestGPUBaselineAlgorithms: the DPSub/DPSize GPU baselines run
// single-device through the same backend.
func TestGPUBaselineAlgorithms(t *testing.T) {
	s := NewSet(GPUConfig{Devices: 4})
	q := genQuery(t, workload.KindStar, 9, 4)
	m := cost.DefaultModel()
	ref, _, err := dp.DPCCP(dp.Input{Q: q, M: m})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []core.Algorithm{core.AlgDPSubGPU, core.AlgDPSizeGPU} {
		res, err := s.Get(GPU).Optimize(context.Background(), q, alg, Options{Model: m})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !relEq(res.Plan.Cost, ref.Cost) {
			t.Errorf("%s: cost %g, want %g", alg, res.Plan.Cost, ref.Cost)
		}
		if res.GPU == nil || res.GPU.Devices != 1 {
			t.Errorf("%s: baselines are single-device, got %+v", alg, res.GPU)
		}
	}
}
