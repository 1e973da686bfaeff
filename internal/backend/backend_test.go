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
	defer s.Close()
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
	defer s.Close()
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

// TestGPUCoalescing: concurrent GPU requests coalesce into shared batches
// and every caller still gets the right plan for its own query; a request
// that finds the device pool idle is a batch of one on every device.
func TestGPUCoalescing(t *testing.T) {
	s := NewSet(GPUConfig{Devices: 4})
	defer s.Close()
	gpu := s.Get(GPU)
	m := cost.DefaultModel()

	lone := genQuery(t, workload.KindChain, 10, 2)
	res, err := gpu.Optimize(context.Background(), lone, core.AlgMPDPGPU, Options{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if res.GPU == nil || res.GPU.Devices != 4 {
		t.Fatalf("a lone GPU run should use all 4 devices: %+v", res.GPU)
	}
	if ref, _, err := dp.DPCCP(dp.Input{Q: lone, M: m}); err != nil {
		t.Fatal(err)
	} else if !relEq(res.Plan.Cost, ref.Cost) {
		t.Errorf("lone run: cost %g, want %g", res.Plan.Cost, ref.Cost)
	}

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
			results[i], errs[i] = gpu.Optimize(context.Background(), qs[i], core.AlgMPDPGPU, Options{Model: m})
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
	defer s.Close()
	q := genQuery(t, workload.KindClique, 17, 1)
	_, err := s.Get(GPU).Optimize(context.Background(), q, core.AlgMPDPGPU, Options{Model: cost.DefaultModel(), Timeout: time.Nanosecond})
	if !errors.Is(err, dp.ErrTimeout) {
		t.Errorf("err = %v, want dp.ErrTimeout", err)
	}
}

// TestGPUBatchTakesWhatIsQueued: batch formation never waits. With k jobs
// queued behind the first it takes min(k+1, BatchMax) in arrival order and
// leaves the rest for the next batch; with none queued the batch is the
// first job alone.
func TestGPUBatchTakesWhatIsQueued(t *testing.T) {
	const batchMax = 4
	for _, queued := range []int{0, 1, 3, 4, 9} {
		jobs := make([]*gpuJob, queued+1)
		for i := range jobs {
			jobs[i] = &gpuJob{}
		}
		ch := make(chan *gpuJob, queued+1)
		for _, j := range jobs[1:] {
			ch <- j
		}
		// Nothing ever sends on ch again: returning at all is the proof
		// that formation does not wait for company.
		batch := takeBatch(jobs[0], ch, batchMax)
		if want := min(queued+1, batchMax); len(batch) != want {
			t.Fatalf("%d queued: batch of %d, want %d", queued, len(batch), want)
		}
		for i, j := range batch {
			if j != jobs[i] {
				t.Errorf("%d queued: batch[%d] is not job %d: arrival order lost", queued, i, i)
			}
		}
		if left := len(ch); left != queued+1-len(batch) {
			t.Errorf("%d queued: %d left in the queue, want %d", queued, left, queued+1-len(batch))
		}
	}
}

// TestGPUBaselineAlgorithms: the DPSub/DPSize GPU baselines run
// single-device through the same backend.
func TestGPUBaselineAlgorithms(t *testing.T) {
	s := NewSet(GPUConfig{Devices: 4})
	defer s.Close()
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

// TestCloseIdempotent: Set.Close (and the GPU batcher inside it) must be
// safe to call twice — the service layer closes its backend set on every
// shutdown path.
func TestCloseIdempotent(t *testing.T) {
	s := NewSet(GPUConfig{})
	s.Close()
	s.Close()
}

// TestGPUOptimizeAfterCloseFailsLoudly: an Optimize racing (or following)
// Close must return ErrGPUClosed, not hang on a job the drained batcher
// will never service.
func TestGPUOptimizeAfterCloseFailsLoudly(t *testing.T) {
	s := NewSet(GPUConfig{Devices: 2})
	gpu := s.Get(GPU)
	s.Close()
	done := make(chan error, 1)
	go func() {
		_, err := gpu.Optimize(context.Background(), genQuery(t, workload.KindChain, 8, 1), core.AlgMPDPGPU, Options{Model: cost.DefaultModel()})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrGPUClosed) {
			t.Errorf("err = %v, want ErrGPUClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Optimize after Close hung")
	}
}

// TestGPUPlansSurviveLaterBatches: the batcher runs its jobs on workspaces
// it rewinds from batch to batch, so the tree it hands out must be a copy.
// Plans kept from earlier batches still validate and still carry their
// costs after later batches have run over the same workspaces.
func TestGPUPlansSurviveLaterBatches(t *testing.T) {
	s := NewSet(GPUConfig{Devices: 2})
	defer s.Close()
	m := cost.DefaultModel()
	type kept struct {
		q    *cost.Query
		res  *Result
		text string
	}
	var plans []kept
	for i := 0; i < 6; i++ {
		q := genQuery(t, workload.KindCycle, 8+i, int64(40+i))
		res, err := s.Get(GPU).Optimize(context.Background(), q, core.AlgMPDPGPU, Options{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, kept{q, res, res.Plan.Explain(nil)})
	}
	for i, k := range plans {
		rels := make([]int, k.q.N())
		for r := range rels {
			rels[r] = r
		}
		if err := k.res.Plan.Validate(rels); err != nil {
			t.Errorf("plan %d after %d later batches: %v", i, len(plans)-1-i, err)
		}
		if got := k.res.Plan.Explain(nil); got != k.text {
			t.Errorf("plan %d changed after later batches:\n%s\nwas:\n%s", i, got, k.text)
		}
	}
}
