package backend

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/gpusim"
)

// GPUConfig tunes the simulated GPU backend. The zero value selects the
// defaults listed on each field.
type GPUConfig struct {
	// Devices is the simulated device count (0: 2).
	Devices int
	// Device is the device model (nil: gpusim.GTX1080).
	Device *gpusim.Device
	// BatchMax caps the requests per coalesced batch (0: 2 × Devices).
	BatchMax int
}

func (c GPUConfig) withDefaults() GPUConfig {
	if c.Devices <= 0 {
		c.Devices = 2
	}
	if c.Device == nil {
		c.Device = gpusim.GTX1080()
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 2 * c.Devices
	}
	return c
}

// simConfig builds the gpusim configuration: the paper's full MPDP-GPU
// (fused pruning + CCC) on the configured device pool.
func (c GPUConfig) simConfig() gpusim.Config {
	return gpusim.Config{Device: c.Device, Devices: c.Devices, FusedPrune: true, CCC: true}
}

// DeviceModel resolves the configured device model (the default GTX 1080
// when unset), so callers pricing a MultiStats — the service's trace
// decomposition — bill against the same device the backend simulated.
func (c GPUConfig) DeviceModel() *gpusim.Device {
	if c.Device != nil {
		return c.Device
	}
	return gpusim.GTX1080()
}

// ErrGPUClosed is returned by Optimize when the backend was closed before
// the request could be serviced.
var ErrGPUClosed = errors.New("backend: gpu backend closed")

// gpuJob is one request waiting to be coalesced into a device batch.
type gpuJob struct {
	in   dp.Input
	done chan gpusim.BatchResult
}

// gpuBackend runs MPDP on the multi-device simulated GPU. Concurrent
// Optimize calls from the service worker pool are coalesced by a single
// batcher goroutine the way a log groups commits: a batch is whatever is
// queued when the device pool comes free, so requests that arrive while one
// batch runs form the next and a request that finds the pool idle runs at
// once, alone, on every device. The whole batch is scheduled across the
// pool together (gpusim.MPDPGPUBatch), so a burst of cold queries saturates
// all devices instead of serializing on one, and nobody waits on a timer.
//
// A batched job can outlive the Optimize call that queued it — the caller
// returns on cancellation while the batch still runs — so it never runs on
// the caller's workspace: the batcher owns the memory of the jobs it runs,
// one dp.Workspace per slot of a batch, and hands out plan trees detached
// from them.
type gpuBackend struct {
	cfg  GPUConfig
	jobs chan *gpuJob
	quit chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

func newGPUBackend(cfg GPUConfig) Backend {
	b := &gpuBackend{
		cfg:  cfg.withDefaults(),
		jobs: make(chan *gpuJob, 64),
		quit: make(chan struct{}),
	}
	b.wg.Add(1)
	go b.batcher()
	return b
}

func (b *gpuBackend) ID() ID { return GPU }

func (b *gpuBackend) Supports(alg core.Algorithm) bool {
	switch alg {
	case core.AlgMPDPGPU, core.AlgDPSubGPU, core.AlgDPSizeGPU:
		return true
	}
	return false
}

// Devices returns the simulated device count.
func (b *gpuBackend) Devices() int { return b.cfg.Devices }

func (b *gpuBackend) Optimize(ctx context.Context, q *cost.Query, alg core.Algorithm, opts Options) (*Result, error) {
	start := time.Now()
	m := opts.Model
	if m == nil {
		m = cost.DefaultModel()
	}
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = start.Add(opts.Timeout)
	}
	in := dp.Input{Q: q, M: m, Ctx: ctx, Deadline: deadline}

	var br gpusim.BatchResult
	switch alg {
	case core.AlgMPDPGPU:
		// Select against quit on both sides so an Optimize racing Close
		// fails loudly with ErrGPUClosed instead of hanging on a job the
		// drained batcher will never service. (The service layer never
		// races them — workers drain before backends close — but the
		// Backend interface makes no such promise.)
		job := &gpuJob{in: in, done: make(chan gpusim.BatchResult, 1)}
		select {
		case b.jobs <- job:
		case <-b.quit:
			return nil, ErrGPUClosed
		}
		select {
		case br = <-job.done:
		case <-ctx.Done():
			// The batch will still run (and abort promptly via in.Ctx), in
			// the batcher's memory and none of the caller's; done is
			// buffered, so the batcher's delivery never blocks.
			return nil, context.Cause(ctx)
		case <-b.quit:
			// The final drain may still have delivered our result.
			select {
			case br = <-job.done:
			default:
				return nil, ErrGPUClosed
			}
		}
	case core.AlgDPSubGPU, core.AlgDPSizeGPU:
		// The baseline GPU algorithms stay single-device (the paper ports
		// only MPDP to multi-GPU); wrap their stats in the multi view.
		run := gpusim.DPSubGPU
		if alg == core.AlgDPSizeGPU {
			run = gpusim.DPSizeGPU
		}
		cfg := b.cfg.simConfig()
		cfg.Devices = 1
		in.Workspace = opts.Workspace // runs to completion on the caller's goroutine
		var gs gpusim.Stats
		br.Plan, br.Stats, gs, br.Err = run(in, cfg)
		br.GPU = gpusim.MultiStats{Stats: gs, Devices: 1, PerDevice: []gpusim.Stats{gs}}
	default:
		return nil, fmt.Errorf("backend: gpu backend does not support %q", alg)
	}
	if br.Err != nil {
		return nil, br.Err
	}
	gpu := br.GPU
	return &Result{
		Plan:      br.Plan,
		Stats:     br.Stats,
		Backend:   GPU,
		Algorithm: alg,
		GPU:       &gpu,
		Elapsed:   time.Since(start),
	}, nil
}

// batcher is the single coalescing loop: block for the first job, take
// what else is queued, run the batch across the device pool, deliver,
// repeat. It exits only when quit is closed and no job is pending — the
// service closes its worker pool before the backends, so no submission can
// race the shutdown.
func (b *gpuBackend) batcher() {
	defer b.wg.Done()
	var spaces []*dp.Workspace // spaces[i] is slot i's, of every batch
	for {
		var first *gpuJob
		select {
		case first = <-b.jobs:
		case <-b.quit:
			// Drain anything already queued before exiting.
			select {
			case first = <-b.jobs:
			default:
				return
			}
		}
		batch := takeBatch(first, b.jobs, b.cfg.BatchMax)
		ins := make([]dp.Input, len(batch))
		for i, j := range batch {
			if i == len(spaces) {
				spaces = append(spaces, new(dp.Workspace))
			}
			ins[i] = j.in
			ins[i].Workspace = spaces[i]
		}
		for i, r := range gpusim.MPDPGPUBatch(ins, b.cfg.simConfig()) {
			r.Plan = r.Plan.Clone() // the next batch rewinds spaces[i]
			batch[i].done <- r
		}
	}
}

// takeBatch forms one batch: first plus the jobs already queued, up to max.
// It never waits — an empty queue yields a batch of one.
func takeBatch(first *gpuJob, queued <-chan *gpuJob, max int) []*gpuJob {
	batch := []*gpuJob{first}
	for len(batch) < max {
		select {
		case j := <-queued:
			batch = append(batch, j)
		default:
			return batch
		}
	}
	return batch
}

func (b *gpuBackend) Close() {
	b.once.Do(func() { close(b.quit) })
	b.wg.Wait()
}
