package backend

import (
	"context"
	"fmt"
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
}

func (c GPUConfig) withDefaults() GPUConfig {
	if c.Devices <= 0 {
		c.Devices = 2
	}
	if c.Device == nil {
		c.Device = gpusim.GTX1080()
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

// gpuBackend runs the *-gpu algorithms on the simulated device pool. Each
// call is one gpusim.Run — MPDP's levels of Algorithm 5 split across the
// devices, the baselines on one — on the caller's goroutine and workspace
// like every other backend, so it returns only once its run has stopped.
type gpuBackend struct {
	cfg GPUConfig
}

func newGPUBackend(cfg GPUConfig) Backend { return gpuBackend{cfg: cfg.withDefaults()} }

func (gpuBackend) ID() ID { return GPU }

func (gpuBackend) Supports(alg core.Algorithm) bool {
	_, ok := alg.GPUAlgo()
	return ok
}

func (b gpuBackend) Optimize(ctx context.Context, q *cost.Query, alg core.Algorithm, opts Options) (*Result, error) {
	start := time.Now()
	m := opts.Model
	if m == nil {
		m = cost.DefaultModel()
	}
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = start.Add(opts.Timeout)
	}
	in := dp.Input{Q: q, M: m, Ctx: ctx, Deadline: deadline, Workspace: opts.Workspace}

	algo, ok := alg.GPUAlgo()
	if !ok {
		return nil, fmt.Errorf("backend: gpu backend does not support %q", alg)
	}
	p, st, gpu, err := gpusim.Run(in, b.cfg.simConfig(), algo)
	if err != nil {
		return nil, err
	}
	return &Result{
		Plan:      p,
		Stats:     st,
		Backend:   GPU,
		Algorithm: alg,
		GPU:       &gpu,
		Elapsed:   time.Since(start),
	}, nil
}
