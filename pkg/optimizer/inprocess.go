package optimizer

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/service"
)

// inProcess runs the algorithms directly in the caller's process.
type inProcess struct{}

// InProcess returns the library driver: every Optimize call runs the
// selected algorithm (default AlgAuto) synchronously in this process, with
// no cache and no routing. It is the driver with full per-call control:
// WithAlgorithm, WithThreads, WithGPUDevices and friends all apply.
func InProcess() Optimizer { return inProcess{} }

func (inProcess) Close() error { return nil }

func (inProcess) Optimize(ctx context.Context, q *Query, opts ...Option) (*Result, error) {
	o := applyOptions(opts)
	if o.algorithm != "" && !o.algorithm.Valid() {
		return nil, invalidAlgorithmError(o.algorithm)
	}
	copts := core.Options{
		Algorithm: core.Algorithm(o.algorithm),
		Timeout:   o.timeout,
		Threads:   o.threads,
		K:         o.k,
	}
	if o.gpuDev > 0 {
		cfg := gpusim.DefaultConfig()
		cfg.Devices = o.gpuDev
		copts.GPU = &cfg
	}
	start := time.Now()
	res, err := core.Optimize(ctx, q.q, copts)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Cost:        res.Plan.Cost,
		Rows:        res.Plan.Rows,
		Algorithm:   o.algorithm,
		Fingerprint: q.prepared().Key,
		Shape:       string(service.DetectShape(q.q.G)),
		Elapsed:     time.Since(start),
		Evaluated:   res.Stats.Evaluated,
		CCPPairs:    res.Stats.CCP,
	}
	if out.Algorithm == "" {
		out.Algorithm = AlgAuto
	}
	if res.GPU != nil {
		out.GPUDevices = 1 // core's *-gpu algorithms model a single device
		if o.gpuDev > 0 {
			out.GPUDevices = o.gpuDev
		}
		out.GPUSimMS = res.GPU.SimTimeMS
	}
	if o.explain {
		out.Explain = core.Explain(q.q, res.Plan)
	}
	return out, nil
}

func invalidAlgorithmError(a Algorithm) error {
	return &UnknownAlgorithmError{Algorithm: a}
}

// UnknownAlgorithmError reports an algorithm name outside the registry.
type UnknownAlgorithmError struct{ Algorithm Algorithm }

func (e *UnknownAlgorithmError) Error() string {
	return "optimizer: unknown algorithm \"" + string(e.Algorithm) + "\""
}
