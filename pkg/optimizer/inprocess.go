package optimizer

import (
	"context"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/gpusim"
)

// inProcess runs the algorithms directly in the caller's process.
type inProcess struct{}

// InProcess returns the library driver: every Optimize call runs the
// selected algorithm synchronously in this process, with no cache. The
// default, AlgAuto, is the serving router (core.Route), and the result
// names the algorithm it picked. It is the driver with full per-call
// control: WithAlgorithm, WithK, WithGPUDevices and friends all apply.
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
	bid, _ := backend.Of(res.Algorithm)
	out := &Result{
		Cost:        res.Plan.Cost,
		Rows:        res.Plan.Rows,
		Algorithm:   Algorithm(res.Algorithm),
		Backend:     string(bid),
		Fingerprint: q.prepared().Key,
		Shape:       string(core.DetectShape(q.q.G)),
		Elapsed:     time.Since(start),
		Evaluated:   res.Stats.Evaluated,
		CCPPairs:    res.Stats.CCP,
	}
	if res.GPU != nil {
		out.GPUDevices = res.GPU.Devices
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
