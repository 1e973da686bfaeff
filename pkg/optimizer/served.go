package optimizer

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
)

// ServedConfig tunes the in-process service behind the Served driver. The
// zero value selects the service defaults (see internal/service.Config):
// like the service's, its plans use all cores, IDP2's k = 15 and two
// simulated GPUs, with no setting.
type ServedConfig struct {
	// Workers is the optimization worker-pool size (0: GOMAXPROCS).
	Workers int
	// CacheCapacity is the total number of cached plans (0: 4096).
	CacheCapacity int
	// Timeout is the per-query budget before the heuristic fallback
	// (0: 30s).
	Timeout time.Duration
}

// served wraps a service.Service.
type served struct {
	svc *service.Service
}

// Served starts an in-process optimizer service and returns it as an
// Optimizer: requests gain the canonical-fingerprint plan cache, request
// coalescing and the adaptive (algorithm, backend) router. Algorithm
// choice is the router's, and k and the device count are the service's;
// WithAlgorithm, WithK and WithGPUDevices are rejected with ErrServerRouted.
// Close shuts the worker pool down.
func Served(cfg ServedConfig) Optimizer {
	return &served{svc: service.New(service.Config{
		Workers:       cfg.Workers,
		CacheCapacity: cfg.CacheCapacity,
		Timeout:       cfg.Timeout,
	})}
}

func (s *served) Close() error {
	s.svc.Close()
	return nil
}

func (s *served) Optimize(ctx context.Context, q *Query, opts ...Option) (*Result, error) {
	o := applyOptions(opts)
	if o.serverRouted() {
		return nil, ErrServerRouted
	}
	var tr *obs.Trace
	if o.trace {
		if ctx == nil {
			ctx = context.Background()
		}
		tr = obs.NewTrace("")
		ctx = obs.WithTrace(ctx, tr)
	}
	res, err := s.svc.OptimizePrepared(ctx, q.prepared())
	if err != nil {
		return nil, err
	}
	out := &Result{
		Cost:        res.Plan.Cost,
		Rows:        res.Plan.Rows,
		Algorithm:   Algorithm(res.Algorithm),
		Backend:     string(res.Backend),
		Shape:       string(res.Shape),
		Fingerprint: res.Key,
		CacheHit:    res.CacheHit,
		Coalesced:   res.Coalesced,
		FellBack:    res.FellBack,
		Elapsed:     res.Elapsed,
		Evaluated:   res.Stats.Evaluated,
		CCPPairs:    res.Stats.CCP,
		StatsEpoch:  res.Epoch,
	}
	if res.GPU != nil {
		out.GPUDevices = res.GPU.Devices
		out.GPUSimMS = res.GPU.SimTimeMS
	}
	if o.explain {
		out.Explain = core.Explain(q.q, res.Plan)
	}
	if tr != nil {
		out.Trace = tr.Spans()
		out.TraceWallUS = tr.WallUS()
	}
	return out, nil
}
