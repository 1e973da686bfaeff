package optimizer

import (
	"context"
	"fmt"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
)

// ServedConfig tunes the in-process service behind the Served driver. The
// zero value selects the service defaults (see internal/service.Config).
type ServedConfig struct {
	// Workers is the optimization worker-pool size (0: GOMAXPROCS).
	Workers int
	// CacheCapacity is the total number of cached plans (0: 4096).
	CacheCapacity int
	// CacheShards is the plan-cache shard count (0: 16).
	CacheShards int
	// Timeout is the per-query budget before the heuristic fallback
	// (0: 30s).
	Timeout time.Duration
	// Threads is the CPU parallelism per optimization (0: all cores).
	Threads int
	// K is the sub-problem bound for IDP2/UnionDP (0: 15).
	K int
	// GPUDevices is the simulated GPU device count (0: 2).
	GPUDevices int
	// ExactLimit, when non-zero, overrides the CPU-parallel crossover for
	// every shape, cliques included (mainly for tests that need to force
	// long exact runs).
	ExactLimit int
}

// served wraps a service.Service.
type served struct {
	svc *service.Service
}

// Served starts an in-process optimizer service and returns it as an
// Optimizer: requests gain the canonical-fingerprint plan cache, request
// coalescing and the adaptive (algorithm, backend) router. Algorithm
// choice is the router's; WithAlgorithm is rejected with ErrServerRouted.
// Close shuts the worker pool down.
func Served(cfg ServedConfig) Optimizer {
	return &served{svc: service.New(service.Config{
		Workers:       cfg.Workers,
		CacheCapacity: cfg.CacheCapacity,
		CacheShards:   cfg.CacheShards,
		Timeout:       cfg.Timeout,
		Threads:       cfg.Threads,
		K:             cfg.K,
		// Zero limits keep the calibrated defaults.
		Crossover: &backend.Crossover{CPUParallelLimit: cfg.ExactLimit, CliqueCPULimit: cfg.ExactLimit},
		GPU:       backend.GPUConfig{Devices: cfg.GPUDevices},
	})}
}

func (s *served) Close() error {
	s.svc.Close()
	return nil
}

func (s *served) Optimize(ctx context.Context, q *Query, opts ...Option) (*Result, error) {
	o := applyOptions(opts)
	if o.algorithm != "" {
		return nil, ErrServerRouted
	}
	if o.epoch != 0 {
		if cur := s.svc.StatsEpoch(); cur != o.epoch {
			return nil, fmt.Errorf("%w (server %d, asserted %d)", ErrStaleEpoch, cur, o.epoch)
		}
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
		out.Trace = traceSpans(tr.Spans())
		out.TraceWallUS = tr.WallUS()
	}
	return out, nil
}

// Stats exposes the underlying service counters snapshot for
// observability (hit rate, per-backend routing, cancellations).
func (s *served) Stats() service.Snapshot { return s.svc.Counters().Snapshot() }
