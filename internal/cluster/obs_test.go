package cluster

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/workload"
)

// TestClusterStatsLatencyMatchesMeasured is the rollup acceptance test: the
// quantiles the front door reports in /v1/stats (merged bucket-wise from
// every node's histograms) must match a client-side measured
// distribution of the same requests within the histogram's 6.25% relative
// error bound. The merge is lossless, so counts must agree exactly.
func TestClusterStatsLatencyMatchesMeasured(t *testing.T) {
	c := newTestCluster(t, 3, 2)
	ctx := context.Background()

	// A client-side mirror: one histogram per stats key.
	measured := make(map[string]*obs.Histogram)
	record := func(key string, d time.Duration) {
		h := measured[key]
		if h == nil {
			h = &obs.Histogram{}
			measured[key] = h
		}
		h.Record(d)
	}

	// Sequential traffic (no coalescing): 40 distinct queries, then the
	// same 40 again so every fingerprint also gets a cache hit, spread over
	// shapes so more than one backend shows up.
	var queries []*cost.Query
	for i := 0; i < 20; i++ {
		queries = append(queries, genQuery(t, workload.KindChain, 8+i%5, int64(i)))
	}
	for i := 0; i < 20; i++ {
		queries = append(queries, genQuery(t, workload.KindStar, 8+i%5, int64(100+i)))
	}
	for round := 0; round < 2; round++ {
		for _, q := range queries {
			res, err := c.Optimize(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			outcome := "miss"
			if res.CacheHit {
				outcome = "hit"
			}
			record(outcome+":"+string(res.Backend), res.Elapsed)
		}
	}

	got := c.Snapshot().Latency
	if len(got) == 0 {
		t.Fatal("cluster snapshot has no latency section")
	}
	if len(measured) == 0 {
		t.Fatal("mirror recorded nothing")
	}
	toMS := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	for key, h := range measured {
		q, ok := got[key]
		if !ok {
			t.Errorf("stats lack latency key %q (have %v)", key, keysOf(got))
			continue
		}
		if q.Count != h.Count() {
			t.Errorf("%s: count %d != measured %d", key, q.Count, h.Count())
		}
		checks := []struct {
			name string
			want float64
			got  float64
		}{
			{"p50", toMS(h.Quantile(0.50)), q.P50MS},
			{"p95", toMS(h.Quantile(0.95)), q.P95MS},
			{"p99", toMS(h.Quantile(0.99)), q.P99MS},
			{"max", toMS(h.Max()), q.MaxMS},
		}
		for _, ck := range checks {
			if !within(ck.got, ck.want, 0.0625) {
				t.Errorf("%s %s: stats %.4fms vs measured %.4fms (>6.25%% apart)",
					key, ck.name, ck.got, ck.want)
			}
		}
	}

	// Satellite: the request-weighted hit/miss averages must be rolled up
	// (they were computed per node but never merged before).
	s := c.Snapshot()
	if s.AvgHitMicros <= 0 || s.AvgMissMicros <= 0 {
		t.Errorf("avg_hit_us = %g, avg_miss_us = %g, want both > 0",
			s.AvgHitMicros, s.AvgMissMicros)
	}
}

func keysOf(m map[string]service.Quantiles) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func within(got, want, rel float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= rel*math.Max(math.Abs(got), math.Abs(want))
}
