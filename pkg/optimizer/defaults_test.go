package optimizer

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
)

// TestServedDefaultsPinned: a Served driver built from the zero config
// serves with the service's defaults — a 16-shard, 4096-plan cache, the
// GPU band on two devices, and the core defaults (all cores, IDP2's
// k = 15) everywhere else — so its plans are core.Optimize's at default
// options, and its GPU work model is InProcess's, whose default is the
// same two devices.
func TestServedDefaultsPinned(t *testing.T) {
	ctx := context.Background()
	drv := Served(ServedConfig{})
	defer drv.Close()

	if info := drv.(*served).svc.CacheInfo(0); info.Shards != 16 || info.Capacity != 4096 {
		t.Errorf("cache: %d shards, capacity %d; want 16 and 4096", info.Shards, info.Capacity)
	}

	cyc := Cycle(40, 1)
	got, err := drv.Optimize(ctx, cyc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := InProcess().Optimize(ctx, cyc, WithAlgorithm(AlgMPDPGPU), WithGPUDevices(2))
	if err != nil {
		t.Fatal(err)
	}
	if got.Algorithm != AlgMPDPGPU || got.GPUDevices != 2 ||
		math.Float64bits(got.GPUSimMS) != math.Float64bits(want.GPUSimMS) {
		t.Errorf("cycle-40: %s on %d devices, %v ms simulated; want mpdp-gpu on 2, %v ms",
			got.Algorithm, got.GPUDevices, got.GPUSimMS, want.GPUSimMS)
	}
	auto, err := InProcess().Optimize(ctx, cyc)
	if err != nil {
		t.Fatal(err)
	}
	if auto.GPUDevices != 2 || math.Float64bits(auto.GPUSimMS) != math.Float64bits(got.GPUSimMS) {
		t.Errorf("cycle-40 in process, no options: %d devices, %v ms simulated; served: 2, %v ms",
			auto.GPUDevices, auto.GPUSimMS, got.GPUSimMS)
	}

	for _, tc := range []struct {
		name string
		q    *Query
	}{
		{"snowflake-70", Snowflake(70, 1)},
		{"star-16", Star(16, 1)},
	} {
		got, err := drv.Optimize(ctx, tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ref, err := core.Optimize(ctx, tc.q.q, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got.Algorithm) != string(ref.Algorithm) ||
			math.Float64bits(got.Cost) != math.Float64bits(ref.Plan.Cost) {
			t.Errorf("%s: served %s at cost %v; core.Optimize %s at %v",
				tc.name, got.Algorithm, got.Cost, ref.Algorithm, ref.Plan.Cost)
		}
	}
}
