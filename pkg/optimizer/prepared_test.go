package optimizer

import (
	"context"
	"sync"
	"testing"
)

// TestSharedQueryAcrossGoroutinesAndDrivers is the -race test behind Query's
// "safe to share" promise now that a Query keeps derived state: one
// 100-relation query (past the 64-vertex bitmask, so the graph's lazy
// adjacency sets are in play) is asked by 8 goroutines at once through
// Served, Remote and InProcess, and everyone sees one fingerprint.
func TestSharedQueryAcrossGoroutinesAndDrivers(t *testing.T) {
	q := Snowflake(100, 5)
	served := Served(ServedConfig{Workers: 4})
	defer served.Close()
	drivers := []Optimizer{served, newRemoteOverService(t), InProcess()}

	var wg sync.WaitGroup
	fps := make([]string, 8)
	start := make(chan struct{})
	for i := range fps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for _, d := range drivers {
				res, err := d.Optimize(context.Background(), q, WithExplain())
				if err != nil {
					t.Error(err)
					return
				}
				if fps[i] != "" && res.Fingerprint != fps[i] {
					t.Errorf("goroutine %d: fingerprint changed between drivers", i)
				}
				fps[i] = res.Fingerprint
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i, fp := range fps {
		if fp == "" || fp != fps[0] {
			t.Errorf("goroutine %d saw fingerprint %q, goroutine 0 %q", i, fp, fps[0])
		}
	}
}

// remoteAllocCeiling bounds the heap allocations of one replayed
// Remote.Optimize(WithExplain) round trip to an in-process httptest server,
// client and server side together (12 relations, plan cached):
//
//	parent commit 480, with the statement memo and the SDK's kept body 151
//	(164 under -race)
//
// The ceiling leaves the race detector's extra and a little toolchain drift;
// raise it only with a measurement that says why.
const remoteAllocCeiling = 175

func TestRemoteWarmHitAllocBudget(t *testing.T) {
	r := newRemoteOverCluster(t)
	defer r.Close()
	q := MusicBrainz(12, 3)
	ask := func() {
		res, err := r.Optimize(context.Background(), q, WithExplain())
		if err != nil {
			t.Fatal(err)
		}
		if res.Explain == "" {
			t.Fatal("no plan rendered")
		}
	}
	ask() // plan, replicate, memoise; encode the query's wire body
	ask()
	allocs := testing.AllocsPerRun(200, ask)
	t.Logf("replayed Remote.Optimize: %.0f allocs (ceiling %d)", allocs, remoteAllocCeiling)
	if allocs > remoteAllocCeiling {
		t.Errorf("a replayed Remote.Optimize allocates %.0f times, ceiling %d", allocs, remoteAllocCeiling)
	}
}
