package optimizer

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/internal/leaktest"
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

// The heap a replayed Remote.Optimize(WithExplain) round trip to an
// in-process httptest server may allocate, client and server side together
// (12 relations, plan cached, one P), as a count and in bytes:
//
//	PR 16 (statement memo, the SDK's kept body)             151 allocs, 29 523 B
//	PR 23 (sized recycled bodies, appendFixed, the decoder)  133 allocs, 14 657 B
//
// Each ceiling is the measurement + 10 %. What PR 23 removed is large
// buffers, not many small ones, so it is the bytes that are gated against
// the parent (at most 0.7x its 29 523) and the count only against itself;
// most of the count that is left is net/http's on both sides (headers,
// contexts, transfer readers). Under the race detector sync.Pool drops a
// quarter of what it is handed: the count measured there is 149-152, and
// bytes mean nothing.
const (
	remoteAllocCeiling     = 146
	remoteAllocCeilingRace = 166
	remoteBytesCeiling     = 16_100
	remoteBytesParent      = 29_523
)

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
	maxAllocs := float64(remoteAllocCeiling)
	if leaktest.RaceEnabled() {
		maxAllocs = remoteAllocCeilingRace
	}
	allocs := testing.AllocsPerRun(200, ask)
	t.Logf("replayed Remote.Optimize: %.0f allocs (ceiling %.0f)", allocs, maxAllocs)
	if allocs > maxAllocs {
		t.Errorf("a replayed Remote.Optimize allocates %.0f times, ceiling %.0f", allocs, maxAllocs)
	}
	if leaktest.RaceEnabled() {
		return
	}
	// AllocsPerRun counts; the same loop again, on one P like it, for bytes.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		ask()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("replayed Remote.Optimize: %.0f B (ceiling %d, 0.7x the parent's is %.0f)", bytes, remoteBytesCeiling, 0.7*remoteBytesParent)
	if bytes > remoteBytesCeiling {
		t.Errorf("a replayed Remote.Optimize allocates %.0f B, ceiling %d", bytes, remoteBytesCeiling)
	}
}
