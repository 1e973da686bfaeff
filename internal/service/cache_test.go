package service

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(1, 3)
	put := func(k string) { c.Put(&cached{Entry: Entry{Key: k}}) }
	put("a")
	put("b")
	put("c")
	if _, ok := c.Get("a"); !ok { // promotes a over b
		t.Fatal("a missing")
	}
	put("d") // evicts b, the least recently used
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should be cached", k)
		}
	}
	if got := c.Len(); got != 3 {
		t.Errorf("Len = %d, want 3", got)
	}
}

func TestCachePutRefreshesExisting(t *testing.T) {
	c := NewCache(1, 2)
	c.Put(&cached{Entry: Entry{Key: "k", Shape: core.ShapeChain}})
	c.Put(&cached{Entry: Entry{Key: "k", Shape: core.ShapeStar}})
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	e, ok := c.Get("k")
	if !ok || e.Shape != core.ShapeStar {
		t.Errorf("refresh lost the newest entry: %+v ok=%v", e, ok)
	}
}

func TestCacheShardRounding(t *testing.T) {
	c := NewCache(5, 100)
	if c.Shards() != 8 {
		t.Errorf("Shards = %d, want 8", c.Shards())
	}
	if c = NewCache(0, 0); c.Shards() != 1 {
		t.Errorf("Shards = %d, want 1", c.Shards())
	}
}

// TestCacheConcurrent hammers a shared cache from many goroutines; run
// with -race, it is the shard-locking regression test.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(8, 64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("key-%d", (w*31+i)%128)
				if i%3 == 0 {
					c.Put(&cached{Entry: Entry{Key: k}})
				} else {
					c.Get(k)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Errorf("cache exceeded capacity: %d", c.Len())
	}
}

// TestCacheProbeDoesNotAllocate guards the in-place shard hash: a probe
// with a several-hundred-byte fingerprint key allocates nothing, without
// counting on the compiler to elide a []byte copy of the key for hash/fnv.
func TestCacheProbeDoesNotAllocate(t *testing.T) {
	c := NewCache(16, 64)
	key := FingerprintQuery(genQuery(t, workload.KindCycle, 14, 1)).Key
	c.Put(&cached{Entry: Entry{Key: key}})
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get(key); !ok {
			t.Fatal("entry missing")
		}
		c.Get("absent")
	}); n != 0 {
		t.Errorf("cache probe allocates %.0f times, want 0", n)
	}
	// Same 64 bits as hash/fnv, so shard placement did not move.
	h := fnv.New64a()
	h.Write([]byte(key))
	if got, want := fnvString(key), h.Sum64(); got != want {
		t.Errorf("fnvString = %#x, hash/fnv = %#x", got, want)
	}
}
