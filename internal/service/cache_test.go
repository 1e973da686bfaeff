package service

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"repro/internal/workload"
)

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(1, 3)
	put := func(k string) { c.Put(&cached{key: k}) }
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
	c.Put(&cached{key: "k", shape: ShapeChain})
	c.Put(&cached{key: "k", shape: ShapeStar})
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	e, ok := c.Get("k")
	if !ok || e.shape != ShapeStar {
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
					c.Put(&cached{key: k})
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

// TestCachePutReportsEvictions pins what the structural index's pruning
// relies on: Put returns exactly the entries it pushed out.
func TestCachePutReportsEvictions(t *testing.T) {
	c := NewCache(1, 2)
	if ev := c.Put(&cached{key: "a"}); ev != nil {
		t.Errorf("first insert evicted %v", ev)
	}
	c.Put(&cached{key: "b"})
	if ev := c.Put(&cached{key: "b"}); ev != nil {
		t.Errorf("refresh evicted %v", ev)
	}
	ev := c.Put(&cached{key: "c"})
	if len(ev) != 1 || ev[0].key != "a" {
		t.Errorf("evicted %v, want exactly a", ev)
	}
}

// TestCacheProbeDoesNotAllocate guards the in-place shard hash: a probe
// with a several-hundred-byte fingerprint key allocates nothing, without
// counting on the compiler to elide a []byte copy of the key for hash/fnv.
func TestCacheProbeDoesNotAllocate(t *testing.T) {
	c := NewCache(16, 64)
	key := FingerprintQuery(genQuery(t, workload.KindCycle, 14, 1)).Key
	c.Put(&cached{key: key})
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

// TestStructIdxPrunedOnEviction is the regression test for the structural
// index leak: cold-only traffic through a small cache must not leave index
// entries behind for plans the LRU has dropped.
func TestStructIdxPrunedOnEviction(t *testing.T) {
	s := New(Config{Workers: 2, CacheCapacity: 8, CacheShards: 1})
	defer s.Close()
	idxLen := func() int {
		s.structMu.Lock()
		defer s.structMu.Unlock()
		return len(s.structIdx)
	}
	// The index is stats-blind, so only a new shape or size is a new key:
	// 4 shapes x 10 sizes, five times the cache.
	kinds := []workload.Kind{workload.KindChain, workload.KindCycle, workload.KindStar, workload.KindClique}
	for i := 0; i < 40; i++ {
		q := genQuery(t, kinds[i%len(kinds)], 4+i/len(kinds), int64(i))
		if _, err := s.Optimize(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		if idx, plans := idxLen(), s.CacheLen(); idx > plans {
			t.Fatalf("after %d cold requests the structural index holds %d keys for %d cached plans", i+1, idx, plans)
		}
	}
	if s.CacheLen() != 8 {
		t.Fatalf("CacheLen = %d, want a full cache of 8 (the test must evict)", s.CacheLen())
	}
	s.structMu.Lock()
	defer s.structMu.Unlock()
	for sk, key := range s.structIdx {
		if _, ok := s.cache.Get(key); !ok {
			t.Errorf("structural index entry %q names evicted plan %q", sk, key)
		}
	}
}
