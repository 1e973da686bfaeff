package service

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// cached is one plan-cache entry: the Entry it was served or imported as,
// plus the live count of exact-key hits served from it. The plan is stored
// in canonical index space (see Fingerprint) and must be remapped through a
// query's permutation before being handed out; entries are therefore
// immutable (except the atomic hit counter) and safe to share across
// shards' readers.
type cached struct {
	Entry
	hits atomic.Uint64
}

// cacheShard is one LRU segment: a mutex, the recency list and the index.
type cacheShard struct {
	mu    sync.Mutex
	ll    *list.List
	items map[string]*list.Element
	cap   int
}

// Cache is a sharded LRU plan cache. Keys are canonical fingerprints;
// sharding by key hash keeps concurrent callers on different queries from
// contending on one mutex. Hit/miss accounting lives in the service-level
// Counters, not here.
type Cache struct {
	shards []*cacheShard
}

// NewCache builds a cache with the given shard count (rounded up to a power
// of two, minimum 1) and total entry capacity split evenly across shards.
func NewCache(shards, capacity int) *Cache {
	if shards < 1 {
		shards = 1
	}
	pow := 1
	for pow < shards {
		pow <<= 1
	}
	shards = pow
	if capacity < shards {
		capacity = shards
	}
	c := &Cache{shards: make([]*cacheShard, shards)}
	per := capacity / shards
	for i := range c.shards {
		c.shards[i] = &cacheShard{ll: list.New(), items: make(map[string]*list.Element), cap: per}
	}
	return c
}

func (c *Cache) shard(key string) *cacheShard {
	return c.shards[fnvString(key)&uint64(len(c.shards)-1)]
}

// Get returns the entry for key, promoting it to most-recently-used.
func (c *Cache) Get(key string) (*cached, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*cached), true
}

// Put inserts (or refreshes) an entry, evicting the least-recently-used
// entries of the shard while it is over capacity.
func (c *Cache) Put(e *cached) {
	s := c.shard(e.Key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[e.Key]; ok {
		el.Value = e
		s.ll.MoveToFront(el)
		return
	}
	s.items[e.Key] = s.ll.PushFront(e)
	for s.ll.Len() > s.cap {
		back := s.ll.Back()
		s.ll.Remove(back)
		delete(s.items, back.Value.(*cached).Key)
	}
}

// Delete removes the entry for key, reporting whether it was present.
func (c *Cache) Delete(key string) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return false
	}
	s.ll.Remove(el)
	delete(s.items, key)
	return true
}

// Flush drops every entry from every shard.
func (c *Cache) Flush() {
	for _, s := range c.shards {
		s.mu.Lock()
		s.ll.Init()
		s.items = make(map[string]*list.Element)
		s.mu.Unlock()
	}
}

// Export returns every cached entry, least-recently-used first within each
// shard, so replaying the slice through Put on another cache reproduces the
// source's recency order (hottest entries inserted last end up at the
// front). Entries are immutable, so the caller may hold them without
// copying.
func (c *Cache) Export() []*cached {
	var out []*cached
	for _, s := range c.shards {
		s.mu.Lock()
		for el := s.ll.Back(); el != nil; el = el.Prev() {
			out = append(out, el.Value.(*cached))
		}
		s.mu.Unlock()
	}
	return out
}

// Len returns the number of cached plans across all shards.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Shards returns the shard count (always a power of two).
func (c *Cache) Shards() int { return len(c.shards) }
