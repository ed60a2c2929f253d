package smt

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Cache is the LRU constraint-memoization cache of paper §4.3. Keys are
// canonical encodings of conjunctions; values are solver verdicts. Edges in
// the same program scope share path constraints (temporal locality), so the
// hit rate is high in practice (Table 4 reports 60–78%).
//
// The cache is sharded: keys hash onto independent LRU segments, each with
// its own lock, so concurrent edge-induction workers — and, in batch mode,
// whole concurrent checking instances sharing one cache — do not serialize
// on a single mutex. Statistics are kept in atomics for the same reason.
//
// Cache is safe for concurrent use.
type Cache struct {
	shards [cacheShards]cacheShard

	lookups atomic.Int64
	hits    atomic.Int64
}

// cacheShards is the number of independent LRU segments. Must be a power of
// two (shard selection masks the key hash).
const cacheShards = 16

type cacheShard struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List
	items    map[string]*list.Element
}

type cacheEntry struct {
	key string
	res Result
}

// NewCache returns an LRU cache holding up to capacity verdicts in total,
// spread across its shards. The shard maps start empty and grow: a check ends
// with a small fraction of the default capacity in use, and zeroing sixteen
// maps sized for all of it cost each engine more than the growth does.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	per := (capacity + cacheShards - 1) / cacheShards
	if per < 1 {
		per = 1
	}
	c := &Cache{}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			capacity: per,
			ll:       list.New(),
			items:    map[string]*list.Element{},
		}
	}
	return c
}

// shardForBytes selects the segment owning key (FNV-1a, masked).
func (c *Cache) shardForBytes(key []byte) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &c.shards[h&(cacheShards-1)]
}

// GetBytes returns the memoized verdict for key if present. The map index
// m[string(key)] form compiles allocation-free, so a cache probe costs no
// per-lookup garbage — the engine probes once per join candidate, which
// dominates allocation profiles without this. The caller may reuse key's
// backing array freely after the call.
func (c *Cache) GetBytes(key []byte) (Result, bool) {
	c.lookups.Add(1)
	s := c.shardForBytes(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[string(key)]
	if !ok {
		return Unknown, false
	}
	c.hits.Add(1)
	s.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// PutBytes records a verdict, evicting the shard's least recently used entry
// when its segment is full; the key string is materialized only when a new
// entry is actually inserted. The caller may reuse key's backing array after
// the call.
func (c *Cache) PutBytes(key []byte, res Result) {
	s := c.shardForBytes(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[string(key)]; ok {
		el.Value.(*cacheEntry).res = res
		s.ll.MoveToFront(el)
		return
	}
	el := s.ll.PushFront(&cacheEntry{key: string(key), res: res})
	s.items[string(key)] = el
	if s.ll.Len() > s.capacity {
		last := s.ll.Back()
		s.ll.Remove(last)
		delete(s.items, last.Value.(*cacheEntry).key)
	}
}

// Len reports the number of cached verdicts across all shards.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Lookups reports the total number of GetBytes calls.
func (c *Cache) Lookups() int64 { return c.lookups.Load() }

// Hits reports how many GetBytes calls were served from the cache.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// HitRate reports the fraction of lookups served from the cache.
func (c *Cache) HitRate() float64 {
	l := c.lookups.Load()
	if l == 0 {
		return 0
	}
	return float64(c.hits.Load()) / float64(l)
}
