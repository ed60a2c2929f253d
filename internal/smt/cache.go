package smt

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"
)

// Cache is the constraint-memoization cache of paper §4.3. Keys are
// canonical encodings of conjunctions; values are solver verdicts. Edges in
// the same program scope share path constraints (temporal locality), so the
// hit rate is high in practice (Table 4 reports 60–78%).
//
// The top bits of a key's hash pick one of sixteen shards, each behind its
// own lock, so concurrent edge-induction workers — and, in batch mode, whole
// concurrent instances sharing one cache — do not serialize on one mutex. A
// shard is an exact open-addressed table shaped like the engine's dedupe
// index: linear probing from the hash's low bits, at most half full, each
// slot naming its key's bytes in an append-only arena. A probe is one walk
// comparing hash, length, then bytes; an insert copies the key into the arena
// and allocates nothing per entry. A full shard evicts by CLOCK, not §4.3's
// LRU (EXPERIMENTS.md, Deviation 6). The cache keeps no statistics: each
// engine counts its own probes.
//
// Cache is safe for concurrent use.
type Cache struct {
	shards [cacheShards]cacheShard
}

const (
	cacheShardBits = 4
	cacheShards    = 1 << cacheShardBits
	// cacheMinSlots is a shard's first table size unless its capacity needs
	// fewer: a check caching a few thousand paths grows a table once or twice.
	cacheMinSlots = 1 << 10
)

type cacheShard struct {
	mu    sync.Mutex
	limit int         // most verdicts the shard holds
	slots []cacheSlot // length 0 or a power of two, at most half full
	n     int         // occupied slots
	hand  int         // the slot the next CLOCK sweep starts at
	keys  []byte      // the key arena: every slot's bytes, plus dead ones
	dead  int         // arena bytes of evicted keys
}

// cacheSlot is one verdict, its key keys[off:off+n]. hash holds the low 32
// bits of the key's hash, never 0: a zero hash marks an empty slot.
type cacheSlot struct {
	hash    uint32
	off, n  uint32
	verdict Result
	ref     bool // hit since the CLOCK hand last passed
}

// NewCache returns a cache holding up to capacity verdicts in total, split
// across its shards as evenly as integers allow. The shard tables start empty
// and grow: a check ends with a small fraction of the default capacity in
// use.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].limit = capacity / cacheShards
		if i < capacity%cacheShards {
			c.shards[i].limit++
		}
	}
	return c
}

// The mixer and constants of storage/key.go: the 64x64->128 multiply-fold,
// absorbing two 64-bit words per multiply, with no per-process seed.
const (
	k0 = 0xa0761d6478bd642f
	k1 = 0xe7037ed1a0b428db
	k2 = 0x8ebc6af09c88c6e3
	k3 = 0x589965cc75374cc3
)

func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// cacheHash folds a key as little-endian 8-byte words, two per multiply, the
// tail zero-padded. The length is absorbed first, so keys that differ only by
// trailing zero bytes still hash apart.
func cacheHash(key []byte) uint64 {
	h := k0 ^ uint64(len(key))
	for ; len(key) >= 16; key = key[16:] {
		h = mix(binary.LittleEndian.Uint64(key)^k1, binary.LittleEndian.Uint64(key[8:])^h)
	}
	var tail [16]byte
	copy(tail[:], key)
	h = mix(binary.LittleEndian.Uint64(tail[:])^k1, binary.LittleEndian.Uint64(tail[8:])^h)
	return mix(h^k2, k3)
}

// locate hashes key and returns its shard and its 32-bit slot hash.
func (c *Cache) locate(key []byte) (*cacheShard, uint32) {
	h := cacheHash(key)
	return &c.shards[h>>(64-cacheShardBits)], max(uint32(h), 1)
}

// find returns the slot holding key, or the empty slot where its probe ends
// (-1 while the table is unallocated).
func (s *cacheShard) find(h uint32, key []byte) (int, bool) {
	if len(s.slots) == 0 {
		return -1, false
	}
	mask := uint32(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.hash == 0 {
			return int(i), false
		}
		if sl.hash == h && int(sl.n) == len(key) && bytes.Equal(s.keys[sl.off:sl.off+sl.n], key) {
			return int(i), true
		}
	}
}

// GetBytes returns the memoized verdict for key if present. A probe allocates
// nothing, and the caller may reuse key's backing array freely after the
// call.
func (c *Cache) GetBytes(key []byte) (Result, bool) {
	s, h := c.locate(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.find(h, key)
	if !ok {
		return Unknown, false
	}
	if sl := &s.slots[i]; !sl.ref {
		sl.ref = true
	}
	return s.slots[i].verdict, true
}

// PutBytes records a verdict. A new key is copied into its shard's arena,
// after a CLOCK sweep has evicted one entry if the shard is full; the caller
// may reuse key's backing array after the call. An insert allocates only when
// the table or the arena grows.
func (c *Cache) PutBytes(key []byte, res Result) {
	s, h := c.locate(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, found := s.find(h, key)
	switch {
	case found:
		s.slots[i].verdict, s.slots[i].ref = res, true
		return
	case s.limit == 0:
		return
	case s.n == s.limit:
		s.evict()
		i, _ = s.find(h, key)
	case 2*(s.n+1) > len(s.slots):
		s.grow(len(key))
		i, _ = s.find(h, key)
	}
	s.slots[i] = cacheSlot{hash: h, off: uint32(len(s.keys)), n: uint32(len(key)), verdict: res}
	s.keys = append(s.keys, key...)
	s.n++
}

// grow doubles the table (or sizes it first), re-seats every slot, and makes
// arena room for the keys the new table takes before it grows again, at the
// mean key length so far (keyLen, the incoming key's, before there is one).
func (s *cacheShard) grow(keyLen int) {
	old := s.slots
	size := max(2*len(old), min(cacheMinSlots, 1<<bits.Len(uint(2*s.limit-1))))
	s.slots = make([]cacheSlot, size)
	for _, sl := range old {
		if sl.hash != 0 {
			i, _ := s.find(sl.hash, s.keys[sl.off:sl.off+sl.n])
			s.slots[i] = sl
		}
	}
	s.hand = 0
	if s.n > 0 {
		keyLen = (len(s.keys) - s.dead) / s.n
	}
	s.keys = slices.Grow(s.keys, (min(size/2, s.limit)-s.n)*keyLen)
}

// evict runs the CLOCK hand to the first occupied slot not hit since the hand
// last passed it, clearing the reference bits it passes, and deletes that
// slot. The arena is compacted once dead bytes exceed live ones.
func (s *cacheShard) evict() {
	mask := len(s.slots) - 1
	for ; s.slots[s.hand].hash == 0 || s.slots[s.hand].ref; s.hand = (s.hand + 1) & mask {
		s.slots[s.hand].ref = false
	}
	s.dead += int(s.slots[s.hand].n)
	s.n--
	s.delete(s.hand)
	if s.dead > len(s.keys)-s.dead {
		keys := make([]byte, 0, cap(s.keys))
		for i := range s.slots {
			if sl := &s.slots[i]; sl.hash != 0 {
				keys = append(keys, s.keys[sl.off:sl.off+sl.n]...)
				sl.off = uint32(len(keys)) - sl.n
			}
		}
		s.keys, s.dead = keys, 0
	}
}

// delete empties slot i by backward-shift deletion: each later slot of the
// run that may sit at or before the hole moves into it, so every remaining
// key is still reached from its home slot without a tombstone. A slot shifts
// only towards the hole, so none moves behind the CLOCK hand standing on it.
func (s *cacheShard) delete(i int) {
	mask := len(s.slots) - 1
	for j := (i + 1) & mask; s.slots[j].hash != 0; j = (j + 1) & mask {
		if home := int(s.slots[j].hash) & mask; (j-home)&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = cacheSlot{}
}

// Len reports the number of cached verdicts across all shards.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.n
		s.mu.Unlock()
	}
	return n
}
