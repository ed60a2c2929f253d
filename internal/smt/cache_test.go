package smt

import (
	"fmt"
	"testing"

	"github.com/grapple-system/grapple/internal/constraint"
)

// cachedSolve memoizes s's verdict for c in cache under c's canonical key, the
// way the engine memoizes under the encoded path (§4.3). The solver runs on
// the canonical form — its incomplete integer reasoning can be sensitive to
// atom order and the key is order-blind, so solving anything else would let
// the first caller's atom order decide what every logically-equal
// conjunction gets back. A nil cache solves every time.
func cachedSolve(s *Solver, cache *Cache, c constraint.Conj) Result {
	canon := c.Canon()
	if cache == nil {
		return s.Solve(canon)
	}
	key := []byte(canon.Key())
	if r, ok := cache.GetBytes(key); ok {
		return r
	}
	r := s.Solve(canon)
	cache.PutBytes(key, r)
	return r
}

// TestCacheByteKeyInterop pins the contract the engine's pooled join relies
// on: a key is its bytes, whichever buffer holds them — an entry put through
// one slice is found, and overwritten in place, through any other with the
// same contents.
func TestCacheByteKeyInterop(t *testing.T) {
	c := NewCache(1024)
	scratch := make([]byte, 0, 64)
	for i := 0; i < 100; i++ {
		res := Sat
		if i%2 != 0 {
			res = Unsat
		}
		scratch = fmt.Appendf(scratch[:0], "conj-%d", i)
		c.PutBytes(scratch, res)
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("conj-%d", i)
		want := Sat
		if i%2 != 0 {
			want = Unsat
		}
		if got, ok := c.GetBytes([]byte(key)); !ok || got != want {
			t.Fatalf("GetBytes(%q) = %v, %v; want %v", key, got, ok, want)
		}
	}
	// Overwriting through another buffer updates in place, no duplicate.
	before := c.Len()
	c.PutBytes([]byte("conj-0"), Unknown)
	if c.Len() != before {
		t.Fatalf("PutBytes of an existing key grew the cache: %d -> %d", before, c.Len())
	}
	if got, _ := c.GetBytes(append(scratch[:0], "conj-0"...)); got != Unknown {
		t.Fatalf("GetBytes after overwrite = %v, want Unknown", got)
	}
}

// TestCacheByteKeyReuseSafe verifies PutBytes does not retain the caller's
// backing array: mutating the probe buffer after insert must not corrupt the
// stored key.
func TestCacheByteKeyReuseSafe(t *testing.T) {
	c := NewCache(64)
	buf := []byte("stable-key")
	c.PutBytes(buf, Sat)
	for i := range buf {
		buf[i] = 'x'
	}
	if got, ok := c.GetBytes([]byte("stable-key")); !ok || got != Sat {
		t.Fatalf("stored key corrupted by caller reuse: %v, %v", got, ok)
	}
	if _, ok := c.GetBytes([]byte("xxxxxxxxxx")); ok {
		t.Fatal("mutated buffer contents found in cache")
	}
}

// TestCacheByteKeyEviction checks the per-shard LRU: filling a shard past
// capacity through PutBytes evicts its least-recently-used entries.
func TestCacheByteKeyEviction(t *testing.T) {
	// capacity 16 -> one slot per shard.
	c := NewCache(16)
	for i := 0; i < 500; i++ {
		c.PutBytes([]byte(fmt.Sprintf("k-%d", i)), Sat)
	}
	if got := c.Len(); got > 16 {
		t.Fatalf("cache holds %d entries, capacity 16", got)
	}
	// Each shard keeps only the newest key it received; at least one of the
	// early keys must be gone.
	evicted := false
	for i := 0; i < 100; i++ {
		if _, ok := c.GetBytes([]byte(fmt.Sprintf("k-%d", i))); !ok {
			evicted = true
			break
		}
	}
	if !evicted {
		t.Fatal("no early byte-key entry was evicted")
	}
}
