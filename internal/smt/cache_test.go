package smt

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/grapple-system/grapple/internal/constraint"
	"github.com/grapple-system/grapple/internal/raceflag"
)

// countingCache counts the probes made through it, the tally the engine
// keeps per join worker; the cache itself keeps none.
type countingCache struct {
	*Cache
	lookups, hits int
}

func (c *countingCache) GetBytes(key []byte) (Result, bool) {
	c.lookups++
	r, ok := c.Cache.GetBytes(key)
	if ok {
		c.hits++
	}
	return r, ok
}

// cachedSolve memoizes s's verdict for c in cache under c's canonical key, the
// way the engine memoizes under the encoded path (§4.3). The solver runs on
// the canonical form — its incomplete integer reasoning can be sensitive to
// atom order and the key is order-blind, so solving anything else would let
// the first caller's atom order decide what every logically-equal
// conjunction gets back. A nil cache solves every time.
func cachedSolve(s *Solver, cache *countingCache, c constraint.Conj) Result {
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

// TestCacheByteKeyEviction checks per-shard eviction: filling a shard past
// capacity through PutBytes evicts entries nobody has hit.
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

// TestCacheCapacityIsABound: NewCache(capacity) never holds more than
// capacity verdicts, however many distinct keys are put — also when capacity
// is not a multiple of the shard count — and the evictions that keeps it there
// leave every shard's table consistent.
func TestCacheCapacityIsABound(t *testing.T) {
	for _, capacity := range []int{1, 15, 20, 33, 1000} {
		c := NewCache(capacity)
		for i := 0; i < 10*capacity; i++ {
			c.PutBytes(fmt.Appendf(nil, "bound-%d", i), Sat)
		}
		if got := c.Len(); got > capacity {
			t.Errorf("NewCache(%d) holds %d verdicts after %d distinct puts", capacity, got, 10*capacity)
		}
		checkShards(t, c)
	}
}

// sameShardKeys returns n distinct keys that hash to one shard.
func sameShardKeys(n int) [][]byte {
	var keys [][]byte
	var shard uint64
	for i := 0; len(keys) < n; i++ {
		k := fmt.Appendf(nil, "clock-%d", i)
		s := cacheHash(k) >> (64 - cacheShardBits)
		if len(keys) == 0 {
			shard = s
		}
		if s == shard {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestCacheClockSecondChance pins the eviction policy of a full shard: a key
// hit since the CLOCK hand last passed survives the next eviction, and a key
// nobody hit since then is the one evicted.
func TestCacheClockSecondChance(t *testing.T) {
	k := sameShardKeys(3)
	// Either of the two keys may be the one hit, so it is the reference
	// bit, not the slot order the hand meets them in, that decides.
	for hit := 0; hit < 2; hit++ {
		c := NewCache(2 * cacheShards) // two verdicts per shard
		c.PutBytes(k[0], Sat)
		c.PutBytes(k[1], Unsat) // the shard is full
		if _, ok := c.GetBytes(k[hit]); !ok {
			t.Fatalf("%s missing before any eviction", k[hit])
		}
		c.PutBytes(k[2], Sat) // evicts one of k0, k1
		if r, ok := c.GetBytes(k[hit]); !ok || r != []Result{Sat, Unsat}[hit] {
			t.Fatalf("%s, hit since the last sweep, = %v, %v after an eviction", k[hit], r, ok)
		}
		if _, ok := c.GetBytes(k[1-hit]); ok {
			t.Fatalf("the unreferenced %s survived the eviction", k[1-hit])
		}
		if r, ok := c.GetBytes(k[2]); !ok || r != Sat {
			t.Fatalf("%s = %v, %v after its own insert", k[2], r, ok)
		}
		if c.Len() != 2 {
			t.Fatalf("len = %d want 2", c.Len())
		}
	}
}

// TestCachePutAllocs: an insert copies its key into the shard's arena, so
// inserting allocates only when a table or an arena grows — a few times per
// shard, not once or more per key.
func TestCachePutAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime inflates allocation")
	}
	keys := make([][]byte, 10000)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "\x00\x01\x02\x03\x04\x05\x06\x07path-%06d", i)
	}
	c := NewCache(1 << 16)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range keys {
		c.PutBytes(k, Sat)
	}
	runtime.ReadMemStats(&after)
	got := after.Mallocs - before.Mallocs
	t.Logf("%d distinct inserts, %d allocations", len(keys), got)
	if got > 64 {
		t.Fatalf("%d distinct inserts allocate %d times, want <= 64", len(keys), got)
	}
	if c.Len() != len(keys) {
		t.Fatalf("len = %d want %d", c.Len(), len(keys))
	}
}
