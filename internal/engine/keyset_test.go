package engine

import (
	"math/rand"
	"testing"
)

// TestKeySetMatchesMap holds the open-addressed dedupe index to the map it
// replaced, on every answer of every operation: random keys (with repeats),
// the zero key, keys that all collide on their low bits — one probe chain
// through the whole table, across every growth — and keys that differ in
// their low bits only, with membership of present and absent keys re-asked
// right after each doubling up to 2^20 slots.
func TestKeySetMatchesMap(t *testing.T) {
	var s keySet
	oracle := map[uint64]struct{}{}
	add := func(k uint64) {
		t.Helper()
		_, had := oracle[k]
		oracle[k] = struct{}{}
		if absent := s.add(k); absent == had {
			t.Fatalf("add(%#x) reported absent=%v, the map had it: %v", k, absent, had)
		}
		if !s.has(k) {
			t.Fatalf("has(%#x) false right after add", k)
		}
	}
	audit := func(rng *rand.Rand) {
		t.Helper()
		n := s.n
		if s.hasZero {
			n++
		}
		if n != len(oracle) {
			t.Fatalf("set holds %d keys, map %d", n, len(oracle))
		}
		if 2*s.n > len(s.slots) {
			t.Fatalf("%d keys in %d slots: more than half full", s.n, len(s.slots))
		}
		for k := range oracle {
			if !s.has(k) {
				t.Fatalf("key %#x lost at %d slots", k, len(s.slots))
			}
		}
		for i := 0; i < 4096; i++ {
			k := rng.Uint64()
			if _, want := oracle[k]; s.has(k) != want {
				t.Fatalf("has(%#x) = %v at %d slots, map says %v", k, !want, len(s.slots), want)
			}
		}
	}

	if s.has(0) || s.has(1) {
		t.Fatal("the empty set has a key")
	}
	rng := rand.New(rand.NewSource(22))
	add(0)
	add(0)
	// Same low 20 bits: every one of these probes from the same slot at every
	// table size the test reaches.
	for i := uint64(1); i <= 300; i++ {
		add(i<<20 | 0xabcde)
		add(i<<40 | 0xabcde)
	}
	// Neighbours: each key's home slot is the next key's first alternative.
	for i := uint64(1); i <= 2000; i++ {
		add(i)
	}
	slots := len(s.slots)
	audit(rng)
	for len(s.slots) < 1<<20 {
		k := rng.Uint64()
		if rng.Intn(8) == 0 {
			k &= 0xffff // a small range: repeats, and the zero key again
		}
		add(k)
		if len(s.slots) != slots {
			if len(s.slots) != 2*slots {
				t.Fatalf("table went from %d to %d slots", slots, len(s.slots))
			}
			slots = len(s.slots)
			audit(rng)
		}
	}
	audit(rng)
}
