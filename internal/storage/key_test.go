package storage

import (
	"math/rand"
	"testing"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/raceflag"
)

// keyMutations returns every single-field perturbation of e that changes
// its identity: each endpoint, the label, relation presence, each relation
// row, the encoding's length, and each field of each encoding element.
func keyMutations(e Edge) []Edge {
	clone := func() Edge {
		c := e
		c.Enc = e.Enc.Clone()
		return c
	}
	var out []Edge
	add := func(f func(c *Edge)) {
		c := clone()
		f(&c)
		out = append(out, c)
	}
	add(func(c *Edge) { c.Src ^= 1 })
	add(func(c *Edge) { c.Dst ^= 1 })
	if e.Src != e.Dst {
		add(func(c *Edge) { c.Src, c.Dst = c.Dst, c.Src }) // direction matters
	}
	add(func(c *Edge) { c.Label ^= 1 })
	add(func(c *Edge) { c.HasRel = !c.HasRel })
	if e.HasRel {
		for i := range e.Rel {
			i := i
			add(func(c *Edge) { c.Rel[i] ^= 1 << uint(i) })
		}
	}
	add(func(c *Edge) { c.Enc = append(c.Enc, cfet.Elem{}) })
	if len(e.Enc) > 0 {
		add(func(c *Edge) { c.Enc = c.Enc[:len(c.Enc)-1] })
	}
	for i := range e.Enc {
		i := i
		add(func(c *Edge) { c.Enc[i].Kind ^= 1 })
		add(func(c *Edge) { c.Enc[i].Method ^= 1 })
		add(func(c *Edge) { c.Enc[i].Start ^= 1 })
		add(func(c *Edge) { c.Enc[i].End ^= 1 << 40 })
		add(func(c *Edge) { c.Enc[i].Call ^= 1 })
	}
	return out
}

// TestKeyProperties: equal edges have equal keys, every identity-changing
// single-field flip changes the key, Gen never does, and the two-level
// construction agrees with itself.
func TestKeyProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		e := randEdge(rng)
		same := e
		same.Enc = e.Enc.Clone()
		same.Gen = e.Gen + 1 + uint32(trial)
		if !e.HasRel {
			// Rel is not part of an edge's identity unless HasRel says so.
			same.Rel[trial%fsm.MaxStates] = 0xbeef
		}
		if same.Key() != e.Key() {
			t.Fatalf("trial %d: equal edges (up to Gen) have different keys: %+v", trial, e)
		}
		if got := KeyOf(e.Src, e.Dst, e.Label, e.PayloadHash()); got != e.Key() {
			t.Fatalf("trial %d: KeyOf(PayloadHash) %#x != Key %#x", trial, got, e.Key())
		}
		for i, m := range keyMutations(e) {
			if m.Key() == e.Key() {
				t.Fatalf("trial %d: mutation %d keeps the key:\n  base %+v\n  mut  %+v", trial, i, e, m)
			}
		}
		sk := e
		sk.Enc = e.Enc.Skeleton()
		if got, n := e.SkeletonPayloadHash(); got != sk.PayloadHash() || n != len(sk.Enc) {
			t.Fatalf("trial %d: in-place skeleton hash %#x len %d != materialized skeleton's %#x len %d (enc %v)",
				trial, got, n, sk.PayloadHash(), len(sk.Enc), e.Enc)
		}
	}
}

// TestKeyRelPresence: an edge without a relation and one carrying the
// all-zero relation are different edges; a nil and an empty encoding are
// the same one.
func TestKeyRelPresence(t *testing.T) {
	base := Edge{Src: 1, Dst: 2, Label: 3, Enc: cfet.Enc{cfet.Interval(0, 0, 5)}}
	zeroRel := base
	zeroRel.HasRel = true
	if zeroRel.Key() == base.Key() {
		t.Fatal("no relation and the all-zero relation share a key")
	}
	a, b := base, base
	a.Enc, b.Enc = nil, cfet.Enc{}
	if a.Key() != b.Key() {
		t.Fatal("nil and empty encodings have different keys")
	}
}

// TestKeyZeroAlloc is the `make alloc-budget` gate on the dedupe key.
func TestKeyZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	rng := rand.New(rand.NewSource(5))
	e := randEdge(rng)
	e.HasRel = true
	var sink uint64
	if allocs := testing.AllocsPerRun(100, func() {
		sk, _ := e.SkeletonPayloadHash()
		sink ^= e.Key() ^ sk
	}); allocs != 0 {
		t.Fatalf("Edge.Key allocates %.1f/op, want 0", allocs)
	}
	_ = sink
}

func BenchmarkEdgeKey(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	edges := make([]Edge, 1024)
	for i := range edges {
		edges[i] = randEdge(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var fold uint64
	for i := 0; i < b.N; i++ {
		fold ^= edges[i%len(edges)].Key()
	}
	benchSink = fold
}

var benchSink uint64
