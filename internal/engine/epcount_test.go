package engine

import (
	"math"
	"math/rand"
	"testing"

	"github.com/grapple-system/grapple/internal/grammar"
	"github.com/grapple-system/grapple/internal/raceflag"
	"github.com/grapple-system/grapple/internal/storage"
)

// TestEndpointCountMatchesMap holds the open-addressed variant counter to the
// map it replaced, on every answer of every operation: random gets (a probe
// whose count is only read, which claims a slot for an absent endpoint and
// leaves it uncounted), increments (a probe and ++, what insert does) and
// repeats of both, over random endpoints, endpoints at the edges of their
// ranges — src and dst 0 and MaxUint32, label 0 and the largest label — and
// endpoints that all probe from one slot at every table size up to 2^14,
// across every doubling up to 2^17 slots.
func TestEndpointCountMatchesMap(t *testing.T) {
	var c endpointCounts
	oracle := map[storage.Endpoint]int{}
	get := func(ep storage.Endpoint) {
		t.Helper()
		if got := *c.at(ep); int(got) != oracle[ep] {
			t.Fatalf("get(%+v) = %d, the map has %d", ep, got, oracle[ep])
		}
	}
	inc := func(ep storage.Endpoint) {
		t.Helper()
		n := c.at(ep)
		if int(*n) != oracle[ep] {
			t.Fatalf("at(%+v) = %d before the increment, the map has %d", ep, *n, oracle[ep])
		}
		*n++
		oracle[ep]++
	}
	audit := func(rng *rand.Rand) {
		t.Helper()
		live := 0
		for _, s := range c.slots {
			if s.count > 0 {
				live++
				if int(s.count) != oracle[s.ep] {
					t.Fatalf("slot holds %+v at %d, the map has %d", s.ep, s.count, oracle[s.ep])
				}
			}
		}
		if live != len(oracle) || live > c.n {
			t.Fatalf("%d endpoints counted, %d claimed, the map has %d", live, c.n, len(oracle))
		}
		if 2*c.n > len(c.slots) {
			t.Fatalf("%d claims in %d slots: more than half full", c.n, len(c.slots))
		}
		for ep := range oracle {
			get(ep)
		}
		for range 1024 {
			get(randomEndpoint(rng))
		}
	}

	rng := rand.New(rand.NewSource(32))
	edges := []uint32{0, 1, math.MaxUint32 - 1, math.MaxUint32}
	for _, src := range edges {
		for _, dst := range edges {
			for _, l := range []grammar.Label{0, 1, math.MaxUint16} {
				ep := storage.Endpoint{Src: src, Dst: dst, Label: l}
				get(ep)
				inc(ep)
				get(ep)
				inc(ep)
			}
		}
	}
	audit(rng)
	// Same home slot at every size up to 2^14: one probe chain, gets left
	// uncounted in the middle of it, counts raised across it.
	const homeMask = 1<<14 - 1
	var chain []storage.Endpoint
	for len(chain) < 300 {
		if ep := randomEndpoint(rng); epHash(ep)&homeMask == 0x2a5 {
			chain = append(chain, ep)
		}
	}
	for round := range 3 {
		for k, ep := range chain {
			if (k+round)%3 == 0 {
				get(ep)
			} else {
				inc(ep)
			}
		}
		audit(rng)
	}
	slots := len(c.slots)
	for len(c.slots) < 1<<17 {
		ep := randomEndpoint(rng)
		if rng.Intn(4) == 0 {
			ep.Src, ep.Dst = ep.Src&0xff, ep.Dst&0xff // a small range: repeats
		}
		if rng.Intn(3) == 0 {
			get(ep)
		} else {
			inc(ep)
		}
		if len(c.slots) != slots {
			if len(c.slots) != 2*slots {
				t.Fatalf("table went from %d to %d slots", slots, len(c.slots))
			}
			slots = len(c.slots)
			audit(rng)
		}
	}
	audit(rng)
}

// randomEndpoint draws an endpoint with a label from a small alphabet, as a
// grammar's are.
func randomEndpoint(rng *rand.Rand) storage.Endpoint {
	return storage.Endpoint{Src: rng.Uint32(), Dst: rng.Uint32(), Label: grammar.Label(rng.Intn(8))}
}

// TestEndpointCountZeroAlloc is the `make alloc-budget` gate on insert's
// variant cap: on a warm table, finding an endpoint's count and raising it
// allocates nothing.
func TestEndpointCountZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	var c endpointCounts
	rng := rand.New(rand.NewSource(1))
	eps := make([]storage.Endpoint, 1000)
	for k := range eps {
		eps[k] = randomEndpoint(rng)
		*c.at(eps[k])++
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, ep := range eps {
			*c.at(ep)++
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm probe and increment allocates %.1f times per %d, want 0", allocs, len(eps))
	}
}
