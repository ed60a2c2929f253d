package engine

import (
	"math/bits"

	"github.com/grapple-system/grapple/internal/storage"
)

// endpointCounts is the per-endpoint variant counter: how many edges the
// engine holds per (src, dst, label) triple, which is what the variant cap in
// insert reads. Like keySet it is an open-addressed table with linear probing,
// kept at most half full and grown by doubling, whose slots hold no pointers;
// at returns the count an endpoint has, or claims a slot for one that has
// none, in one walk where a Go map cost a lookup and an assign. A slot whose
// count is 0 is empty: no endpoint with a count ever probes past one (it
// would have claimed it), so an endpoint claimed and never counted reads as
// absent, and a later claim takes its slot over.
//
// Written on the run goroutine only (preprocess, resume, insert), never read
// by join workers.
type endpointCounts struct {
	slots []epSlot // length 0 or a power of two
	n     int      // slots claimed since the last growth: at least the counted endpoints
}

// epSlot is one table entry, 16 bytes.
type epSlot struct {
	ep    storage.Endpoint
	count uint32
}

// epCountMinSlots is the table's first size.
const epCountMinSlots = 1 << 10

// epHash mixes an endpoint triple into a table position: one 64×64→128
// multiply, folded.
func epHash(ep storage.Endpoint) uint64 {
	hi, lo := bits.Mul64(uint64(ep.Src)|uint64(ep.Dst)<<32^0x9e3779b97f4a7c15, uint64(ep.Label)^0xbf58476d1ce4e5b9)
	return hi ^ lo
}

// at returns ep's count, claiming a slot (count 0) for an endpoint that has
// none. The pointer is valid until the next call, which may grow the table.
func (t *endpointCounts) at(ep storage.Endpoint) *uint32 {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := epHash(ep) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.count == 0 {
			s.ep = ep
			t.n++
			return &s.count
		}
		if s.ep == ep {
			return &s.count
		}
	}
}

// grow doubles the table and re-seats every counted endpoint; claimed slots
// left at 0 are dropped.
func (t *endpointCounts) grow() {
	old := t.slots
	t.slots = make([]epSlot, max(2*len(old), epCountMinSlots))
	t.n = 0
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.count == 0 {
			continue
		}
		i := epHash(s.ep) & mask
		for t.slots[i].count != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
		t.n++
	}
}
