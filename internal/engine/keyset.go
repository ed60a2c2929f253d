package engine

// keySet is the global dedupe index: the set of storage.Edge keys of every
// edge the engine holds. It is an open-addressed table with linear probing,
// addressed by the key's own low bits — storage.KeyOf already mixes all 64 —
// and kept at most half full, so a probe is one cache line almost always and
// a membership test plus an insertion is one walk (add) where a Go map costs a
// lookup and an assign. The table is a pointer-free []uint64 the GC never
// scans. A slot holding 0 is empty; the key 0 itself lives in a flag.
//
// Like the map it replaces it is read and written only on the run goroutine:
// preprocess, resume and insert, which dedupes every join candidate.
type keySet struct {
	slots   []uint64 // length 0 or a power of two
	n       int      // nonzero keys held
	hasZero bool
}

// keySetMinSlots is the table's first size.
const keySetMinSlots = 1 << 10

// has reports whether k is in the set.
func (s *keySet) has(k uint64) bool {
	if k == 0 {
		return s.hasZero
	}
	if len(s.slots) == 0 {
		return false
	}
	mask := uint64(len(s.slots) - 1)
	for i := k & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return true
		case 0:
			return false
		}
	}
}

// add puts k in the set and reports whether it was absent.
func (s *keySet) add(k uint64) bool {
	if k == 0 {
		absent := !s.hasZero
		s.hasZero = true
		return absent
	}
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	for i := k & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return false
		case 0:
			s.slots[i] = k
			s.n++
			return true
		}
	}
}

// grow doubles the table and re-seats every key.
func (s *keySet) grow() {
	old := s.slots
	s.slots = make([]uint64, max(2*len(old), keySetMinSlots))
	mask := uint64(len(s.slots) - 1)
	for _, k := range old {
		if k == 0 {
			continue
		}
		i := k & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = k
	}
}
