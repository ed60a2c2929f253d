package lang

// Slab hands out pointers to T from chunks it allocates itself, so that
// building a tree of many small nodes costs one allocation per chunk rather
// than one per node. A full chunk is replaced, never grown, so every pointer
// handed out stays valid; chunks start small and double up to slabMaxChunk,
// so a small tree does not pay for a large one.
//
// A slab belongs to one build — one Parse, one ir.Lower, one cfet.Build —
// and dies with what it built: it is never pooled or shared across builds,
// and a chunk lives as long as any node cut from it. The zero value is ready
// to use. Not safe for concurrent use.
type Slab[T any] struct {
	chunk []T
}

const (
	slabMinChunk = 16
	slabMaxChunk = 512
)

// New returns a pointer to a copy of v.
func (s *Slab[T]) New(v T) *T {
	if len(s.chunk) == cap(s.chunk) {
		s.chunk = make([]T, 0, min(max(2*cap(s.chunk), slabMinChunk), slabMaxChunk))
	}
	s.chunk = append(s.chunk, v)
	return &s.chunk[len(s.chunk)-1]
}

// ListSlab hands out exact-length lists of T cut from shared chunks, for the
// element lists of a tree (a block's statements, a call's arguments) whose
// length is known only once the list is complete: a builder collects the
// elements on a scratch stack (Push, Mark) and Cut copies them into the
// slab. A list is capped at its length, so an append through it copies out
// instead of clobbering its neighbor. Ownership is Slab's.
type ListSlab[T any] struct {
	chunk   []T
	scratch []T
}

// Mark returns the scratch position a list under construction starts at.
// Lists nest: an inner list is marked, pushed and cut while an outer one
// is pending below it on the scratch stack.
func (s *ListSlab[T]) Mark() int { return len(s.scratch) }

// Push appends v to the list under construction.
func (s *ListSlab[T]) Push(v T) { s.scratch = append(s.scratch, v) }

// Cut returns the elements pushed since mark as one list (nil when there
// are none) and pops them off the scratch stack.
func (s *ListSlab[T]) Cut(mark int) []T {
	list := s.Alloc(len(s.scratch) - mark)
	copy(list, s.scratch[mark:])
	clear(s.scratch[mark:])
	s.scratch = s.scratch[:mark]
	return list
}

// Alloc returns a list of n zero elements (nil when n is 0), for a list
// whose length is known before its elements are.
func (s *ListSlab[T]) Alloc(n int) []T {
	if n == 0 {
		return nil
	}
	if n > cap(s.chunk)-len(s.chunk) {
		s.chunk = make([]T, 0, max(n, min(max(2*cap(s.chunk), slabMinChunk), 4*slabMaxChunk)))
	}
	lo := len(s.chunk)
	s.chunk = s.chunk[:lo+n]
	return s.chunk[lo : lo+n : lo+n]
}
