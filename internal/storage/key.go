package storage

import (
	"math/bits"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/grammar"
)

// The dedupe key is two-level: a payload hash over everything an edge
// carries besides its endpoint triple (relation presence, relation rows,
// path encoding), and KeyOf, which folds the triple in. The engine's join
// produces one payload per merged path and then needs a key per grammar
// head and per unary/mirror expansion of it; with the split each of those
// costs two multiplies instead of a pass over the payload.
//
// The mixer is the 64x64->128 multiply-fold of wyhash/xxh3 with fixed
// constants, absorbing two 64-bit words per multiply. It is deliberately
// not hash/maphash: a per-process seed would make a collision — which
// silently drops a distinct edge — impossible to reproduce. Keys are never
// persisted (resume rebuilds the index from the edges themselves), so the
// function is free to change between versions.
const (
	k0 = 0xa0761d6478bd642f
	k1 = 0xe7037ed1a0b428db
	k2 = 0x8ebc6af09c88c6e3
	k3 = 0x589965cc75374cc3
)

// mix folds the 128-bit product of a and b to 64 bits.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// Relation rows are absorbed four per word and two words per multiply; this
// fails to compile if fsm.MaxStates stops being a multiple of 8.
const _ uint = -(fsm.MaxStates % 8)

func rows4(r *fsm.Rel, i int) uint64 {
	return uint64(r[i]) | uint64(r[i+1])<<16 | uint64(r[i+2])<<32 | uint64(r[i+3])<<48
}

// hashPayload hashes (hasRel, rel, enc). With skeleton set it hashes
// enc.Skeleton() instead of enc, in place: the element count is absorbed
// last, so skipping the interval elements needs no second pass and no
// materialized slice.
func hashPayload(hasRel bool, rel *fsm.Rel, enc cfet.Enc, skeleton bool) (h uint64, n int) {
	h = k0
	if hasRel {
		// A distinct seed keeps "no relation" apart from an all-zero one.
		h = k3
		for i := 0; i < fsm.MaxStates; i += 8 {
			h = mix(rows4(rel, i)^k1, rows4(rel, i+4)^h)
		}
	}
	for i := range enc {
		el := &enc[i]
		if skeleton && el.Kind != cfet.KCall && el.Kind != cfet.KRet {
			continue
		}
		h = mix((uint64(el.Kind)|uint64(uint32(el.Method))<<32)^k1, el.Start^h)
		h = mix(el.End^k2, uint64(uint32(el.Call))^h)
		n++
	}
	return mix(h^k2, uint64(n)^k3), n
}

// PayloadHash hashes the edge's payload: HasRel, Rel (only when HasRel) and
// Enc. Src, Dst, Label and Gen do not enter.
func (e *Edge) PayloadHash() uint64 {
	h, _ := hashPayload(e.HasRel, &e.Rel, e.Enc, false)
	return h
}

// SkeletonPayloadHash is the PayloadHash the edge would have with
// Enc.Skeleton() as its encoding, and that skeleton's length, computed
// without building the skeleton.
func (e *Edge) SkeletonPayloadHash() (h uint64, skeletonLen int) {
	return hashPayload(e.HasRel, &e.Rel, e.Enc, true)
}

// KeyOf folds an endpoint triple into a payload hash, giving the dedupe key
// of the edge with that triple and that payload.
func KeyOf(src, dst uint32, label grammar.Label, payload uint64) uint64 {
	h := mix((uint64(src)|uint64(dst)<<32)^k1, uint64(label)^k2)
	return mix(h^payload, k3)
}

// Key hashes the edge's identity (everything except Gen) for deduplication.
func (e *Edge) Key() uint64 {
	return KeyOf(e.Src, e.Dst, e.Label, e.PayloadHash())
}
