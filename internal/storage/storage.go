// Package storage implements Grapple's on-disk partition format (paper
// §4.3). A partition holds every edge whose source vertex falls in the
// partition's vertex interval. Edge records have variable size because each
// edge inlines its interval-sequence path encoding — per the paper, the
// record itself carries the length of the sequence rather than pointing at a
// separate object, trading random access (which the engine never needs; its
// accesses are sequential) for locality.
//
// There is one record encoding (v2: the encoding length is a uvarint) and
// one file format (v3, see file.go), in which records live only inside
// CRC-protected frames. blockCursor (cursor.go) is the one decoder.
package storage

import (
	"encoding/binary"
	"math/bits"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/grammar"
)

// Edge is one labeled, constraint-carrying graph edge.
type Edge struct {
	Src, Dst uint32
	Label    grammar.Label
	// Gen is the engine iteration that produced the edge (semi-naive
	// evaluation joins only pairs involving a sufficiently new edge).
	Gen uint32
	// HasRel marks dataflow edges carrying an FSM transition relation.
	HasRel bool
	Rel    fsm.Rel
	// Enc is the interval-sequence path encoding (§3.2).
	Enc cfet.Enc
}

// Endpoint identifies an edge up to its constraint payload; the engine caps
// the number of distinct constraint variants kept per endpoint triple.
type Endpoint struct {
	Src, Dst uint32
	Label    grammar.Label
}

// Endpoint returns the edge's endpoint triple.
func (e *Edge) Endpoint() Endpoint {
	return Endpoint{Src: e.Src, Dst: e.Dst, Label: e.Label}
}

// maxEncElems bounds a decoded encoding's element count: a defense against
// corrupted (or adversarial) length fields allocating unbounded memory. Real
// encodings are bounded by the ICFET's MaxEncLen, orders of magnitude below.
const maxEncElems = 1 << 20

// appendElems serializes the path-encoding elements.
func appendElems(dst []byte, enc cfet.Enc) []byte {
	var tmp [binary.MaxVarintLen64]byte
	for _, el := range enc {
		dst = append(dst, byte(el.Kind))
		switch el.Kind {
		case cfet.KInterval:
			n := binary.PutUvarint(tmp[:], uint64(el.Method))
			dst = append(dst, tmp[:n]...)
			n = binary.PutUvarint(tmp[:], el.Start)
			dst = append(dst, tmp[:n]...)
			n = binary.PutUvarint(tmp[:], el.End)
			dst = append(dst, tmp[:n]...)
		default:
			n := binary.PutUvarint(tmp[:], uint64(el.Call))
			dst = append(dst, tmp[:n]...)
		}
	}
	return dst
}

// appendHead serializes a record's fixed head.
func appendHead(dst []byte, e *Edge) []byte {
	put32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		dst = append(dst, b[:]...)
	}
	put32(e.Src)
	put32(e.Dst)
	dst = append(dst, byte(e.Label), byte(e.Label>>8))
	put32(e.Gen)
	flags := byte(0)
	if e.HasRel {
		flags |= 1
	}
	dst = append(dst, flags)
	if e.HasRel {
		dst = e.Rel.Pack(dst)
	}
	return dst
}

// appendRecordV2 serializes e in the v2 format (uvarint encoding length; no
// length limit, so it cannot fail).
func appendRecordV2(dst []byte, e *Edge) []byte {
	var tmp [binary.MaxVarintLen64]byte
	dst = appendHead(dst, e)
	n := binary.PutUvarint(tmp[:], uint64(len(e.Enc)))
	dst = append(dst, tmp[:n]...)
	return appendElems(dst, e.Enc)
}

// RecordSize returns the serialized v2 size of e in bytes (the size the
// engine's byte budgets account against), computed without serializing:
// the engine asks once per inserted edge.
func RecordSize(e *Edge) int64 {
	n := 15 + uvarintLen(uint64(len(e.Enc))) // src, dst, label, gen, flags
	if e.HasRel {
		n += fsm.PackedRelSize
	}
	for i := range e.Enc {
		el := &e.Enc[i]
		n++ // kind
		if el.Kind == cfet.KInterval {
			n += uvarintLen(uint64(el.Method)) + uvarintLen(el.Start) + uvarintLen(el.End)
		} else {
			n += uvarintLen(uint64(el.Call))
		}
	}
	return int64(n)
}

// uvarintLen is the number of bytes binary.PutUvarint writes for v.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}
