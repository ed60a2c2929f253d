// Package storage implements Grapple's on-disk partition format (paper
// §4.3). A partition holds every edge whose source vertex falls in the
// partition's vertex interval. Edge records have variable size because each
// edge inlines its interval-sequence path encoding — per the paper, the
// record itself carries the length of the sequence rather than pointing at a
// separate object, trading random access (which the engine never needs; its
// accesses are sequential) for locality.
//
// Two record encodings exist. Format v2 (the current writer, see file.go)
// stores the encoding length as a uvarint inside CRC-protected blocks;
// legacy v1 records use a single length byte and live in bare record
// streams with no integrity metadata. The v1 codec is kept for transparent
// read-back of pre-v2 partition files.
package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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

// errEncTooLong reports a legacy-format record whose encoding does not fit
// the v1 single-byte length field.
var errEncTooLong = errors.New("storage: encoding exceeds 255 elements (v1 record limit; write format v2 instead)")

// appendElems serializes the path-encoding elements (shared by v1 and v2).
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

// appendCommon serializes the fixed head shared by both record formats.
func appendCommon(dst []byte, e *Edge) []byte {
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

// AppendRecord serializes e onto dst in the legacy v1 format. It returns an
// error — never panics — when the path encoding exceeds the v1 single-byte
// length field; such edges require format v2 (see WritePart).
func AppendRecord(dst []byte, e *Edge) ([]byte, error) {
	if len(e.Enc) > 255 {
		return dst, errEncTooLong
	}
	dst = appendCommon(dst, e)
	dst = append(dst, byte(len(e.Enc)))
	return appendElems(dst, e.Enc), nil
}

// appendRecordV2 serializes e in the v2 format (uvarint encoding length; no
// length limit, so it cannot fail).
func appendRecordV2(dst []byte, e *Edge) []byte {
	var tmp [binary.MaxVarintLen64]byte
	dst = appendCommon(dst, e)
	n := binary.PutUvarint(tmp[:], uint64(len(e.Enc)))
	dst = append(dst, tmp[:n]...)
	return appendElems(dst, e.Enc)
}

// recordSrc is what the record decoder needs; satisfied by bufio.Reader
// (legacy streams) and bytes.Reader (v2 block payloads).
type recordSrc interface {
	io.Reader
	io.ByteReader
}

// decodeRecord deserializes one record. v2 selects the uvarint encoding
// length; otherwise the legacy single length byte is read.
//
// In v2 mode every failure — including EOF before the first byte — wraps
// ErrCorrupt: v2 records only ever live inside length- and CRC-delimited
// blocks whose header states the record count, so the decoder running out
// of input mid-count is corruption, never a clean record boundary. Only v1
// streams, which have no framing, report a boundary as bare io.EOF.
func decodeRecord(r recordSrc, e *Edge, v2 bool) error {
	err := decodeRecordStream(r, e, v2)
	if err != nil && v2 && !errors.Is(err, ErrCorrupt) {
		return fmt.Errorf("storage: %w: %v", ErrCorrupt, err)
	}
	return err
}

func decodeRecordStream(r recordSrc, e *Edge, v2 bool) error {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:1]); err != nil {
		return err // io.EOF at a v1 record boundary (wrapped by decodeRecord for v2)
	}
	full := func(buf []byte) error {
		_, err := io.ReadFull(r, buf)
		return err
	}
	if err := full(head[1:4]); err != nil {
		return fmt.Errorf("storage: truncated src: %w", err)
	}
	e.Src = binary.LittleEndian.Uint32(head[:])
	if err := full(head[:4]); err != nil {
		return fmt.Errorf("storage: truncated dst: %w", err)
	}
	e.Dst = binary.LittleEndian.Uint32(head[:])
	if err := full(head[:2]); err != nil {
		return fmt.Errorf("storage: truncated label: %w", err)
	}
	e.Label = grammar.Label(binary.LittleEndian.Uint16(head[:2]))
	if err := full(head[:4]); err != nil {
		return fmt.Errorf("storage: truncated gen: %w", err)
	}
	e.Gen = binary.LittleEndian.Uint32(head[:])
	flags, err := r.ReadByte()
	if err != nil {
		return fmt.Errorf("storage: truncated flags: %w", err)
	}
	if flags&^byte(1) != 0 {
		return fmt.Errorf("storage: bad record flags %#x", flags)
	}
	e.HasRel = flags&1 != 0
	if e.HasRel {
		var relBuf [fsm.PackedRelSize]byte
		if err := full(relBuf[:]); err != nil {
			return fmt.Errorf("storage: truncated rel: %w", err)
		}
		rel, _, err := fsm.UnpackRel(relBuf[:])
		if err != nil {
			return fmt.Errorf("storage: corrupt rel payload: %w", err)
		}
		e.Rel = rel
	} else {
		e.Rel = fsm.Rel{}
	}
	var n uint64
	if v2 {
		n, err = binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("storage: truncated enc len: %w", err)
		}
	} else {
		b, err := r.ReadByte()
		if err != nil {
			return fmt.Errorf("storage: truncated enc len: %w", err)
		}
		n = uint64(b)
	}
	if n > maxEncElems {
		return fmt.Errorf("storage: encoding length %d exceeds limit %d", n, maxEncElems)
	}
	// Each element costs at least 2 bytes; when the source knows its
	// remaining size, reject impossible lengths before allocating.
	if br, ok := r.(*bytes.Reader); ok && n > uint64(br.Len()) {
		return fmt.Errorf("storage: encoding length %d exceeds remaining payload %d", n, br.Len())
	}
	if uint64(cap(e.Enc)) >= n {
		e.Enc = e.Enc[:n]
	} else {
		e.Enc = make(cfet.Enc, n)
	}
	for i := 0; i < int(n); i++ {
		kind, err := r.ReadByte()
		if err != nil {
			return fmt.Errorf("storage: truncated elem kind: %w", err)
		}
		el := cfet.Elem{Kind: cfet.ElemKind(kind)}
		switch el.Kind {
		case cfet.KInterval:
			m, err := binary.ReadUvarint(r)
			if err != nil {
				return fmt.Errorf("storage: truncated method: %w", err)
			}
			el.Method = cfet.MethodID(m)
			if el.Start, err = binary.ReadUvarint(r); err != nil {
				return fmt.Errorf("storage: truncated start: %w", err)
			}
			if el.End, err = binary.ReadUvarint(r); err != nil {
				return fmt.Errorf("storage: truncated end: %w", err)
			}
		case cfet.KCall, cfet.KRet:
			c, err := binary.ReadUvarint(r)
			if err != nil {
				return fmt.Errorf("storage: truncated call id: %w", err)
			}
			el.Call = int32(c)
		default:
			return fmt.Errorf("storage: bad elem kind %d", kind)
		}
		e.Enc[i] = el
	}
	return nil
}

// ReadRecord deserializes the next legacy v1 edge record. Returns io.EOF
// cleanly at a record boundary.
func ReadRecord(r *bufio.Reader, e *Edge) error {
	return decodeRecord(r, e, false)
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
