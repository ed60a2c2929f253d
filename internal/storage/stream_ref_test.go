package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/grammar"
)

// The field-by-field stream decoder blockCursor replaced, kept as the
// reference: FuzzDecodeRecordV2 and TestDecodeCursorEquivalence hold the
// cursor to it record by record, readPartStream plugs it into the production
// block scan for the whole-file comparisons, and TestDecodeAllocBudget
// measures the cursor's allocations against it.

// recordSrc is what the stream decoder needs; satisfied by bytes.Reader.
type recordSrc interface {
	io.Reader
	io.ByteReader
}

// decodeRecord deserializes one record. Every failure — including EOF before
// the first byte — wraps ErrCorrupt: records only ever live inside length-
// and CRC-delimited blocks whose header states the record count, so the
// decoder running out of input mid-count is corruption, never a clean record
// boundary.
func decodeRecord(r recordSrc, e *Edge) error {
	err := decodeRecordStream(r, e)
	if err != nil && !errors.Is(err, ErrCorrupt) {
		return fmt.Errorf("storage: %w: %v", ErrCorrupt, err)
	}
	return err
}

func decodeRecordStream(r recordSrc, e *Edge) error {
	var head [4]byte
	full := func(buf []byte) error {
		_, err := io.ReadFull(r, buf)
		return err
	}
	if err := full(head[:4]); err != nil {
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
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("storage: truncated enc len: %w", err)
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

// streamDecodeBlock is the stream decoder as a blockDecoder: count records,
// then no slack.
func streamDecodeBlock(payload []byte, count uint32, dst []Edge) ([]Edge, error) {
	base := len(dst)
	br := bytes.NewReader(payload)
	for i := uint32(0); i < count; i++ {
		var e Edge
		if err := decodeRecord(br, &e); err != nil {
			return dst[:base], fmt.Errorf("record %d: %w", i, err)
		}
		dst = append(dst, e)
	}
	if br.Len() != 0 {
		return dst[:base], fmt.Errorf("storage: %w: %d bytes of slack after %d records", ErrCorrupt, br.Len(), count)
	}
	return dst, nil
}

// readPartStream is ReadPart with the stream decoder under the same block
// scan.
func readPartStream(path string, dst []Edge) ([]Edge, PartInfo, int64, error) {
	return readPart(path, dst, streamDecodeBlock)
}
