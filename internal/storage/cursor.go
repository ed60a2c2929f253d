// Zero-copy v2 record decoding.
//
// A whole block — a frame's records — is already sitting in memory
// CRC-verified, so blockCursor decodes records directly out of that buffer
// with an offset cursor, and backs the decoded path encodings with a chunked
// element arena shared across the records of a read: allocations are
// amortized to ~1/arenaChunkElems per record instead of one (or more) per
// record.
//
// The field-by-field stream decoder it replaced (io.ReadFull calls against a
// bytes.Reader, a fresh encoding slice per record) lives in
// stream_ref_test.go as the oracle the fuzzers and the equivalence and
// allocation-budget tests compare against.
package storage

import (
	"encoding/binary"
	"fmt"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/grammar"
)

// arenaChunkElems sizes the element arena's allocation unit. Large enough
// to amortize one allocation over many records, small enough that a partly
// used final chunk wastes little.
const arenaChunkElems = 4096

// blockCursor decodes v2 records straight from a CRC-verified block
// payload. A cursor may be reused across blocks (and files); the arena
// chunks it hands out stay alive exactly as long as the decoded edges that
// reference them.
type blockCursor struct {
	buf []byte
	off int
	// arena backs the decoded encodings: capped subslices of shared chunks,
	// so a later chunk switch never moves earlier records.
	arena cfet.Arena
}

// reset points the cursor at a new block payload. The arena carries over:
// its live subslices belong to already-returned edges.
func (c *blockCursor) reset(payload []byte) {
	c.buf = payload
	c.off = 0
}

// remaining reports the undecoded byte count of the current payload.
func (c *blockCursor) remaining() int { return len(c.buf) - c.off }

// corrupt tags a decode failure: inside a checksummed block every malformed
// or truncated record is corruption, never a clean boundary.
func (c *blockCursor) corrupt(format string, args ...any) error {
	return fmt.Errorf("storage: %w: %s at payload offset %d", ErrCorrupt, fmt.Sprintf(format, args...), c.off)
}

func (c *blockCursor) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		return 0, c.corrupt("truncated or overlong %s", what)
	}
	c.off += n
	return v, nil
}

// decodeBlock resets the cursor onto a CRC-verified payload and decodes
// count records onto the end of dst, each in place in the slot it will
// occupy (no 80-byte temporary, and no regrowth when the caller presized
// dst). On error — a malformed record, or slack bytes after the last one —
// it returns dst at its original length, which is also still what the
// caller holds.
func (c *blockCursor) decodeBlock(payload []byte, count uint32, dst []Edge) ([]Edge, error) {
	c.reset(payload)
	base := len(dst)
	for i := uint32(0); i < count; i++ {
		dst = append(dst, Edge{})
		if err := c.decodeRecord(&dst[len(dst)-1]); err != nil {
			return dst[:base], fmt.Errorf("record %d: %w", i, err)
		}
	}
	if c.remaining() != 0 {
		return dst[:base], c.corrupt("%d bytes of slack after %d records", c.remaining(), count)
	}
	return dst, nil
}

// decodeRecord deserializes one v2 record at the cursor. Every failure wraps
// ErrCorrupt.
func (c *blockCursor) decodeRecord(e *Edge) error {
	if c.remaining() < 15 { // src + dst + label + gen + flags
		return c.corrupt("truncated record head (%d bytes left)", c.remaining())
	}
	b := c.buf[c.off:]
	e.Src = binary.LittleEndian.Uint32(b)
	e.Dst = binary.LittleEndian.Uint32(b[4:])
	e.Label = grammar.Label(binary.LittleEndian.Uint16(b[8:]))
	e.Gen = binary.LittleEndian.Uint32(b[10:])
	flags := b[14]
	c.off += 15
	if flags&^byte(1) != 0 {
		return c.corrupt("bad record flags %#x", flags)
	}
	e.HasRel = flags&1 != 0
	if e.HasRel {
		if c.remaining() < fsm.PackedRelSize {
			return c.corrupt("truncated rel (%d bytes left)", c.remaining())
		}
		rel, _, err := fsm.UnpackRel(c.buf[c.off : c.off+fsm.PackedRelSize])
		if err != nil {
			return c.corrupt("corrupt rel payload: %v", err)
		}
		e.Rel = rel
		c.off += fsm.PackedRelSize
	} else {
		e.Rel = fsm.Rel{}
	}
	n, err := c.uvarint("enc len")
	if err != nil {
		return err
	}
	if n > maxEncElems {
		return c.corrupt("encoding length %d exceeds limit %d", n, maxEncElems)
	}
	// Each element costs at least 2 bytes; reject impossible lengths before
	// touching the arena.
	if n > uint64(c.remaining()) {
		return c.corrupt("encoding length %d exceeds remaining payload %d", n, c.remaining())
	}
	if n == 0 {
		e.Enc = nil
		return nil
	}
	enc := c.arena.Alloc(int(n), arenaChunkElems)
	for i := range enc {
		if c.remaining() < 1 {
			return c.corrupt("truncated elem kind")
		}
		el := cfet.Elem{Kind: cfet.ElemKind(c.buf[c.off])}
		c.off++
		switch el.Kind {
		case cfet.KInterval:
			m, err := c.uvarint("method")
			if err != nil {
				return err
			}
			el.Method = cfet.MethodID(m)
			if el.Start, err = c.uvarint("start"); err != nil {
				return err
			}
			if el.End, err = c.uvarint("end"); err != nil {
				return err
			}
		case cfet.KCall, cfet.KRet:
			v, err := c.uvarint("call id")
			if err != nil {
				return err
			}
			el.Call = int32(v)
		default:
			return c.corrupt("bad elem kind %d", el.Kind)
		}
		enc[i] = el
	}
	e.Enc = cfet.Enc(enc)
	return nil
}
