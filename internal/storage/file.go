// Partition file format v3: a partition file is a durable log (journal.go).
// Its header carries magic "GPLP", version 3, and the partition's vertex
// interval where a journal keeps its tag. Each frame's payload is one block
// of edges:
//
//	count    uvarint  records in the block
//	records           count v2 records, back to back (storage.go)
//
// A file grows only by appends (AppendPart), each fsynced once. Only a file
// that holds no prefix of what is to be written — a new one — is written
// whole (WritePart), crash-safely through writeAtomic. Reads follow the log's
// one damage rule: a torn final frame is dropped, any other damage is
// ErrCorrupt. A reader therefore returns the edges of a prefix of the
// appends, never a wrong edge; whether it is all of them only the caller
// knows. The engine checks every read's edge count against its partition
// table or its journal, and that count is what commits an append.
//
// A file that exists but does not start with a valid v3 header — a v2 file,
// wrong magic, fewer than 18 bytes — is ErrCorrupt to every reader and to
// AppendPart; only a missing file reads as empty.
package storage

import (
	"encoding/binary"
	"errors"
	"io"
	"os"

	"github.com/grapple-system/grapple/internal/faultpoint"
)

// FormatVersion is the current partition file format.
const FormatVersion = 3

// targetBlockSize bounds the records of a block. One CRC is computed (and
// verified) per frame, so blocks localize damage without per-record overhead.
const targetBlockSize = 256 << 10

var partFormat = logFormat{[4]byte{'G', 'P', 'L', 'P'}, FormatVersion}

// PartInfo is the partition metadata a header records.
type PartInfo struct {
	// Lo, Hi is the partition's vertex interval [Lo, Hi).
	Lo, Hi uint32
}

// putFrames encodes the edges of blocks, in order, as frames of about
// targetBlockSize bytes of records each and hands each frame to put, which
// may not keep it. A frame may span blocks: where frames are cut depends on
// the edges alone, never on how blocks split them. Returns the bytes framed.
func putFrames(blocks [][]Edge, put func(frame []byte) error) (int64, error) {
	const reserve = 4 + binary.MaxVarintLen64 // the frame length and the count
	var zero [reserve]byte
	buf := append([]byte(nil), zero[:]...)
	var n int64
	count := 0
	seal := func() error {
		start := reserve - 4 - uvarintLen(uint64(count))
		binary.PutUvarint(buf[start+4:], uint64(count))
		buf = sealFrame(buf, start)
		if err := put(buf[start:]); err != nil {
			return err
		}
		n += int64(len(buf) - start)
		buf, count = append(buf[:0], zero[:]...), 0
		return nil
	}
	for _, blk := range blocks {
		for i := range blk {
			buf = appendRecordV2(buf, &blk[i])
			if count++; len(buf) >= reserve+targetBlockSize {
				if err := seal(); err != nil {
					return n, err
				}
			}
		}
	}
	if count > 0 {
		if err := seal(); err != nil {
			return n, err
		}
	}
	return n, nil
}

// WritePart atomically replaces path (see writeAtomic) with a partition file
// holding edges, recording info in the header. Returns the bytes written.
func WritePart(path string, edges []Edge, info PartInfo) (int64, error) {
	return WriteBlocks(path, [][]Edge{edges}, info)
}

// WriteBlocks is WritePart over the edges of blocks, in order: the file is
// the one WritePart writes for them as one slice.
func WriteBlocks(path string, blocks [][]Edge, info PartInfo) (int64, error) {
	var n int64
	err := writeAtomic(path, func(w io.Writer) error {
		if _, err := w.Write(partFormat.header(uint64(info.Lo) | uint64(info.Hi)<<32)); err != nil {
			return err
		}
		var err error
		n, err = putFrames(blocks, func(frame []byte) error {
			_, err := w.Write(frame)
			return err
		})
		return err
	})
	if err != nil {
		return 0, err
	}
	return journalHeaderSize + n, nil
}

// AppendPart appends the edges of blocks, in order, to the partition file at
// path as frames — the frames one slice of them would make — and fsyncs
// once, or creates the file with WriteBlocks, recording info, where there is
// none. An existing file's header is verified first, and a file that fails
// it is left untouched. A crash mid-append leaves a torn final frame, which
// readers drop; the fault point faultpoint.PartAppendMid tears one. Returns
// the bytes written.
func AppendPart(path string, blocks [][]Edge, info PartInfo, faults *faultpoint.Set) (int64, error) {
	if !hasEdges(blocks) {
		return 0, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if os.IsNotExist(err) {
		return WriteBlocks(path, blocks, info)
	}
	if err != nil {
		return 0, err
	}
	n, err := appendFrames(f, path, blocks, faults)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	return n, nil
}

// hasEdges reports whether any of blocks holds an edge.
func hasEdges(blocks [][]Edge) bool {
	for _, blk := range blocks {
		if len(blk) > 0 {
			return true
		}
	}
	return false
}

// appendFrames is AppendPart on the open file f: verify the header, write
// the frames, fsync.
func appendFrames(f *os.File, path string, blocks [][]Edge, faults *faultpoint.Set) (int64, error) {
	head := make([]byte, journalHeaderSize)
	n, err := f.ReadAt(head, 0)
	if err != nil && err != io.EOF {
		return 0, err
	}
	if _, err := partFormat.parse(path, head[:n]); err != nil {
		return 0, err
	}
	written, err := putFrames(blocks, func(frame []byte) error {
		return writeFrame(f, frame, faults, faultpoint.PartAppendMid)
	})
	if err != nil {
		return 0, err
	}
	return written, f.Sync()
}

// blockDecoder appends the count records of one CRC-verified block to dst.
// blockCursor.decodeBlock is the only one outside tests, which plug the
// stream-decoder oracle into the same scan.
type blockDecoder func(records []byte, count uint32, dst []Edge) ([]Edge, error)

// scanPart is the one path from a partition file's bytes to edges: scanLog
// under the partition header, each frame's block decoded onto *edges, and
// then, when frame is not nil, frame called with the offset where the frame
// ends. It returns the header's PartInfo and the valid length (scanLog's).
func scanPart(path string, decode blockDecoder, edges *[]Edge, frame func(end int64) error) (PartInfo, int64, error) {
	field, valid, err := scanLog(path, partFormat, func(payload []byte, end int64) error {
		count, c := binary.Uvarint(payload)
		if c <= 0 || count > uint64(len(payload)) {
			return corruptf(path, "bad record count in the frame ending at byte %d", end)
		}
		grown, err := decode(payload[c:], uint32(count), *edges)
		if err != nil {
			// The CRC matched garbage, or the writer was broken.
			return corruptf(path, "frame ending at byte %d: %v", end, err)
		}
		*edges = grown
		if frame == nil {
			return nil
		}
		return frame(end)
	})
	return PartInfo{Lo: uint32(field), Hi: uint32(field >> 32)}, valid, err
}

// ReadPart loads the edges of path's valid frames, appending them to dst. A
// missing file reads as empty (a partition no edge was ever written to), a
// torn final frame is dropped, and any other damage wraps ErrCorrupt.
// Returns the header's PartInfo and the bytes read.
func ReadPart(path string, dst []Edge) ([]Edge, PartInfo, int64, error) {
	var cur blockCursor // arena persists across blocks: one element chunk serves many records
	return readPart(path, dst, cur.decodeBlock)
}

func readPart(path string, dst []Edge, decode blockDecoder) ([]Edge, PartInfo, int64, error) {
	info, n, err := scanPart(path, decode, &dst, nil)
	if errors.Is(err, os.ErrNotExist) {
		return dst, PartInfo{}, 0, nil
	}
	if err != nil {
		return nil, info, n, err
	}
	return dst, info, n, nil
}

// VisitPart calls visit on every edge ReadPart would return, in file order,
// until visit returns false, holding one block of the file in memory at a
// time instead of the whole partition. The edge and its encoding are only
// valid during the call: the next block is decoded over them. Damage behind
// edges already visited is still reported, so a caller must discard what it
// gathered when VisitPart returns an error. Returns the bytes read.
func VisitPart(path string, visit func(*Edge) bool) (int64, error) {
	var cur blockCursor
	var block []Edge
	_, n, err := scanPart(path, cur.decodeBlock, &block, func(int64) error {
		for i := range block {
			if !visit(&block[i]) {
				return errStop
			}
		}
		block = block[:0]
		return nil
	})
	if err == errStop || errors.Is(err, os.ErrNotExist) {
		return n, nil
	}
	return n, err
}

// ReadPartPrefix is the resume path's reader: a journal record promises that
// the first n edges of the file at path are the checkpointed content. It
// returns them, the header's PartInfo, and end, the length of the frames that
// hold exactly them. Truncating the file to end, as OpenJournal truncates a
// journal, drops what was appended after the checkpoint, a torn append among
// it. The file is read whole under the one damage rule, so its answer is
// ReadPart's; fewer than n edges, or an n that falls inside a frame, is
// ErrCorrupt. A missing file backs only n = 0, with end 0.
func ReadPartPrefix(path string, n int64) (edges []Edge, info PartInfo, end int64, err error) {
	var cur blockCursor
	end, held := int64(journalHeaderSize), int64(0)
	info, _, err = scanPart(path, cur.decodeBlock, &edges, func(e int64) error {
		if int64(len(edges)) <= n {
			end, held = e, int64(len(edges))
		}
		return nil
	})
	switch {
	case errors.Is(err, os.ErrNotExist) && n == 0:
		return nil, PartInfo{}, 0, nil
	case err != nil:
		return nil, info, 0, err
	case held != n:
		return nil, info, 0, corruptf(path, "journal promises %d edges, but no frame ends there (the file holds %d)", n, len(edges))
	}
	return edges[:n], info, end, nil
}
