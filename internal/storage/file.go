// Partition file format v2.
//
// A v2 partition file is
//
//	Header  Block*  Trailer
//
// Header (24 bytes):
//
//	magic   [4]byte  "GPLP"
//	version uint16   2
//	hsize   uint16   24
//	lo      uint32   vertex interval low  (0 when unknown)
//	hi      uint32   vertex interval high (0 when unknown)
//	reserved uint32  0
//	crc     uint32   IEEE CRC32 of the 20 bytes above
//
// Block (12-byte header + payload):
//
//	plen    uint32   payload length in bytes
//	count   uint32   record count in the payload
//	crc     uint32   IEEE CRC32 of the payload
//	payload          count v2 records, back to back
//
// Trailer (20 bytes):
//
//	magic   [4]byte  "GPLT"
//	edges   uint64   total record count
//	blocks  uint32   block count
//	crc     uint32   IEEE CRC32 of the 16 bytes above
//
// The trailer doubles as a commit record for appends: a reader requires a
// valid trailer whose edge and block counts match what it decoded, so a
// torn append (or any truncation) is detected instead of misparsed. Whole-
// file writes are additionally crash-safe: write temp → fsync file → rename
// → fsync directory, so a crash never leaves a half-written file under the
// partition's name.
//
// This is the only format. A file that exists but does not start with a
// valid header — wrong magic, wrong version, fewer than 24 bytes, zero bytes
// — is ErrCorrupt to every reader and to AppendPart; only a missing file
// reads as empty.
package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// FormatVersion is the current partition file format.
const FormatVersion = 2

const (
	headerSize      = 24
	trailerSize     = 20
	blockHeaderSize = 12
	// targetBlockSize bounds a block's payload; one CRC is computed (and
	// verified) per block, so blocks localize corruption without per-record
	// overhead.
	targetBlockSize = 256 << 10
	// maxBlockPayload rejects absurd block lengths before allocation. Records
	// are well under 1 KiB, so a block never legitimately exceeds the target
	// by more than one record.
	maxBlockPayload = targetBlockSize + (1 << 20)
)

var (
	fileMagic    = [4]byte{'G', 'P', 'L', 'P'}
	trailerMagic = [4]byte{'G', 'P', 'L', 'T'}
)

// ErrCorrupt tags every integrity failure ReadPart, VisitPart, ReadPartPrefix
// and AppendPart can detect (bad magic/version, checksum mismatch, truncation,
// torn append). Errors wrap it, so errors.Is(err, ErrCorrupt) distinguishes
// corruption from plain I/O failures.
var ErrCorrupt = errors.New("corrupt partition file")

func corruptf(path, format string, args ...any) error {
	return fmt.Errorf("storage: %s: %w: %s", path, ErrCorrupt, fmt.Sprintf(format, args...))
}

// PartInfo is the partition metadata a v2 header records.
type PartInfo struct {
	// Lo, Hi is the partition's vertex interval [Lo, Hi); both zero when the
	// writer did not know it (a file created by AppendPart).
	Lo, Hi uint32
}

func encodeHeader(info PartInfo) []byte {
	buf := make([]byte, headerSize)
	copy(buf, fileMagic[:])
	binary.LittleEndian.PutUint16(buf[4:], FormatVersion)
	binary.LittleEndian.PutUint16(buf[6:], headerSize)
	binary.LittleEndian.PutUint32(buf[8:], info.Lo)
	binary.LittleEndian.PutUint32(buf[12:], info.Hi)
	binary.LittleEndian.PutUint32(buf[16:], 0)
	binary.LittleEndian.PutUint32(buf[20:], crc32.ChecksumIEEE(buf[:20]))
	return buf
}

func decodeHeader(path string, buf []byte) (PartInfo, error) {
	if len(buf) < headerSize {
		return PartInfo{}, corruptf(path, "short header: %d bytes", len(buf))
	}
	if !bytes.Equal(buf[:4], fileMagic[:]) {
		return PartInfo{}, corruptf(path, "bad magic %q", buf[:4])
	}
	if got := crc32.ChecksumIEEE(buf[:20]); got != binary.LittleEndian.Uint32(buf[20:]) {
		return PartInfo{}, corruptf(path, "header checksum mismatch")
	}
	if v := binary.LittleEndian.Uint16(buf[4:]); v != FormatVersion {
		return PartInfo{}, corruptf(path, "unsupported format version %d (want %d)", v, FormatVersion)
	}
	if hs := binary.LittleEndian.Uint16(buf[6:]); hs != headerSize {
		return PartInfo{}, corruptf(path, "unexpected header size %d", hs)
	}
	return PartInfo{
		Lo: binary.LittleEndian.Uint32(buf[8:]),
		Hi: binary.LittleEndian.Uint32(buf[12:]),
	}, nil
}

func encodeTrailer(edges uint64, blocks uint32) []byte {
	buf := make([]byte, trailerSize)
	copy(buf, trailerMagic[:])
	binary.LittleEndian.PutUint64(buf[4:], edges)
	binary.LittleEndian.PutUint32(buf[12:], blocks)
	binary.LittleEndian.PutUint32(buf[16:], crc32.ChecksumIEEE(buf[:16]))
	return buf
}

func decodeTrailer(path string, buf []byte) (edges uint64, blocks uint32, err error) {
	if len(buf) < trailerSize {
		return 0, 0, corruptf(path, "short trailer: %d bytes (torn write?)", len(buf))
	}
	if !bytes.Equal(buf[:4], trailerMagic[:]) {
		return 0, 0, corruptf(path, "bad trailer magic %q", buf[:4])
	}
	if got := crc32.ChecksumIEEE(buf[:16]); got != binary.LittleEndian.Uint32(buf[16:]) {
		return 0, 0, corruptf(path, "trailer checksum mismatch")
	}
	return binary.LittleEndian.Uint64(buf[4:]), binary.LittleEndian.Uint32(buf[12:]), nil
}

// blockWriter batches v2 records into CRC-protected blocks.
type blockWriter struct {
	w       *bufio.Writer
	buf     []byte
	count   uint32
	edges   uint64
	blocks  uint32
	written int64
}

func (bw *blockWriter) add(e *Edge) error {
	bw.buf = appendRecordV2(bw.buf, e)
	bw.count++
	bw.edges++
	if len(bw.buf) >= targetBlockSize {
		return bw.flush()
	}
	return nil
}

func (bw *blockWriter) flush() error {
	if bw.count == 0 {
		return nil
	}
	var head [blockHeaderSize]byte
	binary.LittleEndian.PutUint32(head[0:], uint32(len(bw.buf)))
	binary.LittleEndian.PutUint32(head[4:], bw.count)
	binary.LittleEndian.PutUint32(head[8:], crc32.ChecksumIEEE(bw.buf))
	if _, err := bw.w.Write(head[:]); err != nil {
		return err
	}
	if _, err := bw.w.Write(bw.buf); err != nil {
		return err
	}
	bw.written += int64(blockHeaderSize + len(bw.buf))
	bw.buf = bw.buf[:0]
	bw.count = 0
	bw.blocks++
	return nil
}

// commit writes edges as blocks, then the trailer that commits them on top
// of the oldEdges records in oldBlocks blocks the file already holds, and
// flushes the buffer.
func (bw *blockWriter) commit(edges []Edge, oldEdges uint64, oldBlocks uint32) error {
	for i := range edges {
		if err := bw.add(&edges[i]); err != nil {
			return err
		}
	}
	if err := bw.flush(); err != nil {
		return err
	}
	if _, err := bw.w.Write(encodeTrailer(oldEdges+bw.edges, oldBlocks+bw.blocks)); err != nil {
		return err
	}
	return bw.w.Flush()
}

// syncDir fsyncs the directory containing path so a just-renamed (or
// just-created) file survives a crash. Filesystems that cannot sync
// directories are tolerated.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	// Ignore Sync errors: directory fsync is unsupported on some platforms
	// and filesystems (it fails with EINVAL/EBADF there), and the data file
	// itself is already durable.
	_ = d.Sync()
	return d.Close()
}

// writeAtomic replaces path with what body writes, crash-safely: write temp
// → fsync file → rename → fsync directory. A crash leaves either the old
// file or the complete new one — never a torn file under the real name — and
// a failure at any step removes the temp file. Partition files, the journal
// header and status.json all land through here.
func writeAtomic(path string, body func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := body(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(path)
}

// WriteFileAtomic atomically replaces path with data (see writeAtomic). It
// backs the progress layer's status.json rewrite, where an external poller
// may read the file at any instant.
func WriteFileAtomic(path string, data []byte) error {
	return writeAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// WritePart atomically replaces path (see writeAtomic) with a v2 partition
// file holding edges, recording info in the header. Returns the bytes
// written.
func WritePart(path string, edges []Edge, info PartInfo) (int64, error) {
	var bw blockWriter
	err := writeAtomic(path, func(w io.Writer) error {
		bw.w = bufio.NewWriterSize(w, 1<<20)
		if _, err := bw.w.Write(encodeHeader(info)); err != nil {
			return err
		}
		return bw.commit(edges, 0, 0)
	})
	if err != nil {
		return 0, err
	}
	return headerSize + bw.written + trailerSize, nil
}

// blockDecoder appends the count records of one CRC-verified block payload
// to dst. blockCursor.decodeBlock is the only one outside tests, which plug
// the stream-decoder oracle into the same scan.
type blockDecoder func(payload []byte, count uint32, dst []Edge) ([]Edge, error)

// partScan is what one pass over a partition file found.
type partScan struct {
	info PartInfo
	// edges is the caller's dst plus the records of every block accepted.
	edges []Edge
	// bytes covers the header, the accepted blocks and, after a clean end,
	// the trailer.
	bytes int64
	// end is nil when the accepted blocks were followed by a trailer
	// committing exactly them and then EOF. Otherwise it says where and why
	// the scan stopped, and wraps ErrCorrupt.
	end error
}

// scanPart is the one path from a partition file's bytes to edges: verify
// the header, then walk the blocks. A file that cannot be opened, or whose
// header is not a valid v2 header, is an error (the latter wraps ErrCorrupt);
// damage after the header is reported in partScan.end, for the caller to
// reject (ReadPart) or tolerate (ReadPartPrefix).
func scanPart(path string, dst []Edge, decode blockDecoder) (partScan, error) {
	f, err := os.Open(path)
	if err != nil {
		return partScan{}, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	head := make([]byte, headerSize)
	if _, err := io.ReadFull(r, head); err != nil {
		return partScan{}, corruptf(path, "short header: %v", err)
	}
	info, err := decodeHeader(path, head)
	if err != nil {
		return partScan{}, err
	}
	s := partScan{info: info, edges: dst, bytes: headerSize}
	s.end = s.scanBlocks(path, r, decode)
	return s, nil
}

// scanBlocks is the block loop: tag → trailer or block header → length check
// → payload → CRC → decode. Only whole verified blocks are accepted into s;
// the result is partScan.end.
func (s *partScan) scanBlocks(path string, r *bufio.Reader, decode blockDecoder) error {
	var gotEdges uint64
	var gotBlocks uint32
	var payload []byte
	for {
		var tag [4]byte
		if _, err := io.ReadFull(r, tag[:]); err != nil {
			return corruptf(path, "missing trailer (torn write?): %v", err)
		}
		if bytes.Equal(tag[:], trailerMagic[:]) {
			rest := make([]byte, trailerSize)
			copy(rest, tag[:])
			if _, err := io.ReadFull(r, rest[4:]); err != nil {
				return corruptf(path, "short trailer: %v", err)
			}
			wantEdges, wantBlocks, err := decodeTrailer(path, rest)
			if err != nil {
				return err
			}
			if wantEdges != gotEdges || wantBlocks != gotBlocks {
				return corruptf(path, "trailer promises %d edges in %d blocks, decoded %d in %d",
					wantEdges, wantBlocks, gotEdges, gotBlocks)
			}
			if _, err := r.ReadByte(); err != io.EOF {
				return corruptf(path, "trailing garbage after trailer")
			}
			s.bytes += trailerSize
			return nil
		}
		// Not the trailer: tag is a block header's payload length.
		plen := binary.LittleEndian.Uint32(tag[:])
		if plen == 0 || plen > maxBlockPayload {
			return corruptf(path, "implausible block length %d", plen)
		}
		var rest [blockHeaderSize - 4]byte
		if _, err := io.ReadFull(r, rest[:]); err != nil {
			return corruptf(path, "truncated block header: %v", err)
		}
		count := binary.LittleEndian.Uint32(rest[0:])
		wantCRC := binary.LittleEndian.Uint32(rest[4:])
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(r, payload); err != nil {
			return corruptf(path, "truncated block payload: %v", err)
		}
		if got := crc32.ChecksumIEEE(payload); got != wantCRC {
			return corruptf(path, "block %d checksum mismatch (want %#x, got %#x)", gotBlocks, wantCRC, got)
		}
		grown, err := decode(payload, count, s.edges)
		if err != nil {
			// The CRC matched garbage, or the writer was broken: the whole
			// block is dropped.
			return corruptf(path, "block %d: %v", gotBlocks, err)
		}
		s.edges = grown
		s.bytes += int64(blockHeaderSize) + int64(plen)
		gotEdges += uint64(count)
		gotBlocks++
	}
}

// ReadPart loads all edges from path, appending to dst. A missing file reads
// as empty (a partition no edge was ever written to). Anything else is fully
// verified — header and block checksums, and a trailer whose counts match
// what was decoded — and any failure wraps ErrCorrupt. Returns the header's
// PartInfo and the bytes read.
func ReadPart(path string, dst []Edge) ([]Edge, PartInfo, int64, error) {
	var cur blockCursor // arena persists across blocks: one element chunk serves many records
	return readPart(path, dst, cur.decodeBlock)
}

func readPart(path string, dst []Edge, decode blockDecoder) ([]Edge, PartInfo, int64, error) {
	s, err := scanPart(path, dst, decode)
	if errors.Is(err, os.ErrNotExist) {
		return dst, PartInfo{}, 0, nil
	}
	if err == nil {
		err = s.end
	}
	if err != nil {
		return nil, s.info, s.bytes, err
	}
	return s.edges, s.info, s.bytes, nil
}

// VisitPart calls visit on every edge of path in file order, until visit
// returns false, holding one block of the file in memory at a time instead of
// the whole partition. The edge and its encoding are only valid during the
// call: the next block is decoded over them. Verification is ReadPart's — a
// missing file visits nothing, any damage wraps ErrCorrupt — but block by
// block: damage behind edges already visited is still reported, so a caller
// must discard what it gathered when VisitPart returns an error. Returns the
// bytes read, like ReadPart.
func VisitPart(path string, visit func(*Edge) bool) (int64, error) {
	var cur blockCursor
	var block []Edge
	stopped := false
	s, err := scanPart(path, nil, func(payload []byte, count uint32, dst []Edge) ([]Edge, error) {
		var err error
		if block, err = cur.decodeBlock(payload, count, block[:0]); err != nil {
			return dst, err
		}
		for i := range block {
			if !visit(&block[i]) {
				stopped = true
				return dst, errors.New("visit stopped") // ends the scan; not reported
			}
		}
		return dst, nil
	})
	switch {
	case stopped || errors.Is(err, os.ErrNotExist):
		return s.bytes, nil
	case err != nil:
		return s.bytes, err
	}
	return s.bytes, s.end
}

// ReadPartPrefix reads the first n edges of a partition file, tolerating
// damage after that prefix. It is the resume path's reader: a journal record
// promises that the file's first n edges are exactly the checkpointed
// content (between checkpoints the engine only append-extends files or
// rewrites them prefix-preservingly), so anything beyond them — a torn
// append, a post-checkpoint suffix, a missing trailer — is irrelevant and
// must not fail the read.
//
// The header must be intact (it is written once, crash-safely) and only
// whole CRC-verified blocks count; decoding stops at the first invalid
// block. If fewer than n edges are recoverable the file cannot back the
// journal record and the error wraps ErrCorrupt. exact reports that the file
// is a fully valid v2 file containing precisely n edges — when false the
// caller should rewrite the file canonically before trusting appends to it.
func ReadPartPrefix(path string, n int64) (edges []Edge, info PartInfo, exact bool, err error) {
	var cur blockCursor
	s, err := scanPart(path, nil, cur.decodeBlock)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) && n == 0 {
			return nil, PartInfo{}, true, nil
		}
		return nil, PartInfo{}, false, err
	}
	// Even once the prefix is satisfied the scan ran to the end: whether the
	// remainder is a clean trailer decides exactness.
	got := int64(len(s.edges))
	if got < n {
		return nil, s.info, false, corruptf(path, "journal promises %d edges, only %d recoverable", n, got)
	}
	return s.edges[:n], s.info, s.end == nil && got == n, nil
}

// AppendPart appends edges to a partition file, creating one (with no
// recorded vertex interval) when none exists. The header and the existing
// trailer are verified, the trailer is overwritten by the new blocks, and a
// new trailer committing the grown counts is written and fsynced; a crash
// mid-append leaves the file without a valid trailer, which the next
// ReadPart rejects (the partial append is never silently half-visible).
// Returns the bytes written.
func AppendPart(path string, edges []Edge) (int64, error) {
	if len(edges) == 0 {
		return 0, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		return WritePart(path, edges, PartInfo{})
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	head := make([]byte, headerSize)
	n, err := f.ReadAt(head, 0)
	if err != nil && err != io.EOF {
		return 0, err
	}
	if _, err := decodeHeader(path, head[:n]); err != nil {
		return 0, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, err
	}
	if size < headerSize+trailerSize {
		return 0, corruptf(path, "file too short for header+trailer: %d bytes", size)
	}
	tr := make([]byte, trailerSize)
	if _, err := f.ReadAt(tr, size-trailerSize); err != nil {
		return 0, err
	}
	oldEdges, oldBlocks, err := decodeTrailer(path, tr)
	if err != nil {
		return 0, err
	}
	if _, err := f.Seek(size-trailerSize, io.SeekStart); err != nil {
		return 0, err
	}
	bw := &blockWriter{w: bufio.NewWriterSize(f, 1<<20)}
	if err := bw.commit(edges, oldEdges, oldBlocks); err != nil {
		return 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return bw.written + trailerSize, nil
}
