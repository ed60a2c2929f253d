// Run journal: durable superstep checkpoints for the engine.
//
// A journal file is
//
//	Header  Record*
//
// Header (24 bytes):
//
//	magic    [4]byte  "GPLJ"
//	version  uint16   1
//	hsize    uint16   24
//	vertices uint32   engine vertex-space size
//	tag      uint64   caller-chosen run identity (rejects stale journals)
//	crc      uint32   IEEE CRC32 of the 20 bytes above
//
// Record (framed):
//
//	rlen    uint32   payload length in bytes
//	payload          uvarint-encoded JournalRecord
//	crc     uint32   IEEE CRC32 of the payload
//
// Records are append-only and each append is fsynced, so the journal is a
// write-ahead log of completed supersteps. A torn append (crash mid-write)
// leaves a frame whose length, checksum, or payload fails to parse; readers
// stop at the first invalid frame and resume from the previous record — a
// half-written checkpoint is never half-visible. A header that fails to
// parse means the journal itself is unusable: ErrCorrupt. A missing file is
// ErrNoJournal, distinct from corruption so callers can refuse to silently
// start cold.
package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"github.com/grapple-system/grapple/internal/faultpoint"
)

// JournalName is the journal's filename inside an engine directory.
const JournalName = "journal.grj"

// JournalVersion is the current journal format.
const JournalVersion = 1

const (
	journalHeaderSize = 24
	// maxJournalPayload rejects absurd record lengths before allocation.
	// Real records are a few KiB (one entry per partition).
	maxJournalPayload = 16 << 20
)

var journalMagic = [4]byte{'G', 'P', 'L', 'J'}

// ErrNoJournal reports that an engine directory has no journal file. It is
// distinct from ErrCorrupt so resume can tell "never journaled" from
// "journal damaged".
var ErrNoJournal = errors.New("no run journal")

// JournalMeta identifies the run a journal belongs to. Resume rejects a
// journal whose meta does not match the new run's.
type JournalMeta struct {
	// NumVertices is the engine's vertex-space size.
	NumVertices uint32
	// Tag is a caller-chosen fingerprint of the run's inputs (graph shape,
	// property set, options that change edge production). A journal written
	// under a different tag is stale, not resumable.
	Tag uint64
}

// JournalPart records one partition's durable state at a checkpoint.
type JournalPart struct {
	ID     int    // stable partition identity (survives repartitioning)
	Lo, Hi uint32 // vertex interval [Lo, Hi)
	Edges  int64  // edge count at the checkpoint; resume reads exactly this prefix
	MaxGen uint32
	Path   string // file basename inside the engine directory
}

// JournalGen records the last-joined generation for one partition pair.
type JournalGen struct {
	A, B int
	Gen  uint32
}

// JournalRecord is one durable superstep checkpoint.
type JournalRecord struct {
	Seq          uint64 // 0 for the post-preprocess baseline, then 1, 2, ...
	Completed    bool   // true on the final record of a finished run
	Iterations   int64
	CurGen       uint32
	EdgesBefore  int64
	Repartitions int64
	Widened      int64
	// HotA, HotB are the partition IDs of the last-joined pair (-1, -1 when
	// none). The pair scheduler consults them, so they are part of the
	// deterministic resume state.
	HotA, HotB int
	Parts      []JournalPart
	LastGen    []JournalGen
}

func corruptJournal(path, format string, args ...any) error {
	return fmt.Errorf("storage: %s: %w: %s", path, ErrCorrupt, fmt.Sprintf(format, args...))
}

func encodeJournalHeader(meta JournalMeta) []byte {
	buf := make([]byte, journalHeaderSize)
	copy(buf, journalMagic[:])
	binary.LittleEndian.PutUint16(buf[4:], JournalVersion)
	binary.LittleEndian.PutUint16(buf[6:], journalHeaderSize)
	binary.LittleEndian.PutUint32(buf[8:], meta.NumVertices)
	binary.LittleEndian.PutUint64(buf[12:], meta.Tag)
	binary.LittleEndian.PutUint32(buf[20:], crc32.ChecksumIEEE(buf[:20]))
	return buf
}

func decodeJournalHeader(path string, buf []byte) (JournalMeta, error) {
	if len(buf) < journalHeaderSize {
		return JournalMeta{}, corruptJournal(path, "short header: %d bytes", len(buf))
	}
	if !bytes.Equal(buf[:4], journalMagic[:]) {
		return JournalMeta{}, corruptJournal(path, "bad magic %q", buf[:4])
	}
	if got := crc32.ChecksumIEEE(buf[:20]); got != binary.LittleEndian.Uint32(buf[20:]) {
		return JournalMeta{}, corruptJournal(path, "header checksum mismatch")
	}
	if v := binary.LittleEndian.Uint16(buf[4:]); v != JournalVersion {
		return JournalMeta{}, corruptJournal(path, "unsupported journal version %d (want %d)", v, JournalVersion)
	}
	if hs := binary.LittleEndian.Uint16(buf[6:]); hs != journalHeaderSize {
		return JournalMeta{}, corruptJournal(path, "unexpected header size %d", hs)
	}
	return JournalMeta{
		NumVertices: binary.LittleEndian.Uint32(buf[8:]),
		Tag:         binary.LittleEndian.Uint64(buf[12:]),
	}, nil
}

func appendUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

func appendVarint(dst []byte, v int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

func encodeJournalRecord(dst []byte, rec *JournalRecord) []byte {
	dst = appendUvarint(dst, rec.Seq)
	flags := byte(0)
	if rec.Completed {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = appendUvarint(dst, uint64(rec.Iterations))
	dst = appendUvarint(dst, uint64(rec.CurGen))
	dst = appendUvarint(dst, uint64(rec.EdgesBefore))
	dst = appendUvarint(dst, uint64(rec.Repartitions))
	dst = appendUvarint(dst, uint64(rec.Widened))
	dst = appendVarint(dst, int64(rec.HotA))
	dst = appendVarint(dst, int64(rec.HotB))
	dst = appendUvarint(dst, uint64(len(rec.Parts)))
	for _, p := range rec.Parts {
		dst = appendUvarint(dst, uint64(p.ID))
		dst = appendUvarint(dst, uint64(p.Lo))
		dst = appendUvarint(dst, uint64(p.Hi))
		dst = appendUvarint(dst, uint64(p.Edges))
		dst = appendUvarint(dst, uint64(p.MaxGen))
		dst = appendUvarint(dst, uint64(len(p.Path)))
		dst = append(dst, p.Path...)
	}
	dst = appendUvarint(dst, uint64(len(rec.LastGen)))
	for _, g := range rec.LastGen {
		dst = appendUvarint(dst, uint64(g.A))
		dst = appendUvarint(dst, uint64(g.B))
		dst = appendUvarint(dst, uint64(g.Gen))
	}
	return dst
}

// decodeJournalRecord parses one record payload. Any structural problem is
// an error; the caller maps it to "torn tail, stop here".
func decodeJournalRecord(payload []byte) (*JournalRecord, error) {
	r := bytes.NewReader(payload)
	u := func() (uint64, error) { return binary.ReadUvarint(r) }
	var rec JournalRecord
	var err error
	if rec.Seq, err = u(); err != nil {
		return nil, fmt.Errorf("seq: %w", err)
	}
	flags, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("flags: %w", err)
	}
	if flags&^byte(1) != 0 {
		return nil, fmt.Errorf("bad flags %#x", flags)
	}
	rec.Completed = flags&1 != 0
	geti64 := func(name string) (int64, error) {
		v, err := u()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		if v > 1<<62 {
			return 0, fmt.Errorf("%s: implausible value %d", name, v)
		}
		return int64(v), nil
	}
	getu32 := func(name string) (uint32, error) {
		v, err := u()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		if v > 1<<32-1 {
			return 0, fmt.Errorf("%s: value %d overflows uint32", name, v)
		}
		return uint32(v), nil
	}
	if rec.Iterations, err = geti64("iterations"); err != nil {
		return nil, err
	}
	if rec.CurGen, err = getu32("curGen"); err != nil {
		return nil, err
	}
	if rec.EdgesBefore, err = geti64("edgesBefore"); err != nil {
		return nil, err
	}
	if rec.Repartitions, err = geti64("repartitions"); err != nil {
		return nil, err
	}
	if rec.Widened, err = geti64("widened"); err != nil {
		return nil, err
	}
	getpos := func(name string) (int, error) {
		v, err := binary.ReadVarint(r)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		if v < -1 || v > 1<<31 {
			return 0, fmt.Errorf("%s: implausible value %d", name, v)
		}
		return int(v), nil
	}
	if rec.HotA, err = getpos("hotA"); err != nil {
		return nil, err
	}
	if rec.HotB, err = getpos("hotB"); err != nil {
		return nil, err
	}
	nparts, err := u()
	if err != nil {
		return nil, fmt.Errorf("part count: %w", err)
	}
	// Each part costs at least 6 payload bytes; reject counts the remaining
	// payload cannot possibly hold before allocating.
	if nparts > uint64(r.Len()) {
		return nil, fmt.Errorf("part count %d exceeds remaining payload %d", nparts, r.Len())
	}
	rec.Parts = make([]JournalPart, 0, nparts)
	for i := uint64(0); i < nparts; i++ {
		var p JournalPart
		id, err := geti64("part id")
		if err != nil {
			return nil, err
		}
		p.ID = int(id)
		if p.Lo, err = getu32("part lo"); err != nil {
			return nil, err
		}
		if p.Hi, err = getu32("part hi"); err != nil {
			return nil, err
		}
		if p.Edges, err = geti64("part edges"); err != nil {
			return nil, err
		}
		if p.MaxGen, err = getu32("part maxGen"); err != nil {
			return nil, err
		}
		plen, err := u()
		if err != nil {
			return nil, fmt.Errorf("part path len: %w", err)
		}
		if plen > uint64(r.Len()) {
			return nil, fmt.Errorf("part path length %d exceeds remaining payload %d", plen, r.Len())
		}
		pbuf := make([]byte, plen)
		if _, err := io.ReadFull(r, pbuf); err != nil {
			return nil, fmt.Errorf("part path: %w", err)
		}
		p.Path = string(pbuf)
		// Paths are basenames inside the engine directory; anything else is
		// either corruption or an attempt to escape the directory.
		if p.Path == "" || p.Path != filepath.Base(p.Path) {
			return nil, fmt.Errorf("part path %q is not a bare filename", p.Path)
		}
		rec.Parts = append(rec.Parts, p)
	}
	ngens, err := u()
	if err != nil {
		return nil, fmt.Errorf("lastGen count: %w", err)
	}
	if ngens > uint64(r.Len()) {
		return nil, fmt.Errorf("lastGen count %d exceeds remaining payload %d", ngens, r.Len())
	}
	rec.LastGen = make([]JournalGen, 0, ngens)
	for i := uint64(0); i < ngens; i++ {
		var g JournalGen
		a, err := geti64("lastGen a")
		if err != nil {
			return nil, err
		}
		b, err := geti64("lastGen b")
		if err != nil {
			return nil, err
		}
		g.A, g.B = int(a), int(b)
		if g.Gen, err = getu32("lastGen gen"); err != nil {
			return nil, err
		}
		rec.LastGen = append(rec.LastGen, g)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%d bytes of slack after record", r.Len())
	}
	return &rec, nil
}

// JournalWriter appends checkpoint records to a run journal. Not safe for
// concurrent use; the engine checkpoints from its single coordinator
// goroutine.
type JournalWriter struct {
	f      *os.File
	path   string
	faults *faultpoint.Set
	frame  []byte
}

// CreateJournal atomically creates (or replaces) the journal in dir and
// returns a writer positioned after the header. The header lands via the
// crash-safe temp → fsync → rename → fsync-dir path, so a crash during
// creation never leaves a journal with a torn header under the real name.
func CreateJournal(dir string, meta JournalMeta, faults *faultpoint.Set) (*JournalWriter, error) {
	path := filepath.Join(dir, JournalName)
	if err := WriteFileAtomic(path, encodeJournalHeader(meta)); err != nil {
		return nil, err
	}
	w, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, err
	}
	return &JournalWriter{f: w, path: path, faults: faults}, nil
}

// Append frames rec, writes it, and fsyncs. On return the checkpoint is
// durable. Returns the bytes written.
func (w *JournalWriter) Append(rec *JournalRecord) (int64, error) {
	payload := encodeJournalRecord(w.frame[:0], rec)
	if len(payload) > maxJournalPayload {
		return 0, fmt.Errorf("storage: %s: journal record too large: %d bytes", w.path, len(payload))
	}
	w.frame = payload // keep the grown buffer for reuse
	frame := make([]byte, 0, 4+len(payload)+4)
	var head [4]byte
	binary.LittleEndian.PutUint32(head[:], uint32(len(payload)))
	frame = append(frame, head[:]...)
	frame = append(frame, payload...)
	binary.LittleEndian.PutUint32(head[:], crc32.ChecksumIEEE(payload))
	frame = append(frame, head[:]...)
	if err := w.faults.Hit(faultpoint.JournalAppendMid); err != nil {
		// Simulate a torn write: a prefix of the frame reaches the file, no
		// fsync, and the process "dies" (the injected error propagates up).
		if _, werr := w.f.Write(frame[:len(frame)/2]); werr != nil {
			return 0, werr
		}
		return 0, err
	}
	if _, err := w.f.Write(frame); err != nil {
		return 0, err
	}
	if err := w.f.Sync(); err != nil {
		return 0, err
	}
	return int64(len(frame)), nil
}

// Close releases the writer's file handle.
func (w *JournalWriter) Close() error {
	if w == nil || w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// ReadJournal parses the journal in dir. A missing file wraps ErrNoJournal;
// an unparseable header wraps ErrCorrupt. Record parsing is tolerant of a
// torn tail: decoding stops at the first frame that fails its length,
// checksum, or payload parse, and the valid prefix is returned along with
// validLen, the byte offset the journal should be truncated to before
// appending resumes.
func ReadJournal(dir string) (JournalMeta, []*JournalRecord, int64, error) {
	path := filepath.Join(dir, JournalName)
	buf, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return JournalMeta{}, nil, 0, fmt.Errorf("storage: %s: %w", path, ErrNoJournal)
		}
		return JournalMeta{}, nil, 0, err
	}
	meta, err := decodeJournalHeader(path, buf)
	if err != nil {
		return JournalMeta{}, nil, 0, err
	}
	var recs []*JournalRecord
	off := int64(journalHeaderSize)
	rest := buf[journalHeaderSize:]
	for len(rest) > 0 {
		if len(rest) < 4 {
			break // torn frame length
		}
		rlen := binary.LittleEndian.Uint32(rest)
		if rlen == 0 || rlen > maxJournalPayload || int(rlen)+8 > len(rest) {
			break // implausible or truncated frame
		}
		payload := rest[4 : 4+rlen]
		want := binary.LittleEndian.Uint32(rest[4+rlen:])
		if crc32.ChecksumIEEE(payload) != want {
			break // torn or bit-flipped payload
		}
		rec, err := decodeJournalRecord(payload)
		if err != nil {
			break // checksum passed but payload malformed: treat as torn
		}
		recs = append(recs, rec)
		off += int64(rlen) + 8
		rest = rest[rlen+8:]
	}
	return meta, recs, off, nil
}

// OpenJournal reads the journal in dir, truncates any torn tail, and
// returns a writer positioned for further appends plus the parsed records.
// The writer leads the result list: callers own its open file from here on.
// Errors from ReadJournal (ErrNoJournal, ErrCorrupt) pass through.
func OpenJournal(dir string, faults *faultpoint.Set) (*JournalWriter, JournalMeta, []*JournalRecord, error) {
	meta, recs, validLen, err := ReadJournal(dir)
	if err != nil {
		return nil, JournalMeta{}, nil, err
	}
	path := filepath.Join(dir, JournalName)
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, JournalMeta{}, nil, err
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, JournalMeta{}, nil, err
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, JournalMeta{}, nil, err
	}
	return &JournalWriter{f: f, path: path, faults: faults}, meta, recs, nil
}
