// Durable log: the one append-only file layout of the repository. The engine
// journals its superstep checkpoints in it and the batch scheduler its
// finished instances, and every partition file (file.go) is one.
//
// A log file is
//
//	Header  Frame*
//
// Header (18 bytes):
//
//	magic    [4]byte  "GPLJ" for a journal, "GPLP" for a partition file
//	version  uint16   JournalVersion or FormatVersion
//	field    uint64   a journal's run tag (rejects stale logs); a
//	                  partition's vertex interval, lo | hi<<32
//	crc      uint32   IEEE CRC32 of the 14 bytes above
//
// Frame:
//
//	rlen     uint32   payload length in bytes
//	payload           a journal record (encoding/json), or a block of
//	                  partition records
//	crc      uint32   IEEE CRC32 of the payload
//
// Frames are only ever appended, and each append is fsynced, so the log is a
// write-ahead log of whatever its caller commits. There is one damage rule.
// A crash mid-append leaves a bad frame (short, or failing its checksum) at
// the end of the file: that is a torn append, readers drop it and OpenJournal
// truncates it, so a half-written frame is never half-visible. A bad frame
// that a valid frame follows cannot come from a torn append: the file was
// damaged, ErrCorrupt. So is a header that fails to parse — including one of
// another format version, which is refused and never misread — and a payload
// that passes its checksum but does not decode. A missing journal is
// ErrNoJournal and a header carrying another tag ErrStale, each distinct so
// callers can refuse to silently start cold.
package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"github.com/grapple-system/grapple/internal/faultpoint"
)

// JournalVersion is the current journal format.
const JournalVersion = 2

const (
	journalHeaderSize = 18
	// maxFramePayload rejects absurd frame lengths before reading on. Journal
	// records are a few KiB, partition blocks a quarter MiB.
	maxFramePayload = 16 << 20
)

// logFormat is what a log's header says the file is.
type logFormat struct {
	magic   [4]byte
	version uint16
}

var journalFormat = logFormat{[4]byte{'G', 'P', 'L', 'J'}, JournalVersion}

// ErrCorrupt tags every integrity failure a reader or AppendPart can detect:
// bad magic, version or checksum, a bad frame before a valid one, a payload
// that does not decode. Errors wrap it, so errors.Is(err, ErrCorrupt)
// distinguishes damage from plain I/O failures.
var ErrCorrupt = errors.New("corrupt file")

// ErrNoJournal reports that there is no log file. It is distinct from
// ErrCorrupt so resume can tell "never journaled" from "journal damaged".
var ErrNoJournal = errors.New("no run journal")

// ErrStale reports a log that parsed cleanly but was written under another
// tag, that is by a different run: resuming from it would silently replay
// state computed over other inputs, so it is refused instead.
var ErrStale = errors.New("journal does not match this run")

func corruptf(path, format string, args ...any) error {
	return fmt.Errorf("storage: %s: %w: %s", path, ErrCorrupt, fmt.Sprintf(format, args...))
}

func (lf logFormat) header(field uint64) []byte {
	buf := make([]byte, journalHeaderSize)
	copy(buf, lf.magic[:])
	binary.LittleEndian.PutUint16(buf[4:], lf.version)
	binary.LittleEndian.PutUint64(buf[6:], field)
	binary.LittleEndian.PutUint32(buf[14:], crc32.ChecksumIEEE(buf[:14]))
	return buf
}

// parse returns the header's field. The version is checked before the
// checksum, whose place depends on it.
func (lf logFormat) parse(path string, buf []byte) (uint64, error) {
	if len(buf) < journalHeaderSize {
		return 0, corruptf(path, "short header: %d bytes", len(buf))
	}
	if !bytes.Equal(buf[:4], lf.magic[:]) {
		return 0, corruptf(path, "bad magic %q", buf[:4])
	}
	if v := binary.LittleEndian.Uint16(buf[4:]); v != lf.version {
		return 0, corruptf(path, "unsupported format version %d (want %d)", v, lf.version)
	}
	if crc32.ChecksumIEEE(buf[:14]) != binary.LittleEndian.Uint32(buf[14:]) {
		return 0, corruptf(path, "header checksum mismatch")
	}
	return binary.LittleEndian.Uint64(buf[6:]), nil
}

// sealFrame completes the frame whose payload is buf[start+4:], the four
// bytes at buf[start:] having been left for its length: it returns buf with
// the payload's checksum appended, the frame being the result's [start:].
func sealFrame(buf []byte, start int) []byte {
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start+4:]))
}

// writeFrame writes one sealed frame to w. Where the fault point fires, only
// the first half of it reaches w and the injected crash is returned: a torn
// append, left unsynced, as a process dying mid-write leaves it.
func writeFrame(w io.Writer, frame []byte, faults *faultpoint.Set, point string) error {
	if err := faults.Hit(point); err != nil {
		if _, werr := w.Write(frame[:len(frame)/2]); werr != nil {
			return werr
		}
		return err
	}
	_, err := w.Write(frame)
	return err
}

// frameAt reports whether a whole frame with a matching checksum starts at
// buf[off:].
func frameAt(buf []byte, off int) bool {
	rest := buf[off:]
	if len(rest) < 8 {
		return false
	}
	n := int(binary.LittleEndian.Uint32(rest))
	if n == 0 || n > maxFramePayload || n+8 > len(rest) {
		return false
	}
	return crc32.ChecksumIEEE(rest[4:4+n]) == binary.LittleEndian.Uint32(rest[4+n:])
}

// errStop ends a scan early on its frame callback's request; scanLog returns
// it, and the caller knows it for no error.
var errStop = errors.New("scan stopped")

// scanLog is the one reader of the durable log: it opens path, parses its
// header as lf, and hands frame the payload of every valid frame in turn with
// the offset where that frame ends, holding one frame in memory at a time.
// It returns the header's field and the offset where the valid frames end,
// the length OpenJournal truncates to. A torn final frame ends the scan
// cleanly; a bad frame before a valid one is ErrCorrupt; an error from frame
// ends the scan and is returned as is. A file that cannot be opened returns
// os.Open's error.
func scanLog(path string, lf logFormat, frame func(payload []byte, end int64) error) (uint64, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	head := make([]byte, journalHeaderSize)
	n, err := io.ReadFull(r, head)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return 0, 0, err
	}
	field, err := lf.parse(path, head[:n])
	if err != nil {
		return 0, 0, err
	}
	off := int64(journalHeaderSize)
	var buf []byte
	for {
		var rlen [4]byte
		n, err := io.ReadFull(r, rlen[:])
		if n == 0 && err == io.EOF {
			return field, off, nil
		}
		plen := int(binary.LittleEndian.Uint32(rlen[:]))
		ok := err == nil && plen > 0 && plen <= maxFramePayload
		if ok {
			if cap(buf) < plen+4 {
				buf = make([]byte, plen+4)
			}
			buf = buf[:plen+4]
			_, err = io.ReadFull(r, buf)
			ok = err == nil && crc32.ChecksumIEEE(buf[:plen]) == binary.LittleEndian.Uint32(buf[plen:])
		}
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return field, off, err
		}
		if !ok {
			return field, off, damaged(f, path, off)
		}
		end := off + int64(plen) + 8
		if err := frame(buf[:plen], end); err != nil {
			return field, off, err
		}
		off = end
	}
}

// damaged classifies the bad frame at byte off of f: nil when no valid frame
// starts anywhere after it (a torn append), ErrCorrupt otherwise.
func damaged(f *os.File, path string, off int64) error {
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	rest, err := io.ReadAll(f)
	if err != nil {
		return err
	}
	for next := 1; next < len(rest); next++ {
		if frameAt(rest, next) {
			return corruptf(path, "bad frame at byte %d before a valid one at byte %d", off, off+int64(next))
		}
	}
	return nil
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
// a failure at any step removes the temp file. New partition files, the
// journal header and status.json all land through here.
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

// JournalWriter appends records to a journal. Safe for concurrent use: the
// batch scheduler's workers share one.
type JournalWriter struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	faults *faultpoint.Set
	// err is the first failed append's error. That append may have left a
	// torn frame, which must stay the file's last, so every later append
	// fails with it.
	err error
}

// CreateJournal atomically creates (or replaces) the journal at path, with
// tag in its header, and returns a writer positioned after the header. The
// header lands via writeAtomic, so a crash during creation never leaves a
// journal with a torn header under the real name.
func CreateJournal(path string, tag uint64, faults *faultpoint.Set) (*JournalWriter, error) {
	if err := WriteFileAtomic(path, journalFormat.header(tag)); err != nil {
		return nil, err
	}
	return appendJournal(path, journalHeaderSize, faults)
}

// appendJournal opens the journal at path for appends after its first n
// bytes, cutting off whatever follows them.
func appendJournal(path string, n int64, faults *faultpoint.Set) (*JournalWriter, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(n); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(n, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &JournalWriter{f: f, path: path, faults: faults}, nil
}

// Append encodes rec as JSON, frames it, writes it, and fsyncs. On return
// the record is durable. Returns the bytes written.
func (w *JournalWriter) Append(rec any) (int64, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, err
	}
	if len(payload) > maxFramePayload {
		return 0, fmt.Errorf("storage: %s: journal record too large: %d bytes", w.path, len(payload))
	}
	frame := sealFrame(append(make([]byte, 4, len(payload)+8), payload...), 0)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		if w.err = writeFrame(w.f, frame, w.faults, faultpoint.JournalAppendMid); w.err == nil {
			w.err = w.f.Sync()
		}
	}
	if w.err != nil {
		return 0, w.err
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

// ReadJournal parses the journal at path, decoding each record into a T, and
// returns the header's tag, the records, and validLen, the byte offset the
// file is truncated to before appending resumes. A missing file wraps
// ErrNoJournal and any damage but a torn final frame ErrCorrupt (see the
// package comment).
func ReadJournal[T any](path string) (tag uint64, recs []T, validLen int64, err error) {
	tag, validLen, err = scanLog(path, journalFormat, func(payload []byte, end int64) error {
		var rec T
		if err := json.Unmarshal(payload, &rec); err != nil {
			return corruptf(path, "record at byte %d: %v", end-int64(len(payload))-8, err)
		}
		recs = append(recs, rec)
		return nil
	})
	if os.IsNotExist(err) {
		return 0, nil, 0, fmt.Errorf("storage: %s: %w", path, ErrNoJournal)
	}
	if err != nil {
		return 0, nil, 0, err
	}
	return tag, recs, validLen, nil
}

// OpenJournal reads the journal at path, refuses it unless its header carries
// tag (ErrStale), truncates a torn final frame, and returns a writer
// positioned for further appends plus the parsed records. The writer leads
// the result list: callers own its open file from here on. Errors from
// ReadJournal (ErrNoJournal, ErrCorrupt) pass through.
func OpenJournal[T any](path string, tag uint64, faults *faultpoint.Set) (*JournalWriter, []T, error) {
	got, recs, validLen, err := ReadJournal[T](path)
	if err != nil {
		return nil, nil, err
	}
	if got != tag {
		return nil, nil, fmt.Errorf("storage: %s: %w: written under tag %#x, this run's is %#x (delete it to start cold)",
			path, ErrStale, got, tag)
	}
	w, err := appendJournal(path, validLen, faults)
	if err != nil {
		return nil, nil, err
	}
	return w, recs, nil
}
