// Durable log: the one append-only record log of the repository. The engine
// journals its superstep checkpoints in it and the batch scheduler its
// finished instances.
//
// A log file is
//
//	Header  Frame*
//
// Header (18 bytes):
//
//	magic    [4]byte  "GPLJ"
//	version  uint16   2
//	tag      uint64   caller-chosen run identity (rejects stale logs)
//	crc      uint32   IEEE CRC32 of the 14 bytes above
//
// Frame:
//
//	rlen     uint32   payload length in bytes
//	payload           one record, encoding/json
//	crc      uint32   IEEE CRC32 of the payload
//
// Records are append-only and each append is fsynced, so the log is a
// write-ahead log of whatever its caller commits. There is one damage rule.
// A crash mid-append leaves a bad frame (short, or failing its checksum) at
// the end of the file: that is a torn append, readers drop it and OpenJournal
// truncates it, so a half-written record is never half-visible. A bad frame
// that a valid frame follows cannot come from a torn append: the file was
// damaged, ErrCorrupt. So is a header that fails to parse — including one of
// another format version, which is refused and never misread — and a payload
// that passes its checksum but does not decode. A missing file is
// ErrNoJournal and a header carrying another tag ErrStale, each distinct so
// callers can refuse to silently start cold.
package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"github.com/grapple-system/grapple/internal/faultpoint"
)

// JournalVersion is the current log format.
const JournalVersion = 2

const (
	journalHeaderSize = 18
	// maxJournalPayload rejects absurd record lengths before reading on.
	// Real records are a few KiB.
	maxJournalPayload = 16 << 20
)

var journalMagic = [4]byte{'G', 'P', 'L', 'J'}

// ErrNoJournal reports that there is no log file. It is distinct from
// ErrCorrupt so resume can tell "never journaled" from "journal damaged".
var ErrNoJournal = errors.New("no run journal")

// ErrStale reports a log that parsed cleanly but was written under another
// tag, that is by a different run: resuming from it would silently replay
// state computed over other inputs, so it is refused instead.
var ErrStale = errors.New("journal does not match this run")

func corruptJournal(path, format string, args ...any) error {
	return fmt.Errorf("storage: %s: %w: %s", path, ErrCorrupt, fmt.Sprintf(format, args...))
}

func encodeJournalHeader(tag uint64) []byte {
	buf := make([]byte, journalHeaderSize)
	copy(buf, journalMagic[:])
	binary.LittleEndian.PutUint16(buf[4:], JournalVersion)
	binary.LittleEndian.PutUint64(buf[6:], tag)
	binary.LittleEndian.PutUint32(buf[14:], crc32.ChecksumIEEE(buf[:14]))
	return buf
}

// decodeJournalHeader returns the header's tag. The version is checked before
// the checksum, whose place depends on it.
func decodeJournalHeader(path string, buf []byte) (uint64, error) {
	if len(buf) < journalHeaderSize {
		return 0, corruptJournal(path, "short header: %d bytes", len(buf))
	}
	if !bytes.Equal(buf[:4], journalMagic[:]) {
		return 0, corruptJournal(path, "bad magic %q", buf[:4])
	}
	if v := binary.LittleEndian.Uint16(buf[4:]); v != JournalVersion {
		return 0, corruptJournal(path, "unsupported journal version %d (want %d)", v, JournalVersion)
	}
	if crc32.ChecksumIEEE(buf[:14]) != binary.LittleEndian.Uint32(buf[14:]) {
		return 0, corruptJournal(path, "header checksum mismatch")
	}
	return binary.LittleEndian.Uint64(buf[6:]), nil
}

// frameAt returns the payload of the frame at buf[off:], if a whole frame
// with a matching checksum starts there.
func frameAt(buf []byte, off int) ([]byte, bool) {
	rest := buf[off:]
	if len(rest) < 8 {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint32(rest))
	if n == 0 || n > maxJournalPayload || n+8 > len(rest) {
		return nil, false
	}
	payload := rest[4 : 4+n]
	return payload, crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(rest[4+n:])
}

// JournalWriter appends records to a log. Safe for concurrent use: the batch
// scheduler's workers share one.
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

// CreateJournal atomically creates (or replaces) the log at path, with tag
// in its header, and returns a writer positioned after the header. The
// header lands via the crash-safe temp → fsync → rename → fsync-dir path,
// so a crash during creation never leaves a log with a torn header under the
// real name.
func CreateJournal(path string, tag uint64, faults *faultpoint.Set) (*JournalWriter, error) {
	if err := WriteFileAtomic(path, encodeJournalHeader(tag)); err != nil {
		return nil, err
	}
	return appendJournal(path, journalHeaderSize, faults)
}

// appendJournal opens the log at path for appends after its first n bytes,
// cutting off whatever follows them.
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
	if len(payload) > maxJournalPayload {
		return 0, fmt.Errorf("storage: %s: journal record too large: %d bytes", w.path, len(payload))
	}
	frame := binary.LittleEndian.AppendUint32(make([]byte, 0, len(payload)+8), uint32(len(payload)))
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = w.write(frame)
	}
	if w.err != nil {
		return 0, w.err
	}
	return int64(len(frame)), nil
}

func (w *JournalWriter) write(frame []byte) error {
	if err := w.faults.Hit(faultpoint.JournalAppendMid); err != nil {
		// Simulate a torn write: a prefix of the frame reaches the file, no
		// fsync, and the process "dies" (the injected error propagates up).
		if _, werr := w.f.Write(frame[:len(frame)/2]); werr != nil {
			return werr
		}
		return err
	}
	if _, err := w.f.Write(frame); err != nil {
		return err
	}
	return w.f.Sync()
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

// ReadJournal parses the log at path, decoding each record into a T, and
// returns the header's tag, the records, and validLen, the byte offset the
// file is truncated to before appending resumes. A missing file wraps
// ErrNoJournal and any damage but a torn final frame ErrCorrupt (see the
// package comment).
func ReadJournal[T any](path string) (tag uint64, recs []T, validLen int64, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil, 0, fmt.Errorf("storage: %s: %w", path, ErrNoJournal)
		}
		return 0, nil, 0, err
	}
	if tag, err = decodeJournalHeader(path, buf); err != nil {
		return 0, nil, 0, err
	}
	off := journalHeaderSize
	for off < len(buf) {
		payload, ok := frameAt(buf, off)
		if !ok {
			for next := off + 1; next < len(buf); next++ {
				if _, ok := frameAt(buf, next); ok {
					return 0, nil, 0, corruptJournal(path, "bad frame at byte %d before a valid one at byte %d", off, next)
				}
			}
			break // a torn append
		}
		var rec T
		if err := json.Unmarshal(payload, &rec); err != nil {
			return 0, nil, 0, corruptJournal(path, "record at byte %d: %v", off, err)
		}
		recs = append(recs, rec)
		off += len(payload) + 8
	}
	return tag, recs, int64(off), nil
}

// OpenJournal reads the log at path, refuses it unless its header carries
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
