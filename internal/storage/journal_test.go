package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/grapple-system/grapple/internal/faultpoint"
)

// testRecord is a record of the log's tests: any JSON-encodable value
// round-trips, these fields stand in for a checkpoint's.
type testRecord struct {
	Seq       uint64
	Completed bool
	HotA      int
	Parts     []string
	LastGen   map[string]uint32
}

func newTestRecord(seq uint64) *testRecord {
	return &testRecord{
		Seq:     seq,
		HotA:    int(seq%4) - 1,
		Parts:   []string{"part-0.edges", "part-1-g3.edges"},
		LastGen: map[string]uint32{"0,0": 1, "0,1": uint32(seq)},
	}
}

// sameRecords compares record lists, nil and empty alike.
func sameRecords(a, b []testRecord) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	const tag = 0xdeadbeefcafe
	w, err := CreateJournal(path, tag, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []testRecord
	for seq := uint64(0); seq < 5; seq++ {
		rec := newTestRecord(seq)
		rec.Completed = seq == 4
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, *rec)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	gotTag, recs, _, err := ReadJournal[testRecord](path)
	if err != nil {
		t.Fatal(err)
	}
	if gotTag != tag {
		t.Fatalf("tag round trip: got %#x want %#x", gotTag, tag)
	}
	if !sameRecords(recs, want) {
		t.Fatalf("records mismatch:\ngot  %+v\nwant %+v", recs, want)
	}
}

func TestJournalMissingFile(t *testing.T) {
	_, _, _, err := ReadJournal[testRecord](filepath.Join(t.TempDir(), "j"))
	if !errors.Is(err, ErrNoJournal) {
		t.Fatalf("missing journal: %v", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatal("missing journal must not read as corrupt")
	}
}

// TestOpenJournalChecksTag: a log written under another tag is stale, never
// replayed, and left as it was.
func TestOpenJournalChecksTag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	raw, _ := writeTestJournal(t, path, 2)
	if _, _, err := OpenJournal[testRecord](path, 8, nil); !errors.Is(err, ErrStale) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("open under another tag: %v", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, raw) {
		t.Fatalf("a refused open changed the log (%v)", err)
	}
}

// writeTestJournal creates a log at path with n records under tag 7 and
// returns its raw bytes plus the records.
func writeTestJournal(t *testing.T, path string, n int) ([]byte, []testRecord) {
	t.Helper()
	w, err := CreateJournal(path, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	var recs []testRecord
	for seq := 0; seq < n; seq++ {
		rec := newTestRecord(uint64(seq))
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, *rec)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw, recs
}

// TestJournalCorruptionMatrix holds the reader to its one damage rule:
// header damage is ErrCorrupt; a bad frame that ends the file is a torn
// append and only it is dropped; a bad frame with a valid one after it is
// ErrCorrupt — never a panic, never a half-parsed record.
func TestJournalCorruptionMatrix(t *testing.T) {
	raw, recs := writeTestJournal(t, filepath.Join(t.TempDir(), "j"), 4)
	// starts[i] is record i's frame offset; starts[len(recs)] the file's end.
	starts := []int{journalHeaderSize}
	for off := journalHeaderSize; off < len(raw); {
		off += 8 + int(binary.LittleEndian.Uint32(raw[off:]))
		starts = append(starts, off)
	}
	if len(starts) != len(recs)+1 || starts[len(recs)] != len(raw) {
		t.Fatalf("frame offsets %v do not cover %d records", starts, len(recs))
	}

	reread := func(t *testing.T, data []byte) ([]testRecord, int64, error) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "j")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, got, validLen, err := ReadJournal[testRecord](path)
		return got, validLen, err
	}
	flip := func(off int) []byte {
		data := bytes.Clone(raw)
		data[off] ^= 0x01
		return data
	}

	t.Run("header damage is corrupt", func(t *testing.T) {
		v1 := bytes.Clone(raw)
		binary.LittleEndian.PutUint16(v1[4:], 1)
		for name, data := range map[string][]byte{
			"short header":      raw[:journalHeaderSize-2],
			"bad magic":         append([]byte{'X'}, raw[1:]...),
			"tag bit flip":      flip(9),
			"checksum bit flip": flip(journalHeaderSize - 1),
			"version 1":         v1,
		} {
			if _, _, err := reread(t, data); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: not ErrCorrupt: %v", name, err)
			}
		}
	})

	t.Run("truncation at every byte yields a valid prefix", func(t *testing.T) {
		for cut := journalHeaderSize; cut <= len(raw); cut++ {
			got, validLen, err := reread(t, raw[:cut])
			if err != nil {
				t.Fatalf("cut=%d: %v", cut, err)
			}
			whole := 0 // records whose frames end at or before the cut
			for whole < len(recs) && starts[whole+1] <= cut {
				whole++
			}
			if !sameRecords(got, recs[:whole]) || validLen != int64(starts[whole]) {
				t.Fatalf("cut=%d: %d records up to byte %d, want %d up to %d", cut, len(got), validLen, whole, starts[whole])
			}
		}
	})

	t.Run("flip in the last record drops only it", func(t *testing.T) {
		last := len(recs) - 1
		for off := starts[last]; off < len(raw); off++ {
			got, validLen, err := reread(t, flip(off))
			if err != nil {
				t.Fatalf("off=%d: %v", off, err)
			}
			if !sameRecords(got, recs[:last]) || validLen != int64(starts[last]) {
				t.Fatalf("off=%d: %d records up to byte %d", off, len(got), validLen)
			}
		}
	})

	t.Run("flip in an earlier record is corrupt", func(t *testing.T) {
		for off := journalHeaderSize; off < starts[len(recs)-1]; off++ {
			if _, _, err := reread(t, flip(off)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("off=%d: not ErrCorrupt: %v", off, err)
			}
		}
	})

	t.Run("trailing garbage keeps the prefix", func(t *testing.T) {
		data := append(bytes.Clone(raw), 0xFF, 0xFF, 0xFF, 0xFF, 0xAB)
		got, validLen, err := reread(t, data)
		if err != nil || len(got) != len(recs) {
			t.Fatalf("trailing garbage: %d records, %v", len(got), err)
		}
		if validLen != int64(len(raw)) {
			t.Fatalf("validLen %d, want %d", validLen, len(raw))
		}
	})

	t.Run("checksummed payload that does not decode is corrupt", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "j")
		w, err := CreateJournal(path, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(map[string]string{"Seq": "not a number"}); err != nil {
			t.Fatal(err)
		}
		w.Close()
		if _, _, _, err := ReadJournal[testRecord](path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("undecodable record: %v", err)
		}
	})
}

// TestOpenJournalTruncatesTornTail checks the reopen path: a torn frame is
// cut off and subsequent appends produce a log whose records are the
// surviving prefix plus the new appends.
func TestOpenJournalTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	raw, recs := writeTestJournal(t, path, 3)
	// Tear the last frame in half.
	if err := os.WriteFile(path, raw[:len(raw)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	w, got, err := OpenJournal[testRecord](path, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecords(got, recs[:2]) {
		t.Fatalf("torn journal yielded %d records, want 2", len(got))
	}
	next := newTestRecord(9)
	if _, err := w.Append(next); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, after, _, err := ReadJournal[testRecord](path)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecords(after, append(recs[:2], *next)) {
		t.Fatalf("reopened journal content mismatch: %d records", len(after))
	}
}

// TestJournalTornAppendFaultpoint drives the mid-write fault point: the
// injected crash leaves a half-written frame that the next read drops, and
// the writer appends nothing after it.
func TestJournalTornAppendFaultpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	faults := faultpoint.New()
	faults.Arm(faultpoint.JournalAppendMid, 3)
	w, err := CreateJournal(path, 1, faults)
	if err != nil {
		t.Fatal(err)
	}
	var appendErr error
	for seq := uint64(0); seq < 3; seq++ {
		_, appendErr = w.Append(newTestRecord(seq))
	}
	if !errors.Is(appendErr, faultpoint.ErrInjected) {
		t.Fatalf("fault point did not fire: %v", appendErr)
	}
	torn, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(newTestRecord(3)); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("append after a torn one: %v", err)
	}
	w.Close()
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, torn) {
		t.Fatalf("a write followed the torn frame (%v)", err)
	}
	_, recs, _, err := ReadJournal[testRecord](path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("torn append visible: %d records, want 2", len(recs))
	}
	// And the journal is reopenable for further appends.
	w2, _, err := OpenJournal[testRecord](path, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Append(newTestRecord(10)); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, recs, _, err = ReadJournal[testRecord](path)
	if err != nil || len(recs) != 3 {
		t.Fatalf("append after torn tail: %d records, %v", len(recs), err)
	}
}

func TestCreateJournalReplacesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	writeTestJournal(t, path, 3)
	w, err := CreateJournal(path, 99, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	tag, recs, _, err := ReadJournal[testRecord](path)
	if err != nil {
		t.Fatal(err)
	}
	if tag != 99 || len(recs) != 0 {
		t.Fatalf("CreateJournal did not replace: tag %d, %d records", tag, len(recs))
	}
}

// --- ReadPartPrefix ----------------------------------------------------

// TestReadPartPrefixExact: a prefix of every edge the file holds ends where
// the file does.
func TestReadPartPrefixExact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.edges")
	rng := rand.New(rand.NewSource(21))
	var edges []Edge
	for i := 0; i < 100; i++ {
		edges = append(edges, randEdge(rng))
	}
	size, err := WritePart(path, edges, PartInfo{Lo: 1, Hi: 9})
	if err != nil {
		t.Fatal(err)
	}
	got, info, end, err := ReadPartPrefix(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	if end != size {
		t.Fatalf("prefix of the whole file ends at byte %d of %d", end, size)
	}
	if info != (PartInfo{Lo: 1, Hi: 9}) {
		t.Fatalf("info %+v", info)
	}
	for i := range edges {
		if !edgesEqual(got[i], edges[i]) {
			t.Fatalf("edge %d mismatch", i)
		}
	}
}

// TestReadPartPrefixWithSuffix: the checkpointed count is smaller than the
// file. Post-checkpoint appends form a suffix, and end is where the frames
// of the prefix end: cut there, the file holds the prefix alone.
func TestReadPartPrefixWithSuffix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.edges")
	rng := rand.New(rand.NewSource(22))
	var edges []Edge
	for i := 0; i < 60; i++ {
		edges = append(edges, randEdge(rng))
	}
	size, err := WritePart(path, edges[:40], PartInfo{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AppendPart(path, [][]Edge{edges[40:]}, PartInfo{}, nil); err != nil {
		t.Fatal(err)
	}
	got, _, end, err := ReadPartPrefix(path, 40)
	if err != nil {
		t.Fatal(err)
	}
	if end != size {
		t.Fatalf("the 40-edge prefix ends at byte %d, its frames at %d", end, size)
	}
	if len(got) != 40 {
		t.Fatalf("got %d edges", len(got))
	}
	for i := 0; i < 40; i++ {
		if !edgesEqual(got[i], edges[i]) {
			t.Fatalf("edge %d mismatch", i)
		}
	}
	if err := os.Truncate(path, end); err != nil {
		t.Fatal(err)
	}
	if back, _, _, err := ReadPart(path, nil); err != nil || len(back) != 40 {
		t.Fatalf("cut file: %d edges, %v", len(back), err)
	}
}

// TestReadPartPrefixTornAppend: a torn append past the prefix still yields
// the pre-append prefix; plain ReadPart drops the same torn frame.
func TestReadPartPrefixTornAppend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.edges")
	rng := rand.New(rand.NewSource(23))
	var edges []Edge
	for i := 0; i < 50; i++ {
		edges = append(edges, randEdge(rng))
	}
	size, err := WritePart(path, edges[:30], PartInfo{Lo: 2, Hi: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AppendPart(path, [][]Edge{edges[30:]}, PartInfo{}, nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(raw) - 1; cut > int(size); cut-- {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if got, _, _, err := ReadPart(path, nil); err != nil || len(got) != 30 {
			t.Fatalf("cut=%d: ReadPart read %d edges of a torn file: %v", cut, len(got), err)
		}
		got, _, end, err := ReadPartPrefix(path, 30)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if end != size {
			t.Fatalf("cut=%d: prefix ends at byte %d, want %d", cut, end, size)
		}
		for i := 0; i < 30; i++ {
			if !edgesEqual(got[i], edges[i]) {
				t.Fatalf("cut=%d: edge %d mismatch", cut, i)
			}
		}
	}
}

// TestReadPartPrefixInsufficient: a count the file cannot back — more edges
// than it holds, or a prefix that ends inside a frame — is ErrCorrupt.
func TestReadPartPrefixInsufficient(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.edges")
	rng := rand.New(rand.NewSource(24))
	var edges []Edge
	for i := 0; i < 10; i++ {
		edges = append(edges, randEdge(rng))
	}
	if _, err := WritePart(path, edges, PartInfo{}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{11, 5} {
		if _, _, _, err := ReadPartPrefix(path, n); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("a count of %d over a 10-edge frame: %v", n, err)
		}
	}
	// Missing file backs only a zero count.
	missing := filepath.Join(dir, "nope.edges")
	got, _, end, err := ReadPartPrefix(missing, 0)
	if err != nil || end != 0 || len(got) != 0 {
		t.Fatalf("missing file, n=0: %v %v %v", got, end, err)
	}
	if _, _, _, err := ReadPartPrefix(missing, 1); err == nil {
		t.Fatal("missing file backed a nonzero count")
	}
}
