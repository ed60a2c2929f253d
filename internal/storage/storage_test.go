package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/grammar"
)

func randEdge(rng *rand.Rand) Edge {
	e := Edge{
		Src:   rng.Uint32(),
		Dst:   rng.Uint32(),
		Label: grammar.Label(rng.Intn(1 << 14)),
		Gen:   rng.Uint32(),
	}
	if rng.Intn(2) == 0 {
		e.HasRel = true
		for i := range e.Rel {
			e.Rel[i] = uint16(rng.Intn(1 << 16))
		}
	}
	n := rng.Intn(6)
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			e.Enc = append(e.Enc, cfet.Interval(
				cfet.MethodID(rng.Intn(1000)),
				uint64(rng.Intn(1<<20)),
				uint64(rng.Intn(1<<20))))
		case 1:
			e.Enc = append(e.Enc, cfet.CallElem(int32(rng.Intn(1<<20))))
		default:
			e.Enc = append(e.Enc, cfet.RetElem(int32(rng.Intn(1<<20))))
		}
	}
	return e
}

func edgesEqual(a, b Edge) bool {
	return a.Src == b.Src && a.Dst == b.Dst && a.Label == b.Label &&
		a.Gen == b.Gen && a.HasRel == b.HasRel && a.Rel == b.Rel &&
		a.Enc.Equal(b.Enc)
}

// TestRecordRoundTrip: a block of random records decodes back equal through
// the block cursor, and a block header that promises fewer records than the
// payload holds is rejected as slack.
func TestRecordRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var buf []byte
		var want []Edge
		for i := 0; i < 10; i++ {
			e := randEdge(rng)
			want = append(want, e)
			buf = appendRecordV2(buf, &e)
		}
		var cur blockCursor
		got, err := cur.decodeBlock(buf, 10, nil)
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if !edgesEqual(got[i], want[i]) {
				return false
			}
		}
		got, err = cur.decodeBlock(buf, 9, got)
		return errors.Is(err, ErrCorrupt) && len(got) == len(want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordV2RoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var buf []byte
		var want []Edge
		for i := 0; i < 10; i++ {
			e := randEdge(rng)
			want = append(want, e)
			buf = appendRecordV2(buf, &e)
		}
		r := bytes.NewReader(buf)
		for _, w := range want {
			var got Edge
			if err := decodeRecord(r, &got); err != nil {
				return false
			}
			if !edgesEqual(got, w) {
				return false
			}
		}
		return r.Len() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTruncatedRecord cuts a one-record file at every byte: a cut into the
// header is ErrCorrupt, and a cut into the one frame is a torn append, which
// reads as no edges at all — never as a partial or garbled record.
func TestTruncatedRecord(t *testing.T) {
	dir := t.TempDir()
	e := randEdge(rand.New(rand.NewSource(1)))
	whole := filepath.Join(dir, "whole.edges")
	if _, err := WritePart(whole, []Edge{e}, PartInfo{Lo: 1, Hi: 2}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cut.edges")
	for cut := 0; cut < len(buf); cut++ {
		if err := os.WriteFile(path, buf[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, _, _, err := ReadPart(path, nil)
		if cut < journalHeaderSize && !errors.Is(err, ErrCorrupt) || cut >= journalHeaderSize && (err != nil || len(got) != 0) {
			t.Fatalf("cut=%d: %d edges, %v", cut, len(got), err)
		}
	}
}

// longEncEdge builds an edge whose path encoding is n call elements — past
// 127, the encoding length needs a second uvarint byte.
func longEncEdge(n int) Edge {
	e := Edge{Src: 7, Dst: 9, Label: 3}
	for i := 0; i < n; i++ {
		e.Enc = append(e.Enc, cfet.CallElem(int32(i)))
	}
	return e
}

func TestLongEncodingRoundTripsInV2(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "long.edges")
	want := []Edge{longEncEdge(300), longEncEdge(1000)}
	if _, err := WritePart(path, want, PartInfo{}); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := ReadPart(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d edges want %d", len(got), len(want))
	}
	for i := range want {
		if !edgesEqual(got[i], want[i]) {
			t.Fatalf("edge %d mismatch", i)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p0.edges")
	rng := rand.New(rand.NewSource(99))
	var want []Edge
	for i := 0; i < 1000; i++ {
		want = append(want, randEdge(rng))
	}
	info := PartInfo{Lo: 17, Hi: 4242}
	n, err := WritePart(path, want, info)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != st.Size() {
		t.Fatalf("WritePart reported %d bytes, file has %d", n, st.Size())
	}
	got, gotInfo, read, err := ReadPart(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotInfo != info {
		t.Fatalf("PartInfo round trip: got %+v want %+v", gotInfo, info)
	}
	if read != n {
		t.Fatalf("ReadPart reported %d bytes, wrote %d", read, n)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d edges want %d", len(got), len(want))
	}
	for i := range want {
		if !edgesEqual(got[i], want[i]) {
			t.Fatalf("edge %d mismatch", i)
		}
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(entries) != 0 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestWriteFileEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.edges")
	if _, err := WritePart(path, nil, PartInfo{}); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := ReadPart(path, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty v2 file: %v %v", got, err)
	}
}

func TestAppendFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p1.edges")
	rng := rand.New(rand.NewSource(5))
	a := []Edge{randEdge(rng), randEdge(rng)}
	b := []Edge{randEdge(rng)}
	if _, err := AppendPart(path, [][]Edge{a}, PartInfo{Lo: 4, Hi: 8}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := AppendPart(path, [][]Edge{b}, PartInfo{Lo: 9, Hi: 9}, nil); err != nil {
		t.Fatal(err)
	}
	got, info, _, err := ReadPart(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d edges", len(got))
	}
	if info != (PartInfo{Lo: 4, Hi: 8}) {
		t.Fatalf("the creating append's interval is not recorded: %+v", info)
	}
	if !edgesEqual(got[2], b[0]) {
		t.Fatal("appended edge mismatch")
	}
}

func TestAppendToWrittenPart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p2.edges")
	rng := rand.New(rand.NewSource(6))
	base := []Edge{randEdge(rng), randEdge(rng), randEdge(rng)}
	if _, err := WritePart(path, base, PartInfo{Lo: 1, Hi: 5}); err != nil {
		t.Fatal(err)
	}
	more := []Edge{randEdge(rng), longEncEdge(400)}
	if _, err := AppendPart(path, [][]Edge{more}, PartInfo{}, nil); err != nil {
		t.Fatal(err)
	}
	got, info, _, err := ReadPart(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info != (PartInfo{Lo: 1, Hi: 5}) {
		t.Fatalf("append clobbered header info: %+v", info)
	}
	want := append(append([]Edge{}, base...), more...)
	if len(got) != len(want) {
		t.Fatalf("got %d edges want %d", len(got), len(want))
	}
	for i := range want {
		if !edgesEqual(got[i], want[i]) {
			t.Fatalf("edge %d mismatch", i)
		}
	}
}

// bareV1Stream is what a pre-v2 writer produced: records back to back — src,
// dst, label, gen, flags, a one-byte encoding length, elements — with no
// magic, framing or checksum. Built by hand: no v1 encoder is kept.
func bareV1Stream() []byte {
	var b []byte
	for i := byte(0); i < 3; i++ {
		b = append(b,
			7+i, 0, 0, 0, // src
			9+i, 0, 0, 0, // dst
			3, 0, // label
			i, 0, 0, 0, // gen
			0,                   // flags: no rel
			1,                   // encoding length
			byte(cfet.KCall), 5) // one call element
	}
	return b
}

// frameEnds returns the offsets at which the frames of the log raw end.
func frameEnds(raw []byte) []int {
	var ends []int
	for off := journalHeaderSize; off+4 <= len(raw); {
		off += 8 + int(binary.LittleEndian.Uint32(raw[off:]))
		ends = append(ends, off)
	}
	return ends
}

// TestCorruptionMatrix holds the partition readers to the log's one damage
// rule, class by class, on a file of three frames (100, 50 and 50 edges):
// damage that could be a torn append reads as the frames before it, and
// any other is rejected with a diagnosable error (wrapped ErrCorrupt) —
// never misparsed, never a panic, never zero values. A shorter read is the
// engine's to reject (TestPartitionFileShortOfCountIsCorrupt).
func TestCorruptionMatrix(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(42))
	var edges []Edge
	for i := 0; i < 200; i++ {
		edges = append(edges, randEdge(rng))
	}
	pristine := filepath.Join(dir, "pristine.edges")
	if _, err := WritePart(pristine, edges[:100], PartInfo{Lo: 0, Hi: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	for _, more := range [][]Edge{edges[100:150], edges[150:]} {
		if _, err := AppendPart(pristine, [][]Edge{more}, PartInfo{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	good, err := os.ReadFile(pristine)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(good)
	if len(ends) != 3 || ends[2] != len(good) {
		t.Fatalf("frame ends %v in a file of %d bytes", ends, len(good))
	}
	flip := func(b []byte, off int, bit byte) []byte {
		c := append([]byte{}, b...)
		c[off] ^= bit
		return c
	}

	// want is how many edges ReadPart returns, -1 for ErrCorrupt. A case with
	// header set leaves no valid v3 header: besides ReadPart, ReadPartPrefix
	// and AppendPart must reject it too, and the append must not touch the
	// file.
	cases := []struct {
		name   string
		want   int
		header bool
		mutate func([]byte) []byte
	}{
		{"truncated mid-block", 100, false, func(b []byte) []byte { return b[:(ends[0]+ends[1])/2] }},
		{"torn final frame", 150, false, func(b []byte) []byte { return b[:len(b)-1] }},
		{"cut at a frame boundary", 150, false, func(b []byte) []byte { return b[:ends[1]] }},
		{"short header", -1, true, func(b []byte) []byte { return b[:journalHeaderSize-4] }},
		{"stale version byte", -1, true, func(b []byte) []byte {
			// A v2 file's version under the same magic: refused, never misread.
			c := append([]byte{}, b...)
			binary.LittleEndian.PutUint16(c[4:], 2)
			binary.LittleEndian.PutUint32(c[14:], crcOf(c[:14]))
			return c
		}},
		{"header bit flip", -1, true, func(b []byte) []byte { return flip(b, 9, 0x40) }}, // inside the interval
		{"magic bit flip", -1, true, func(b []byte) []byte { return flip(b, 0, 0x01) }},
		{"truncated to 3 bytes", -1, true, func(b []byte) []byte { return b[:3] }},
		{"zero-length file", -1, true, func(b []byte) []byte { return nil }},
		{"bare v1 record stream", -1, true, func([]byte) []byte { return bareV1Stream() }},
		{"block payload bit flip", -1, false, func(b []byte) []byte { return flip(b, journalHeaderSize+10, 0x01) }},
		{"rel payload bit flip", -1, false, func(b []byte) []byte {
			// A flip in any frame but the last must be caught by the frame CRC
			// — this is the class that used to silently flip verdicts via a
			// zero/garbled Rel.
			return flip(b, ends[1]-7, 0x80)
		}},
		{"last frame bit flip", 150, false, func(b []byte) []byte { return flip(b, ends[1]+10, 0x01) }},
		{"frame count lie", -1, false, func(b []byte) []byte {
			// The first frame's record count, checksummed again: the CRC
			// holds, the block does not decode.
			c := append([]byte{}, b...)
			off := journalHeaderSize
			c[off+4]--
			return append(sealFrame(c[:ends[0]-4], off), c[ends[0]:]...)
		}},
		{"trailing garbage", 200, false, func(b []byte) []byte { return append(append([]byte{}, b...), 0xAB) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, "corrupt.edges")
			bad := tc.mutate(append([]byte{}, good...))
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			got, _, _, err := ReadPart(path, nil)
			switch {
			case tc.want < 0 && !errors.Is(err, ErrCorrupt):
				t.Fatalf("damage not reported as ErrCorrupt: %d edges, %v", len(got), err)
			case tc.want >= 0 && (err != nil || len(got) != tc.want):
				t.Fatalf("read %d edges (%v), want the first %d", len(got), err, tc.want)
			}
			for i := range got {
				if !edgesEqual(got[i], edges[i]) {
					t.Fatalf("edge %d misread", i)
				}
			}
			// The block-by-block reader verifies what ReadPart verifies, and
			// visits whole verified frames only.
			visited := 0
			_, verr := VisitPart(path, func(*Edge) bool { visited++; return true })
			if (verr == nil) != (err == nil) || verr != nil && !errors.Is(verr, ErrCorrupt) {
				t.Fatalf("VisitPart: %v, ReadPart: %v", verr, err)
			}
			if visited != 0 && visited != 100 && visited != 150 && visited != 200 {
				t.Fatalf("VisitPart visited %d edges: not whole frames", visited)
			}
			if !tc.header {
				return
			}
			if _, _, _, err := ReadPartPrefix(path, 0); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("ReadPartPrefix: %v", err)
			}
			if _, err := AppendPart(path, [][]Edge{edges[:1]}, PartInfo{}, nil); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("AppendPart: %v", err)
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, bad) {
				t.Fatalf("rejected append changed the file (%d -> %d bytes, %v)", len(bad), len(after), err)
			}
		})
	}

	// An append after a torn frame puts a valid frame behind a bad one: the
	// file is damaged, and reads say so instead of skipping the torn frame.
	// (Resume truncates a torn frame before anything is appended.)
	t.Run("append to corrupt file", func(t *testing.T) {
		path := filepath.Join(dir, "corrupt-append.edges")
		if err := os.WriteFile(path, good[:len(good)-3], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := AppendPart(path, [][]Edge{edges[:1]}, PartInfo{}, nil); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := ReadPart(path, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("a torn frame followed by an append: %v", err)
		}
	})
}

func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

func TestWritePartReplacesStaleTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.edges")
	// A stale temp file from a crashed writer must not break the next write.
	if err := os.WriteFile(path+".tmp", []byte("stale garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := randEdge(rand.New(rand.NewSource(3)))
	if _, err := WritePart(path, []Edge{e}, PartInfo{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file survived a successful write")
	}
	got, _, _, err := ReadPart(path, nil)
	if err != nil || len(got) != 1 {
		t.Fatalf("read back: %v %v", got, err)
	}
}

func TestWritePartCleansTempOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.edges")
	// Make the rename fail: the destination is a non-empty directory.
	if err := os.MkdirAll(filepath.Join(path, "block"), 0o755); err != nil {
		t.Fatal(err)
	}
	e := randEdge(rand.New(rand.NewSource(4)))
	if _, err := WritePart(path, []Edge{e}, PartInfo{}); err == nil {
		t.Fatal("WritePart over a directory succeeded")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file not cleaned up after failed write")
	}
}

func TestReadMissingFileIsEmpty(t *testing.T) {
	got, _, _, err := ReadPart(filepath.Join(t.TempDir(), "nope.edges"), nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("missing file: %v %v", got, err)
	}
	if n, err := VisitPart(filepath.Join(t.TempDir(), "nope.edges"), func(*Edge) bool {
		t.Fatal("visited an edge of a missing file")
		return true
	}); err != nil || n != 0 {
		t.Fatalf("VisitPart of a missing file: %d bytes, %v", n, err)
	}
}

// TestVisitPart holds the block-by-block reader to ReadPart on a file of
// several blocks: the same edges in the same order, each complete while it is
// being visited although the block buffer is reused; a visit that returns
// false ends the scan there, without an error; and damage in a later block is
// reported even though the blocks before it were visited — the caller's cue to
// discard what it gathered.
func TestVisitPart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.edges")
	rng := rand.New(rand.NewSource(7))
	var want []Edge
	for i := 0; i < 30000; i++ {
		want = append(want, randEdge(rng))
	}
	size, err := WritePart(path, want, PartInfo{Lo: 1, Hi: 2})
	if err != nil {
		t.Fatal(err)
	}
	if size < 3*targetBlockSize {
		t.Fatalf("file of %d bytes is not several blocks", size)
	}
	var first *Edge
	n := 0
	read, err := VisitPart(path, func(e *Edge) bool {
		if n == 0 {
			first = e
		}
		if !edgesEqual(*e, want[n]) {
			t.Fatalf("edge %d: visited %+v, ReadPart order has %+v", n, *e, want[n])
		}
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) || read != size {
		t.Fatalf("visited %d edges of %d, read %d bytes of %d", n, len(want), read, size)
	}
	if edgesEqual(*first, want[0]) {
		t.Fatal("the first block's buffer was not reused: the visit holds more than a block")
	}

	n = 0
	if _, err := VisitPart(path, func(*Edge) bool { n++; return n < 10000 }); err != nil || n != 10000 {
		t.Fatalf("stopped visit: %d edges visited, err %v; want 10000 and none", n, err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(raw)
	raw[ends[len(ends)-2]-7] ^= 0x80 // inside the last block but one
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	n = 0
	_, err = VisitPart(path, func(*Edge) bool { n++; return true })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damaged block before the last: %v", err)
	}
	if n == 0 || n >= len(want) {
		t.Fatalf("visited %d of %d edges before the damaged block", n, len(want))
	}
}

func TestEndpointTriple(t *testing.T) {
	e := Edge{Src: 4, Dst: 5, Label: 6}
	if e.Endpoint() != (Endpoint{Src: 4, Dst: 5, Label: 6}) {
		t.Fatal("endpoint mismatch")
	}
}

// TestRecordSizeMatchesSerialization: the arithmetic size equals the length
// of the v2 record actually written, including at every uvarint width
// boundary and for negative method/call IDs (which serialize as 10 bytes).
func TestRecordSizeMatchesSerialization(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	edges := []Edge{{}, {HasRel: true}}
	for i := 0; i < 500; i++ {
		edges = append(edges, randEdge(rng))
	}
	for shift := uint(0); shift < 64; shift++ {
		for _, v := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1} {
			edges = append(edges, Edge{Enc: cfet.Enc{
				cfet.Interval(cfet.MethodID(v), v, ^v),
				cfet.CallElem(int32(v)),
				cfet.RetElem(-int32(v)),
			}})
		}
	}
	long := Edge{Enc: make(cfet.Enc, 200)}
	edges = append(edges, long)
	for i := range edges {
		if got, want := RecordSize(&edges[i]), int64(len(appendRecordV2(nil, &edges[i]))); got != want {
			t.Fatalf("edge %d (%+v): RecordSize %d, serialized %d bytes", i, edges[i], got, want)
		}
	}
}
