package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
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

func mustAppendRecord(t *testing.T, dst []byte, e *Edge) []byte {
	t.Helper()
	out, err := AppendRecord(dst, e)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRecordRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var buf []byte
		var want []Edge
		for i := 0; i < 10; i++ {
			e := randEdge(rng)
			want = append(want, e)
			var err error
			buf, err = AppendRecord(buf, &e)
			if err != nil {
				return false
			}
		}
		r := bufio.NewReader(bytes.NewReader(buf))
		for _, w := range want {
			var got Edge
			if err := ReadRecord(r, &got); err != nil {
				return false
			}
			if !edgesEqual(got, w) {
				return false
			}
		}
		var trailing Edge
		return ReadRecord(r, &trailing) == io.EOF
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
			if err := decodeRecord(r, &got, true); err != nil {
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

func TestTruncatedRecord(t *testing.T) {
	e := randEdge(rand.New(rand.NewSource(1)))
	buf := mustAppendRecord(t, nil, &e)
	for cut := 1; cut < len(buf); cut++ {
		r := bufio.NewReader(bytes.NewReader(buf[:cut]))
		var got Edge
		if err := ReadRecord(r, &got); err == nil {
			t.Fatalf("cut=%d: no error", cut)
		}
	}
}

// longEncEdge builds an edge whose path encoding exceeds the legacy v1
// single-byte length field.
func longEncEdge(n int) Edge {
	e := Edge{Src: 7, Dst: 9, Label: 3}
	for i := 0; i < n; i++ {
		e.Enc = append(e.Enc, cfet.CallElem(int32(i)))
	}
	return e
}

func TestAppendRecordLongEncodingErrors(t *testing.T) {
	// Regression: this used to panic ("storage: encoding too long").
	e := longEncEdge(300)
	if _, err := AppendRecord(nil, &e); err == nil {
		t.Fatal("v1 AppendRecord accepted a 300-element encoding")
	}
	// Exactly 255 still fits.
	ok := longEncEdge(255)
	if _, err := AppendRecord(nil, &ok); err != nil {
		t.Fatalf("255-element encoding rejected: %v", err)
	}
}

func TestLongEncodingRoundTripsInV2(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "long.edges")
	want := []Edge{longEncEdge(300), longEncEdge(1000)}
	if _, err := WritePart(path, want, PartInfo{}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path, nil)
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
	if err := WriteFile(path, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path, nil)
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
	if err := AppendFile(path, a); err != nil {
		t.Fatal(err)
	}
	if err := AppendFile(path, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d edges", len(got))
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
	if _, err := AppendPart(path, more); err != nil {
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

// TestLegacyV1ReadBack writes a bare v1 record stream (the pre-v2 format)
// and checks both ReadPart's transparent fallback and legacy append.
func TestLegacyV1ReadBack(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "legacy.edges")
	rng := rand.New(rand.NewSource(11))
	var want []Edge
	var buf []byte
	for i := 0; i < 50; i++ {
		e := randEdge(rng)
		want = append(want, e)
		buf = mustAppendRecord(t, buf, &e)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	got, info, _, err := ReadPart(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.known() {
		t.Fatalf("legacy file reported interval %+v", info)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d edges want %d", len(got), len(want))
	}
	for i := range want {
		if !edgesEqual(got[i], want[i]) {
			t.Fatalf("edge %d mismatch", i)
		}
	}
	// Appending to a legacy file stays in the legacy format and read-back
	// still sees one coherent stream.
	extra := randEdge(rng)
	if err := AppendFile(path, []Edge{extra}); err != nil {
		t.Fatal(err)
	}
	got, err = ReadFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want)+1 || !edgesEqual(got[len(got)-1], extra) {
		t.Fatalf("legacy append mismatch: %d edges", len(got))
	}
}

func TestLegacyAppendRejectsLongEncoding(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "legacy.edges")
	e := randEdge(rand.New(rand.NewSource(12)))
	buf := mustAppendRecord(t, nil, &e)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AppendFile(path, []Edge{longEncEdge(300)}); err == nil {
		t.Fatal("legacy append accepted an encoding v1 cannot represent")
	}
}

// TestCorruptionMatrix checks that every corruption class is rejected with
// a diagnosable error (wrapped ErrCorrupt) instead of being misparsed,
// panicking, or silently decoding zero values.
func TestCorruptionMatrix(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(42))
	var edges []Edge
	for i := 0; i < 200; i++ {
		edges = append(edges, randEdge(rng))
	}
	pristine := filepath.Join(dir, "pristine.edges")
	if _, err := WritePart(pristine, edges, PartInfo{Lo: 0, Hi: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(pristine)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated mid-block", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated trailer", func(b []byte) []byte { return b[:len(b)-1] }},
		{"missing trailer", func(b []byte) []byte { return b[:len(b)-trailerSize] }},
		{"short header", func(b []byte) []byte { return b[:headerSize-4] }},
		{"stale version byte", func(b []byte) []byte {
			c := append([]byte{}, b...)
			binary.LittleEndian.PutUint16(c[4:], 1) // claim format v1 under the v2 magic
			binary.LittleEndian.PutUint32(c[20:], crcOf(c[:20]))
			return c
		}},
		{"header bit flip", func(b []byte) []byte {
			c := append([]byte{}, b...)
			c[9] ^= 0x40 // inside lo, covered by the header CRC
			return c
		}},
		{"block payload bit flip", func(b []byte) []byte {
			c := append([]byte{}, b...)
			c[headerSize+blockHeaderSize+10] ^= 0x01
			return c
		}},
		{"rel payload bit flip", func(b []byte) []byte {
			// Any in-block flip must be caught by the block CRC — this is the
			// class that used to silently flip verdicts via a zero/garbled Rel.
			c := append([]byte{}, b...)
			c[len(c)-trailerSize-3] ^= 0x80
			return c
		}},
		{"trailer count lie", func(b []byte) []byte {
			c := append([]byte{}, b...)
			off := len(c) - trailerSize
			binary.LittleEndian.PutUint64(c[off+4:], 9999)
			binary.LittleEndian.PutUint32(c[off+16:], crcOf(c[off:off+16]))
			return c
		}},
		{"trailing garbage", func(b []byte) []byte { return append(append([]byte{}, b...), 0xAB) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, "corrupt.edges")
			if err := os.WriteFile(path, tc.mutate(append([]byte{}, good...)), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, _, err := ReadPart(path, nil)
			if err == nil {
				t.Fatal("corrupted file accepted")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error not tagged ErrCorrupt: %v", err)
			}
		})
	}

	t.Run("append to corrupt file", func(t *testing.T) {
		path := filepath.Join(dir, "corrupt-append.edges")
		if err := os.WriteFile(path, good[:len(good)-3], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := AppendPart(path, edges[:1]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("append to torn file: %v", err)
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
	got, err := ReadFile(path, nil)
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
	got, err := ReadFile(filepath.Join(t.TempDir(), "nope.edges"), nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("missing file: %v %v", got, err)
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
