package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/raceflag"
)

// decodeV2Seeds builds the canonical v2 record corpus shared by
// FuzzDecodeRecordV2 and the decode-equivalence property test: valid
// single records, a long encoding whose length takes two uvarint bytes, and
// a few malformed byte strings.
func decodeV2Seeds() [][]byte {
	rng := rand.New(rand.NewSource(4))
	var seeds [][]byte
	for i := 0; i < 8; i++ {
		e := randEdge(rng)
		seeds = append(seeds, appendRecordV2(nil, &e))
	}
	long := longEncEdge(300)
	seeds = append(seeds, appendRecordV2(nil, &long))
	seeds = append(seeds,
		[]byte{},
		[]byte{0x01},
		bytes.Repeat([]byte{0xff}, 64),
	)
	return seeds
}

// crossCheckDecoders runs the zero-copy cursor and the reference stream decoder
// over the same payload and fails if they diverge in any observable way:
// decoded edges, error class (both must wrap ErrCorrupt on failure, since a
// v2 payload has no clean record boundary), and bytes consumed on success.
func crossCheckDecoders(t *testing.T, payload []byte) {
	t.Helper()
	var cur blockCursor
	cur.reset(payload)
	r := bytes.NewReader(payload)
	for rec := 0; ; rec++ {
		var ce, se Edge
		cerr := cur.decodeRecord(&ce)
		serr := decodeRecord(r, &se)
		if (cerr == nil) != (serr == nil) {
			t.Fatalf("record %d: cursor err %v, stream err %v", rec, cerr, serr)
		}
		if cerr != nil {
			if !errors.Is(cerr, ErrCorrupt) {
				t.Fatalf("record %d: cursor error not ErrCorrupt: %v", rec, cerr)
			}
			if !errors.Is(serr, ErrCorrupt) {
				t.Fatalf("record %d: stream error not ErrCorrupt: %v", rec, serr)
			}
			return
		}
		if !edgesEqual(ce, se) {
			t.Fatalf("record %d: cursor decoded %+v, stream decoded %+v", rec, ce, se)
		}
		if cur.remaining() != r.Len() {
			t.Fatalf("record %d: cursor consumed to %d remaining, stream to %d",
				rec, cur.remaining(), r.Len())
		}
		if cur.remaining() == 0 {
			return
		}
	}
}

// TestDecodeCursorEquivalence is the decode-equivalence property test: over
// the fuzz seed corpus and random multi-record payloads, the zero-copy
// cursor must be observably identical to the stream decoder.
func TestDecodeCursorEquivalence(t *testing.T) {
	for _, seed := range decodeV2Seeds() {
		crossCheckDecoders(t, seed)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		var payload []byte
		for i := 0; i < 1+rng.Intn(8); i++ {
			e := randEdge(rng)
			payload = appendRecordV2(payload, &e)
		}
		crossCheckDecoders(t, payload)
		// Mutated copies must fail (or succeed) identically in both decoders.
		mut := append([]byte{}, payload...)
		mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		crossCheckDecoders(t, mut)
	}
}

// TestDecodeRecordV2TruncationIsCorrupt cuts a v2 record at every byte
// boundary: both decoders must reject every prefix with an error wrapping
// ErrCorrupt — never a bare io.EOF, which inside a CRC- and count-delimited
// block would misreport corruption as a clean boundary.
func TestDecodeRecordV2TruncationIsCorrupt(t *testing.T) {
	e := randEdge(rand.New(rand.NewSource(7)))
	if len(e.Enc) == 0 {
		e.Enc = longEncEdge(4).Enc
	}
	e.HasRel = true
	rec := appendRecordV2(nil, &e)
	for cut := 0; cut < len(rec); cut++ {
		prefix := rec[:cut]

		var cur blockCursor
		cur.reset(prefix)
		var ce Edge
		cerr := cur.decodeRecord(&ce)
		if cerr == nil {
			t.Fatalf("cut=%d: cursor accepted a truncated record", cut)
		}
		if !errors.Is(cerr, ErrCorrupt) {
			t.Fatalf("cut=%d: cursor error not ErrCorrupt: %v", cut, cerr)
		}

		var se Edge
		serr := decodeRecord(bytes.NewReader(prefix), &se)
		if serr == nil {
			t.Fatalf("cut=%d: stream decoder accepted a truncated record", cut)
		}
		if !errors.Is(serr, ErrCorrupt) {
			t.Fatalf("cut=%d: stream error not ErrCorrupt: %v", cut, serr)
		}
	}
}

// TestReadPartWithModesAgree reads the same file through both decoders under
// the one block scan and requires identical edges, PartInfo, and byte counts
// — the whole-file form of the equivalence property, covering the slack
// checks.
func TestReadPartWithModesAgree(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(21))
	var edges []Edge
	for i := 0; i < 500; i++ {
		edges = append(edges, randEdge(rng))
	}
	path := filepath.Join(dir, "p.edges")
	if _, err := WritePart(path, edges, PartInfo{Lo: 5, Hi: 4096}); err != nil {
		t.Fatal(err)
	}
	fast, fi, fn, err := ReadPart(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	slow, si, sn, err := readPartStream(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fi != si || fn != sn {
		t.Fatalf("info/bytes diverge: %+v/%d vs %+v/%d", fi, fn, si, sn)
	}
	if len(fast) != len(slow) || len(fast) != len(edges) {
		t.Fatalf("edge counts diverge: %d vs %d (want %d)", len(fast), len(slow), len(edges))
	}
	for i := range fast {
		if !edgesEqual(fast[i], slow[i]) {
			t.Fatalf("edge %d diverges: %+v vs %+v", i, fast[i], slow[i])
		}
		if !edgesEqual(fast[i], edges[i]) {
			t.Fatalf("edge %d lost in round trip: %+v", i, fast[i])
		}
	}
}

// TestCursorArenaIsolation guards the arena's capped-subslice invariant: an
// append to one decoded encoding must never clobber a later record's
// elements, even though both live in the same arena chunk.
func TestCursorArenaIsolation(t *testing.T) {
	a := longEncEdge(3)
	b := longEncEdge(5)
	b.Src = 1000
	payload := appendRecordV2(appendRecordV2(nil, &a), &b)
	var cur blockCursor
	cur.reset(payload)
	var da, db Edge
	if err := cur.decodeRecord(&da); err != nil {
		t.Fatal(err)
	}
	if err := cur.decodeRecord(&db); err != nil {
		t.Fatal(err)
	}
	wantEnc := append(cfet.Enc(nil), db.Enc...)
	// Appending through the first edge's encoding must copy, not spill into
	// the second edge's arena region.
	_ = append(da.Enc, da.Enc[0])
	if !db.Enc.Equal(wantEnc) {
		t.Fatalf("append through record 1 corrupted record 2: %+v", db.Enc)
	}
}

// partReader is ReadPart's shape; decodeModes pairs the production reader
// with the stream-decoder oracle under the same block scan.
type partReader func(path string, dst []Edge) ([]Edge, PartInfo, int64, error)

var decodeModes = []struct {
	name string
	read partReader
}{
	{"zero-copy", ReadPart},
	{"legacy", readPartStream},
}

// allocBudgetFile writes a part file of enc-carrying records and returns its
// path and record count, shared by the alloc test and the decode benchmark.
func allocBudgetFile(tb testing.TB, n int) string {
	tb.Helper()
	rng := rand.New(rand.NewSource(77))
	edges := make([]Edge, 0, n)
	for i := 0; i < n; i++ {
		e := randEdge(rng)
		if len(e.Enc) == 0 { // keep the workload on the enc-decoding path
			e.Enc = longEncEdge(1 + i%4).Enc
		}
		edges = append(edges, e)
	}
	path := filepath.Join(tb.TempDir(), "alloc.edges")
	if _, err := WritePart(path, edges, PartInfo{Lo: 0, Hi: 1 << 30}); err != nil {
		tb.Fatal(err)
	}
	return path
}

// TestDecodeAllocBudget is the regression gate on the zero-copy read path:
// decoding must stay near zero allocations per record (the arena amortizes
// one slice allocation over thousands of elements), and well under the
// stream-decoder oracle's one-allocation-per-encoding floor. `make ci` runs this
// via the alloc-budget target.
func TestDecodeAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	const n = 2000
	path := allocBudgetFile(t, n)
	perRecord := func(read partReader) float64 {
		dst := make([]Edge, 0, n)
		allocs := testing.AllocsPerRun(5, func() {
			var err error
			dst, _, _, err = read(path, dst[:0])
			if err != nil {
				t.Fatal(err)
			}
		})
		return allocs / n
	}
	fast := perRecord(ReadPart)
	slow := perRecord(readPartStream)
	t.Logf("allocs/record: zero-copy %.4f, stream oracle %.4f", fast, slow)
	if fast > 0.05 {
		t.Fatalf("zero-copy decode allocates %.4f/record, budget is 0.05", fast)
	}
	if slow > 0 && fast > 0.5*slow {
		t.Fatalf("zero-copy (%.4f/record) not under half of the stream oracle (%.4f/record)", fast, slow)
	}
}

// BenchmarkDecodeRecord reports ns/record and allocs/record for both
// decoders over a realistic enc-carrying partition file.
func BenchmarkDecodeRecord(b *testing.B) {
	const n = 5000
	path := allocBudgetFile(b, n)
	for _, mode := range decodeModes {
		b.Run(mode.name, func(b *testing.B) {
			dst := make([]Edge, 0, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				dst, _, _, err = mode.read(path, dst[:0])
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/record")
			runtime.KeepAlive(dst)
		})
	}
}

// TestCorruptionMatrixMidRecordTruncation extends the corruption matrix with
// the one class only the record decoder can catch: a frame whose block was
// cut mid-record but whose length, count and CRC were rewritten to be
// self-consistent. The frame CRC verifies, so rejection has to come from the
// decode loop — with either decoder, tagged ErrCorrupt, although the frame
// is the file's last.
func TestCorruptionMatrixMidRecordTruncation(t *testing.T) {
	dir := t.TempDir()
	e := longEncEdge(6)
	e.HasRel = true
	edges := []Edge{longEncEdge(2), e}
	pristine := filepath.Join(dir, "pristine.edges")
	if _, err := WritePart(pristine, edges, PartInfo{Lo: 0, Hi: 64}); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(pristine)
	if err != nil {
		t.Fatal(err)
	}
	// One frame: header | rlen | count (one byte) | records | crc.
	records := good[journalHeaderSize+5 : len(good)-4]
	firstLen := len(appendRecordV2(nil, &edges[0]))
	// Cut mid-way through the second record, keep count=2, and reseal the
	// frame so only the record decoder notices.
	cut := records[:firstLen+(len(records)-firstLen)/2]
	mut := append(append([]byte{}, good[:journalHeaderSize+5]...), cut...)
	mut = sealFrame(mut, journalHeaderSize)

	path := filepath.Join(dir, "midcut.edges")
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range decodeModes {
		t.Run(mode.name, func(t *testing.T) {
			_, _, _, err := mode.read(path, nil)
			if err == nil {
				t.Fatal("mid-record truncation with consistent CRC accepted")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error not tagged ErrCorrupt: %v", err)
			}
		})
	}
}

// TestReadPartPrefixCursorEquivalence is the decoder-equivalence test for
// the resume-path prefix reader, which decodes through the zero-copy cursor:
// on pristine files, files with a post-checkpoint suffix, and files
// truncated at every byte of the appended frame, its recovered prefix must be
// byte-identical to what the stream decoder reconstructs (readPartStream)
// from the intact original.
func TestReadPartPrefixCursorEquivalence(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(77))
	var edges []Edge
	for i := 0; i < 64; i++ {
		edges = append(edges, randEdge(rng))
	}
	edges = append(edges, longEncEdge(300)) // forces the arena down its big-chunk path
	path := filepath.Join(dir, "p.edges")
	size, err := WritePart(path, edges[:48], PartInfo{Lo: 3, Hi: 17})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AppendPart(path, [][]Edge{edges[48:]}, PartInfo{}, nil); err != nil {
		t.Fatal(err)
	}
	want, _, _, err := readPartStream(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, n int64) {
		t.Helper()
		got, _, _, err := ReadPartPrefix(path, n)
		if err != nil {
			t.Fatalf("%s: prefix %d: %v", label, n, err)
		}
		if int64(len(got)) != n {
			t.Fatalf("%s: prefix %d returned %d edges", label, n, len(got))
		}
		for i := range got {
			if !edgesEqual(got[i], want[i]) {
				t.Fatalf("%s: prefix %d edge %d diverges from stream decode", label, n, i)
			}
		}
	}
	for _, n := range []int64{0, 48, int64(len(edges))} {
		check("intact", n)
	}
	// Torn tails: cut the file anywhere inside the appended region; the
	// checkpointed 48-edge prefix must survive with identical content.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(raw) - 1; cut > int(size); cut-- {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		check("torn", 48)
	}
}
