package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzDecodeRecordV2 exercises both record decoders — the reference stream
// form and the zero-copy block cursor — on arbitrary bytes, requiring them
// to agree byte for byte. Seeds come from decodeV2Seeds, shared with the
// decode-equivalence property test. Run with:
// go test -fuzz=FuzzDecodeRecordV2 ./internal/storage
func FuzzDecodeRecordV2(f *testing.F) {
	for _, seed := range decodeV2Seeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var cur blockCursor
		cur.reset(data)
		for i := 0; i < 4; i++ {
			var e, ce Edge
			err := decodeRecord(r, &e)
			cerr := cur.decodeRecord(&ce)
			if (err == nil) != (cerr == nil) {
				t.Fatalf("decoders diverge: stream %v, cursor %v", err, cerr)
			}
			if err != nil {
				// Inside a v2 block every failure is corruption for both.
				if !errors.Is(err, ErrCorrupt) || !errors.Is(cerr, ErrCorrupt) {
					t.Fatalf("untagged decode failure: stream %v, cursor %v", err, cerr)
				}
				return
			}
			if !edgesEqual(e, ce) || cur.remaining() != r.Len() {
				t.Fatalf("decoders diverge on success: %+v vs %+v (%d vs %d left)",
					e, ce, r.Len(), cur.remaining())
			}
			// Round-trip: a decoded record must re-encode to a decodable form.
			back := appendRecordV2(nil, &e)
			var e2 Edge
			if err := decodeRecord(bytes.NewReader(back), &e2); err != nil {
				t.Fatalf("re-encoded record failed to decode: %v", err)
			}
			if !edgesEqual(e, e2) {
				t.Fatal("re-encode round trip mismatch")
			}
		}
	})
}

// v2File is what the v2 writer produced for edges: a 24-byte header (magic,
// version 2, header size, interval, reserved word, CRC), one block (payload
// length, record count, CRC, records) and a trailer committing the counts.
// Built by hand: no v2 encoder is kept.
func v2File(edges []Edge, lo, hi uint32) []byte {
	le := binary.LittleEndian
	b := le.AppendUint16([]byte("GPLP"), 2)
	b = le.AppendUint16(b, 24)
	b = le.AppendUint32(le.AppendUint32(b, lo), hi)
	b = le.AppendUint32(b, 0)
	b = le.AppendUint32(b, crc32.ChecksumIEEE(b))
	var recs []byte
	for i := range edges {
		recs = appendRecordV2(recs, &edges[i])
	}
	b = le.AppendUint32(le.AppendUint32(b, uint32(len(recs))), uint32(len(edges)))
	b = append(le.AppendUint32(b, crc32.ChecksumIEEE(recs)), recs...)
	tr := le.AppendUint32(le.AppendUint64([]byte("GPLT"), uint64(len(edges))), 1)
	return append(b, le.AppendUint32(tr, crc32.ChecksumIEEE(tr))...)
}

// FuzzReadPart exercises the partition readers — header, frame CRCs, the one
// damage rule, block decoding — on arbitrary file contents, seeded with v3
// files (clean, torn tail, appended past a prefix, a bad frame before a good
// one) and with the v1 and v2 formats, which must be refused. Every input
// must be rejected (ErrCorrupt) or decoded without panicking, and ReadPart,
// VisitPart and the resume path's prefix read give one answer: the same
// verdict and the same edges, the prefix read of all of them ending where
// ReadPart's valid frames do, so that the file cut there reads back the same
// and WritePart reproduces it. Run with:
// go test -fuzz=FuzzReadPart ./internal/storage
func FuzzReadPart(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	dir := f.TempDir()
	seed := filepath.Join(dir, "seed.edges")
	var edges []Edge
	for i := 0; i < 20; i++ {
		edges = append(edges, randEdge(rng))
	}
	if _, err := WritePart(seed, edges[:12], PartInfo{Lo: 3, Hi: 99}); err != nil {
		f.Fatal(err)
	}
	if _, err := AppendPart(seed, [][]Edge{edges[12:]}, PartInfo{}, nil); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)                   // clean, and appended past a 12-edge prefix
	f.Add(good[:len(good)-5])     // torn tail
	badFirst := bytes.Clone(good) // a bad frame before a good one
	badFirst[journalHeaderSize+9] ^= 0x10
	f.Add(badFirst)
	v1, v2 := bareV1Stream(), v2File(edges, 3, 99)
	f.Add(v1) // the retired formats: must be rejected, see below
	f.Add(v2)
	f.Add([]byte{})
	f.Add([]byte("GPLP"))
	f.Add(bytes.Repeat([]byte{0x00}, journalHeaderSize+8))
	sameEdges := func(t *testing.T, what string, got, want []Edge) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d edges, want %d", what, len(got), len(want))
		}
		for i := range want {
			if !edgesEqual(got[i], want[i]) {
				t.Fatalf("%s: edge %d differs: %+v vs %+v", what, i, got[i], want[i])
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.edges")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		got, info, valid, rerr := ReadPart(path, nil)
		if rerr != nil && !errors.Is(rerr, ErrCorrupt) {
			t.Fatalf("rejection not tagged ErrCorrupt: %v", rerr)
		}
		if rerr == nil && (bytes.Equal(data, v1) || bytes.Equal(data, v2)) {
			t.Fatal("a retired format accepted")
		}
		// The block-by-block reader accepts exactly what ReadPart accepts, and
		// visits its edges in its order.
		var visited []Edge
		_, verr := VisitPart(path, func(e *Edge) bool {
			c := *e
			c.Enc = e.Enc.Clone()
			visited = append(visited, c)
			return true
		})
		if (verr == nil) != (rerr == nil) || verr != nil && !errors.Is(verr, ErrCorrupt) {
			t.Fatalf("VisitPart: %v, ReadPart: %v", verr, rerr)
		}
		prefix, pinfo, end, perr := ReadPartPrefix(path, int64(len(got)))
		if (perr == nil) != (rerr == nil) {
			t.Fatalf("ReadPartPrefix(%d): %v, ReadPart: %v", len(got), perr, rerr)
		}
		if rerr != nil {
			return
		}
		sameEdges(t, "visit", visited, got)
		sameEdges(t, "prefix", prefix, got)
		if pinfo != info || end != valid {
			t.Fatalf("prefix read: info %+v up to byte %d, ReadPart: %+v up to %d", pinfo, end, info, valid)
		}
		if err := os.Truncate(path, end); err != nil {
			t.Fatal(err)
		}
		cut, cinfo, _, err := ReadPart(path, nil)
		if err != nil || cinfo != info {
			t.Fatalf("cut file: info %+v/%+v err=%v", cinfo, info, err)
		}
		sameEdges(t, "cut", cut, got)
		again := filepath.Join(dir, "again.edges")
		if _, err := WritePart(again, got, info); err != nil {
			t.Fatal(err)
		}
		back, binfo, _, err := ReadPart(again, nil)
		if err != nil || binfo != info {
			t.Fatalf("rewritten file: info %+v/%+v err=%v", binfo, info, err)
		}
		sameEdges(t, "rewrite", back, got)
	})
}

// FuzzReadJournal exercises the durable-log reader on arbitrary file
// contents, seeded with an engine journal and a batch log: reading must
// never panic, any damage but a torn final frame must wrap ErrCorrupt, and
// what survives is whole — cutting the file to validLen, as OpenJournal
// does, reads back the same records and nothing torn. Run with:
// go test -fuzz=FuzzReadJournal ./internal/storage
func FuzzReadJournal(f *testing.F) {
	log := func(tag uint64, recs ...any) []byte {
		path := filepath.Join(f.TempDir(), "j")
		w, err := CreateJournal(path, tag, nil)
		if err != nil {
			f.Fatal(err)
		}
		for _, rec := range recs {
			if _, err := w.Append(rec); err != nil {
				f.Fatal(err)
			}
		}
		w.Close()
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	var checkpoints []any
	for seq := 0; seq < 3; seq++ {
		checkpoints = append(checkpoints, map[string]any{
			"Seq": seq, "Completed": seq == 2, "Iterations": seq, "CurGen": seq,
			"HotA": -1, "HotB": -1,
			"Parts":   []any{map[string]any{"ID": 0, "Lo": 0, "Hi": 32, "Edges": 10, "MaxGen": 1, "Path": "part-0.edges"}},
			"LastGen": []any{map[string]any{"A": 0, "B": 0, "Gen": 1}},
		})
	}
	engine := log(0xfeed, checkpoints...)
	batch := log(0xbeef,
		map[string]any{"subject": "mini", "group": "FileHandle", "elapsedNs": 1500000,
			"reports": []any{map[string]any{"FSM": "FileHandle", "Kind": "leak", "Object": "f"}}},
		map[string]any{"subject": "mini", "group": "Lock", "elapsedNs": 900000})
	f.Add(engine)
	f.Add(engine[:len(engine)/2])
	f.Add(engine[:journalHeaderSize])
	f.Add([]byte{})
	f.Add([]byte("GPLJ"))
	f.Add(bytes.Repeat([]byte{0x00}, journalHeaderSize+16))
	f.Add(batch)
	f.Add(batch[:len(batch)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		tag, recs, validLen, err := ReadJournal[json.RawMessage](path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("damage not reported as ErrCorrupt: %v", err)
			}
			return
		}
		if validLen < journalHeaderSize || validLen > int64(len(data)) {
			t.Fatalf("validLen %d outside file of %d bytes", validLen, len(data))
		}
		if err := os.WriteFile(path, data[:validLen], 0o644); err != nil {
			t.Fatal(err)
		}
		tag2, recs2, validLen2, err := ReadJournal[json.RawMessage](path)
		if err != nil || tag2 != tag || validLen2 != validLen || !reflect.DeepEqual(recs2, recs) {
			t.Fatalf("the cut log reads back differently: %d records up to %d, %v", len(recs2), validLen2, err)
		}
	})
}
