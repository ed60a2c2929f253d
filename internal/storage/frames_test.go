package storage

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// splitBlocks cuts edges into consecutive blocks of the given sizes, the
// last one taking the rest.
func splitBlocks(edges []Edge, sizes ...int) [][]Edge {
	var blocks [][]Edge
	for _, n := range sizes {
		n = min(n, len(edges))
		blocks = append(blocks, edges[:n])
		edges = edges[n:]
	}
	return append(blocks, edges)
}

// everyN cuts edges into blocks of n, the last one partial.
func everyN(edges []Edge, n int) [][]Edge {
	var blocks [][]Edge
	for len(edges) > n {
		blocks = append(blocks, edges[:n])
		edges = edges[n:]
	}
	return append(blocks, edges)
}

// TestFramesAcrossBlocksMatchFlat holds the block writers to the flat ones:
// a partition file written, or appended to, from any split of its edges into
// blocks — empty blocks, one-edge blocks, the engine's 1 024-edge blocks, a
// frame that ends inside a block — is byte for byte the file one slice of
// the same edges makes, and reports the same byte count.
func TestFramesAcrossBlocksMatchFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	edges := make([]Edge, 20000)
	for i := range edges {
		edges[i] = randEdge(rng)
	}
	dir := t.TempDir()
	read := func(path string) []byte {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	info := PartInfo{Lo: 3, Hi: 1 << 30}
	flatPath := filepath.Join(dir, "flat.edges")
	flatN, err := WritePart(flatPath, edges, info)
	if err != nil {
		t.Fatal(err)
	}
	flat := read(flatPath)
	if len(frameEnds(flat)) < 3 {
		t.Fatalf("%d frames: the fixture does not cut frames", len(frameEnds(flat)))
	}
	// A frame must end inside a 1 024-edge block, or the engine's split
	// would not test a frame spanning blocks.
	inside, at := false, 0
	for _, off := range frameStarts(flat) {
		count, _ := binary.Uvarint(flat[off+4:])
		at += int(count)
		inside = inside || at%1024 != 0 && at < len(edges)
	}
	if at != len(edges) || !inside {
		t.Fatalf("frames hold %d edges, one ending inside a block: %v", at, inside)
	}

	splits := map[string][][]Edge{
		"one block":        {edges},
		"engine blocks":    everyN(edges, 1024),
		"one-edge head":    splitBlocks(edges, 1, 0, 1023, 0),
		"uneven":           splitBlocks(edges, 7, 4000, 1, 9000, 0, 3),
		"odd blocks":       everyN(edges, 777),
		"trailing empties": append(everyN(edges, 5000), nil, nil),
	}
	for name, blocks := range splits {
		path := filepath.Join(dir, "blocks.edges")
		n, err := WriteBlocks(path, blocks, info)
		if err != nil {
			t.Fatal(err)
		}
		if raw := read(path); n != flatN || !bytes.Equal(raw, flat) {
			t.Fatalf("%s: WriteBlocks wrote %d bytes (%d reported), the flat write %d (%d reported)",
				name, len(raw), n, len(flat), flatN)
		}

		// Appended: a head written whole, the rest appended from blocks,
		// against the same append from one slice.
		for _, head := range []int{0, 1, 1500} {
			want := filepath.Join(dir, "want.edges")
			wantN := appendAfter(t, want, edges[:head], [][]Edge{edges[head:]}, info)
			gotPath := filepath.Join(dir, "got.edges")
			gotN := appendAfter(t, gotPath, edges[:head], trim(blocks, head), info)
			if gotN != wantN || !bytes.Equal(read(gotPath), read(want)) {
				t.Fatalf("%s: appending after %d edges from blocks (%d bytes) differs from the flat append (%d)",
					name, head, gotN, wantN)
			}
		}
	}
}

// frameStarts returns the offsets at which the frames of the log raw start.
func frameStarts(raw []byte) []int {
	starts := []int{journalHeaderSize}
	for _, end := range frameEnds(raw) {
		starts = append(starts, end)
	}
	return starts[:len(starts)-1]
}

// appendAfter makes path a partition file of head, written whole (none when
// head is empty: AppendPart then creates the file), and appends blocks to
// it. It returns the bytes the append reported.
func appendAfter(t *testing.T, path string, head []Edge, blocks [][]Edge, info PartInfo) int64 {
	t.Helper()
	os.Remove(path)
	if len(head) > 0 {
		if _, err := WritePart(path, head, info); err != nil {
			t.Fatal(err)
		}
	}
	n, err := AppendPart(path, blocks, info, nil)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// trim drops the first k edges of blocks.
func trim(blocks [][]Edge, k int) [][]Edge {
	var out [][]Edge
	for _, blk := range blocks {
		cut := min(k, len(blk))
		k -= cut
		out = append(out, blk[cut:])
	}
	return out
}
