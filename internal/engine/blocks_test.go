package engine

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"github.com/grapple-system/grapple/internal/raceflag"
	"github.com/grapple-system/grapple/internal/storage"
)

// slice copies the edges out, in order.
func (b *edgeBlocks) slice() []storage.Edge {
	out := make([]storage.Edge, 0, b.len())
	for _, blk := range b.blocks {
		out = append(out, blk...)
	}
	return out
}

// numbered returns n edges that differ in every index: edge i runs i -> i+1.
func numbered(n int) []storage.Edge {
	edges := make([]storage.Edge, n)
	for i := range edges {
		edges[i] = storage.Edge{Src: uint32(i), Dst: uint32(i + 1), Gen: uint32(i / 7)}
	}
	return edges
}

// sameEdges reports whether a and b hold the same numbered edges in order.
func sameEdges(a, b []storage.Edge) bool {
	return slices.EqualFunc(a, b, func(x, y storage.Edge) bool {
		return x.Src == y.Src && x.Dst == y.Dst && x.Gen == y.Gen
	})
}

// checkBlocks holds b to want edge for edge, through at and through its
// blocks, and to the layout every push relies on: every block but the last
// full, and the last able to take a whole block.
func checkBlocks(t *testing.T, b *edgeBlocks, want []storage.Edge, what string) {
	t.Helper()
	if b.len() != len(want) {
		t.Fatalf("%s: %d edges, want %d", what, b.len(), len(want))
	}
	for i := range want {
		if e := b.at(i); e.Src != want[i].Src || e.Dst != want[i].Dst || e.Gen != want[i].Gen {
			t.Fatalf("%s: edge %d is %d->%d, want %d->%d", what, i, b.at(i).Src, b.at(i).Dst, want[i].Src, want[i].Dst)
		}
	}
	if got := b.slice(); !sameEdges(got, want) {
		t.Fatalf("%s: the blocks hold %d edges out of order", what, len(got))
	}
	for k, blk := range b.blocks {
		if k < len(b.blocks)-1 && len(blk) != edgeBlockLen || cap(blk) != edgeBlockLen {
			t.Fatalf("%s: block %d of %d holds %d edges in room for %d", what, k, len(b.blocks), len(blk), cap(blk))
		}
	}
	for _, i := range []int{0, 1, len(want) / 2, edgeBlockLen, len(want) - 1, len(want)} {
		if i < 0 || i > len(want) {
			continue
		}
		var tail []storage.Edge
		for _, blk := range b.from(i) {
			tail = append(tail, blk...)
		}
		if !sameEdges(tail, want[i:]) {
			t.Fatalf("%s: from(%d) holds %d edges, want the %d after it", what, i, len(tail), len(want)-i)
		}
	}
}

// TestEdgeBlocksMatchSlice holds the block list to a flat slice at lengths
// around a block's: built by push, taken over by blocksOf from an array with
// no room past its end (a preprocess chunk) and from one rounded up to whole
// blocks (a load), and pushed to after being taken over.
func TestEdgeBlocksMatchSlice(t *testing.T) {
	for _, n := range []int{0, 1, edgeBlockLen - 1, edgeBlockLen, edgeBlockLen + 1, 5000} {
		want := numbered(n + 2*edgeBlockLen)
		flat := want[:n]

		var pushed edgeBlocks
		for _, e := range flat {
			pushed.push(e)
		}
		checkBlocks(t, &pushed, flat, "pushed")

		capped := blocksOf(slices.Clip(slices.Clone(flat)))
		checkBlocks(t, &capped, flat, "taken over from a capped array")

		arr := append(make([]storage.Edge, 0, roundBlocks(n)), flat...)
		roomy := blocksOf(arr)
		checkBlocks(t, &roomy, flat, "taken over from a rounded array")
		// Taking over copies no full block, and nothing from an array with
		// room for the partial one.
		if n >= edgeBlockLen && roomy.at(0) != &arr[0] {
			t.Fatalf("n=%d: blocksOf copied the first block", n)
		}
		if n > 0 && roomy.at(n-1) != &arr[n-1] {
			t.Fatalf("n=%d: blocksOf copied the last block of an array with room for it", n)
		}

		for _, b := range []*edgeBlocks{&capped, &roomy} {
			for _, e := range want[n:] {
				b.push(e)
			}
			checkBlocks(t, b, want, "pushed to after the takeover")
		}
		if n > 0 && roomy.at(0) != &arr[0] {
			t.Fatalf("n=%d: pushes moved an edge taken over", n)
		}
	}
}

// TestPartitionAddNeverMovesEdges adds 10 000 edges to a loaded partition
// and holds every edge to the address it was put at. Growing the partition
// allocates one block per edgeBlockLen edges and copies nothing: the bytes
// it allocates are the blocks'.
func TestPartitionAddNeverMovesEdges(t *testing.T) {
	const n = 10000
	p := &partition{hi: n + 1, mem: &memPart{}}
	edges := numbered(n)
	addrs := make([]*storage.Edge, n)
	for i := range edges {
		p.add(edges[i], storage.RecordSize(&edges[i]), true, false)
		addrs[i] = p.mem.edges.at(i)
	}
	for i := range edges {
		if p.mem.edges.at(i) != addrs[i] || addrs[i].Src != edges[i].Src {
			t.Fatalf("edge %d moved or changed over %d adds", i, n)
		}
	}
	if p.edges != n || !p.mem.dirty {
		t.Fatalf("partition counts %d edges (dirty %v) after %d adds", p.edges, p.mem.dirty, n)
	}

	if raceflag.Enabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	e := edges[0]
	sz := storage.RecordSize(&e)
	addBlock := func() {
		for range edgeBlockLen {
			p.add(e, sz, true, false)
		}
	}
	// AllocsPerRun truncates to whole allocations per run: the block list
	// growing now and then does not count, one copy per add would.
	if allocs := testing.AllocsPerRun(100, addBlock); allocs > 1 {
		t.Fatalf("%d adds allocate %.0f times, want one block", edgeBlockLen, allocs)
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		addBlock()
	}
	runtime.ReadMemStats(&after)
	perAdd := float64(after.TotalAlloc-before.TotalAlloc) / (runs * edgeBlockLen)
	if limit := 1.1 * float64(unsafe.Sizeof(e)); perAdd > limit {
		t.Fatalf("an add allocates %.1f bytes, more than %.0f: edges are being copied", perAdd, limit)
	}
}
