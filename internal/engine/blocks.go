package engine

import "github.com/grapple-system/grapple/internal/storage"

// A loaded partition keeps its edges in blocks of edgeBlockLen (80 KiB of
// records): growing it starts a block, it never copies one, so an edge stays
// where it was put for as long as the partition is loaded.
const (
	edgeBlockShift = 10
	edgeBlockLen   = 1 << edgeBlockShift
	edgeBlockMask  = edgeBlockLen - 1
)

// edgeBlocks is a loaded partition's edge list: edge i is
// blocks[i>>edgeBlockShift][i&edgeBlockMask]. Every block but the last is
// full, and the last has room for a whole block, so push appends in place.
type edgeBlocks struct {
	blocks [][]storage.Edge
	n      int
}

// blocksOf takes edges over without copying the full blocks: each is a
// window of edges' array, capped at its end. The partial last block is copied
// into a block of its own unless the array has room for a whole block after
// it, as a read sized by roundBlocks has: edges' capacity becomes the
// partition's, so a caller that shares the array past len(edges) caps it.
func blocksOf(edges []storage.Edge) edgeBlocks {
	b := edgeBlocks{n: len(edges), blocks: make([][]storage.Edge, 0, roundBlocks(len(edges))>>edgeBlockShift)}
	for lo := 0; lo < len(edges); lo += edgeBlockLen {
		hi := min(lo+edgeBlockLen, len(edges))
		if lo+edgeBlockLen <= cap(edges) {
			b.blocks = append(b.blocks, edges[lo:hi:lo+edgeBlockLen])
			continue
		}
		blk := make([]storage.Edge, hi-lo, edgeBlockLen)
		copy(blk, edges[lo:hi])
		b.blocks = append(b.blocks, blk)
	}
	return b
}

// roundBlocks rounds an edge count up to whole blocks.
func roundBlocks(n int) int { return (n + edgeBlockMask) &^ edgeBlockMask }

// len returns the number of edges.
func (b *edgeBlocks) len() int { return b.n }

// at returns edge i.
func (b *edgeBlocks) at(i int) *storage.Edge {
	return &b.blocks[i>>edgeBlockShift][i&edgeBlockMask]
}

// push appends e, starting a block when the last one is full.
func (b *edgeBlocks) push(e storage.Edge) {
	k := b.n >> edgeBlockShift
	if k == len(b.blocks) {
		b.blocks = append(b.blocks, make([]storage.Edge, 0, edgeBlockLen))
	}
	b.blocks[k] = append(b.blocks[k], e)
	b.n++
}

// from returns the blocks that hold edge i and every edge after it, the first
// one cut to start at i: what the partition's file does not hold yet when it
// holds the first i edges.
func (b *edgeBlocks) from(i int) [][]storage.Edge {
	if i >= b.n {
		return nil
	}
	k := i >> edgeBlockShift
	tail := append([][]storage.Edge(nil), b.blocks[k:]...)
	tail[0] = tail[0][i&edgeBlockMask:]
	return tail
}
