package engine

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/metrics"
	"github.com/grapple-system/grapple/internal/smt"
	"github.com/grapple-system/grapple/internal/storage"
	"github.com/grapple-system/grapple/internal/trace"
)

// candidate is a validated induced edge awaiting insertion. payload is the
// edge's storage.PayloadHash, computed once per merged path in the join and
// shared by every grammar head and every expansion of it: insert derives
// each of their dedupe keys from it with storage.KeyOf.
type candidate struct {
	edge    storage.Edge
	payload uint64
}

// joinScratch is one join worker's reusable buffers: the candidate batch the
// worker produces, the buffer every candidate's path encoding is merged
// into, the SMT-cache key scratch its probes encode into, and the decoder
// and solver a probe that misses runs in — each with scratch of its own, so
// that a miss allocates nothing either. The superstep loop is
// single-threaded, so a worker's batch from superstep N is fully consumed
// (inserted) before superstep N+1 hands the same scratch to another
// goroutine; within a superstep each worker owns its scratch exclusively,
// across all the chunks it claims.
type joinScratch struct {
	out    []candidate
	encBuf cfet.Enc
	keyBuf []byte
	dec    *cfet.Decoder
	solver *smt.Solver
	// counts is the worker's tally for the superstep, left for processPair to
	// fold into Engine.stats once wg.Wait() has seen the worker return.
	counts joinCounts
	// arena backs the encodings of the candidates that survive dedupe and
	// the solver. Unlike the buffers above it is never rewound: inserted
	// edges keep pointing into its chunks, which live exactly as long as
	// those edges do. Only the unused tail of the current chunk carries
	// over to the next superstep.
	arena cfet.Arena
}

// stamp is one sub-join's semi-naive watermark: once seen, every edge pair of
// that sub-join whose two generations are both at most last has been joined.
type stamp struct {
	last uint32
	seen bool
}

func (s stamp) joined(e1, e2 *storage.Edge) bool {
	return s.seen && e1.Gen <= s.last && e2.Gen <= s.last
}

// passJoin is what the join workers of one pass over (i, j) share; all of it
// is read-only while they run except chunks, where each worker fills in the
// entries it claims. The pass is four sub-joins — pi→pi, pi→pj, pj→pi,
// pj→pj — and an edge pair is filtered by the stamp of the sub-join it
// belongs to: a within-partition pair by that partition's self stamp (the
// (i, i) pair's lastGen entry), a cross pair by the (i, j) entry. A pass
// therefore merges only pairs that no earlier pass, over whichever partition
// pair, has merged already.
type passJoin struct {
	pi, pj *partition
	// firsts is the frontier; firsts[:fromI] were collected from pi, the rest
	// from pj.
	firsts              []*storage.Edge
	fromI               int
	selfI, selfJ, cross stamp
	gen                 uint32
	// chunks[k] covers firsts[k*chunkEdges : (k+1)*chunkEdges] (the last one
	// is cut short).
	chunks     []joinChunk
	chunkEdges int
}

// joinChunk records where the candidates of one claimed chunk of the
// frontier went: out[lo:hi] of the claiming worker's scratch.
type joinChunk struct {
	scr    *joinScratch
	lo, hi int
}

// joinChunkEdges is the frontier's claim unit in first edges. The frontier is
// in partition order, generation order within a partition, so the new edges —
// which do all the new×all work of a semi-naive pass — sit at the tail: an
// even split into one range per worker leaves one worker most of the join.
// Workers instead claim fixed-size chunks from a shared counter until none
// are left. Sized by measurement (EXPERIMENTS.md, "Exactly-once partitioned
// join"): small enough that the tail spreads over every worker, large
// enough that a claim is noise next to the chunk's work.
const joinChunkEdges = 256

// seconds returns the loaded right-capable edges that start at vertex src,
// the partition holding them, and the stamp of the sub-join they form with
// firsts[k]: the partition firsts[k] was collected from → the partition
// owning src.
func (jn *passJoin) seconds(k int, src uint32) ([]int32, *memPart, stamp) {
	from, st := jn.pi, jn.selfI
	if k >= jn.fromI {
		from, st = jn.pj, jn.selfJ
	}
	to := jn.pi
	if !to.owns(src) {
		if to = jn.pj; !to.owns(src) {
			return nil, nil, stamp{}
		}
	}
	if to != from {
		st = jn.cross
	}
	return to.mem.seconds(to.lo, src), to.mem, st
}

// mergeTimeStride is how many candidates share one timed Merge.
const mergeTimeStride = 64

// arenaChunkElems sizes the survivor arena's allocation unit (32 KiB of
// elements): large enough that a chunk serves hundreds of edges, small
// enough that the few long-lived edges of an otherwise evicted partition
// pin little dead memory.
const arenaChunkElems = 1024

// keep copies enc out of the merge buffer into the arena and returns the
// copy.
func (scr *joinScratch) keep(enc cfet.Enc) cfet.Enc {
	if len(enc) == 0 {
		return nil
	}
	kept := scr.arena.Alloc(len(enc), arenaChunkElems)
	copy(kept, enc)
	return kept
}

// processPair loads partitions i and j, joins every consecutive edge pair
// (x->y, y->z) whose labels match a grammar production and whose combined
// path constraint is satisfiable, and adds the induced edges (paper §4.2,
// §4.3 "similar in spirit to table joining in relational algebra, but ...
// we need to consider the constraints of both assignment semantics and
// paths"). Returns the superstep's frontier size — how many first edges were
// collected for joining — and the time the run goroutine spent inserting the
// candidates, for the observability layer.
func (en *Engine) processPair(i, j int) (frontier int, insert time.Duration, err error) {
	// Make room for i, j; other cached partitions stay resident until the
	// memory budget forces them out, least-recently-used first.
	if err := en.ensureBudget(en.parts[i], en.parts[j]); err != nil {
		return 0, 0, err
	}
	pi, err := en.load(i)
	if err != nil {
		return 0, 0, err
	}
	pj := pi
	if j != i {
		if pj, err = en.load(j); err != nil {
			return 0, 0, err
		}
	}
	en.hot = [2]*partition{pi, pj}
	en.curGen++
	jn := &passJoin{
		pi: pi, pj: pj, gen: en.curGen,
		selfI: en.stamp(pi.id, pi.id), selfJ: en.stamp(pj.id, pj.id), cross: en.stamp(pi.id, pj.id),
	}

	// Collect source edges; semi-naive: at least one side must be new. A first
	// edge collected from partition p takes part in two sub-joins — p→p under
	// p's self stamp, p→other under the cross stamp — and if it is no newer
	// than both stamps, every pair it forms with a second no newer than its
	// sub-join's stamp has been merged. So while neither target partition
	// indexes a second newer than its stamp (maxRightGen), only firsts newer
	// than the smaller stamp can form an un-merged pair, and only they are
	// collected; the per-pair filter in joinRange still decides each pair. A
	// grammar whose right symbols are never derived (the dataflow grammar)
	// meets the condition on every pass after a pair's first.
	//
	// A partition's edges are in generation order (memPart.edges), so the
	// firsts newer than the smaller stamp are a suffix, found by binary search.
	//
	// The frontier slice is reused across supersteps: the previous superstep's
	// frontier is dead by the time the loop comes back here (its candidates
	// were inserted before the superstep ended).
	firsts := en.firstsBuf[:0]
	settled := func(to *partition, st stamp) bool {
		return st.seen && to.mem.maxRightGen <= st.last
	}
	collect := func(from, other *partition, self stamp) {
		edges := &from.mem.edges
		k := 0
		if !en.wholeFrontier && settled(from, self) && settled(other, jn.cross) {
			after := min(self.last, jn.cross.last)
			k = sort.Search(edges.len(), func(k int) bool { return edges.at(k).Gen > after })
		}
		for ; k < edges.len(); k++ {
			if e := edges.at(k); en.g.HasLeft(e.Label) {
				firsts = append(firsts, e)
			}
		}
	}
	collect(pi, pj, jn.selfI)
	jn.fromI = len(firsts)
	if pj != pi {
		collect(pj, pi, jn.selfJ)
	}
	en.firstsBuf, jn.firsts = firsts, firsts

	// One worker joins the whole frontier as a single chunk; several claim
	// it chunk by chunk, never more workers than chunks.
	jn.chunkEdges = joinChunkEdges
	if en.opts.Workers == 1 {
		jn.chunkEdges = max(len(firsts), 1)
	}
	nChunks := (len(firsts) + jn.chunkEdges - 1) / jn.chunkEdges
	workers := min(en.opts.Workers, nChunks)
	jn.chunks = slices.Grow(en.chunkBuf[:0], nChunks)[:nChunks]
	en.chunkBuf = jn.chunks
	for len(en.scratch) < workers {
		en.scratch = append(en.scratch, &joinScratch{dec: en.ic.NewDecoder(), solver: smt.New(smt.DefaultOptions())})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, scr := range en.scratch[:workers] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			en.joinWorker(jn, scr, &next)
		}()
	}
	wg.Wait()
	// The wait orders every worker's writes to its scratch before these reads.
	for _, scr := range en.scratch[:workers] {
		en.fold(&scr.counts)
	}

	// Insert candidates (single-threaded: dedupe set and partitions), in
	// chunk order — the order one worker would have produced them in,
	// whichever worker claimed which chunk.
	insertStart := time.Now()
	for _, c := range jn.chunks {
		for k := c.lo; k < c.hi; k++ {
			en.insert(&c.scr.out[k].edge, c.scr.out[k].payload)
		}
	}
	insert = time.Since(insertStart)
	en.stats.Breakdown.Compute += insert

	// The frontier and the candidate batches are dead now, but their slots
	// would go on pointing into the edge blocks and arenas of partitions
	// evicted later — each pointer keeping a whole array alive outside what
	// MemoryBudget counts — until a frontier as large overwrote them. Zero
	// what this superstep used, so the buffers hold nothing between supersteps.
	frontier = len(firsts)
	clear(firsts)
	for _, scr := range en.scratch[:workers] {
		clear(scr.out)
	}

	// Edges induced during this very iteration carry generation gen and still
	// need to be joined against everything, so all three sub-join stamps
	// advance to gen-1: a cross pass has joined every within-pi and within-pj
	// pair with a side newer than the self stamp, and a pair stays dirty
	// exactly when this pass added edges to one of its partitions. Set before
	// the repartition loop below, so a split copies them.
	for _, key := range [3][2]int{{pi.id, pi.id}, {pj.id, pj.id}, {pi.id, pj.id}} {
		en.lastGen[key] = jn.gen - 1
	}

	if err := en.flushPending(false); err != nil {
		return 0, 0, err
	}
	// Eager repartitioning (paper §4.3): split any loaded partition whose
	// byte size outgrew the budget. Split j before i: the split inserts a
	// partition right after the split position, which would shift j.
	if !en.noSplit {
		for _, idx := range []int{j, i} {
			if p := en.parts[idx]; p.mem != nil && p.bytes > en.opts.MemoryBudget/3 {
				if err := en.repartition(idx); err != nil {
					return 0, 0, err
				}
			}
		}
	}
	return frontier, insert, nil
}

// appendEncCacheKey appends the memoization key of an encoding's raw
// elements to dst. Callers reuse dst across probes so a cache lookup costs
// no allocation; an insert copies the key into the cache's own arena
// (smt.Cache.PutBytes).
func appendEncCacheKey(dst []byte, enc cfet.Enc) []byte {
	var tmp [binary.MaxVarintLen64]byte
	for _, el := range enc {
		dst = append(dst, byte(el.Kind))
		switch el.Kind {
		case cfet.KInterval:
			n := binary.PutUvarint(tmp[:], uint64(el.Method))
			dst = append(dst, tmp[:n]...)
			n = binary.PutUvarint(tmp[:], el.Start)
			dst = append(dst, tmp[:n]...)
			n = binary.PutUvarint(tmp[:], el.End)
			dst = append(dst, tmp[:n]...)
		default:
			n := binary.PutUvarint(tmp[:], uint64(el.Call))
			dst = append(dst, tmp[:n]...)
		}
	}
	return dst
}

// joinCounts is what a join worker tallies over the chunks it claims in one
// superstep.
type joinCounts struct {
	cacheLookups, cacheHits, conflicts, unsats, solves int64
	// No clock is read per candidate: Merge is timed on every
	// mergeTimeStride-th one and the total extrapolated from the sample, so
	// Figure 9's "constraint lookup" share survives without two time.Now()
	// calls around an operation that takes less than they do. Cache misses
	// are rare and expensive enough to time individually.
	merges, mergesTimed               int64
	mergeTimed, decodeTime, solveTime time.Duration
	// solveLatency histograms the individually timed solves; computeTime is
	// the worker's whole time in the join.
	solveLatency metrics.LatencyCounts
	computeTime  time.Duration
}

// fold adds one worker's superstep tally to the engine's counters. Run
// goroutine only.
func (en *Engine) fold(c *joinCounts) {
	st := &en.stats
	st.ConstraintsSolved += c.solves
	st.CacheLookups += c.cacheLookups
	st.CacheHits += c.cacheHits
	st.RejectedConflict += c.conflicts
	st.RejectedUnsat += c.unsats
	st.SolveTime += c.solveTime
	st.SolveLatency.Add(c.solveLatency)
	st.Breakdown.Compute += c.computeTime
	st.Breakdown.Decode += c.decodeTime
	st.Breakdown.Solve += c.solveTime
}

// joinWorker claims chunks of the frontier from next until none are left,
// joins each into scr.out and records the segment it produced. The scratch
// buffers, decoder, solver and survivor arena are the worker's, not the
// chunk's; the tally is left in scr.counts once per worker per superstep.
// Runs concurrently; touches only read-only engine state plus its own
// scratch and the chunk entries it claimed.
func (en *Engine) joinWorker(jn *passJoin, scr *joinScratch, next *atomic.Int64) {
	scr.out = scr.out[:0]
	var c joinCounts
	solvesBefore := scr.solver.Calls
	computeStart := time.Now()
	for {
		k := int(next.Add(1)) - 1
		if k >= len(jn.chunks) {
			break
		}
		lo := k * jn.chunkEdges
		hi := min(lo+jn.chunkEdges, len(jn.firsts))
		ch := &jn.chunks[k]
		ch.scr, ch.lo = scr, len(scr.out)
		en.joinRange(jn, lo, hi, scr, &c)
		ch.hi = len(scr.out)
	}
	c.computeTime = time.Since(computeStart)
	if c.mergesTimed > 0 {
		c.decodeTime += time.Duration(int64(c.mergeTimed) * c.merges / c.mergesTimed)
	}
	c.solves = scr.solver.Calls - solvesBefore
	scr.counts = c
}

// joinRange joins firsts[lo:hi] against the loaded second edges and appends
// the constraint-validated candidates to scr.out.
func (en *Engine) joinRange(jn *passJoin, lo, hi int, scr *joinScratch, c *joinCounts) {
	out := scr.out
	encBuf, keyBuf := scr.encBuf, scr.keyBuf
	cache := en.opts.Cache
	for k := lo; k < hi; k++ {
		e1 := jn.firsts[k]
		idxs, mp, st := jn.seconds(k, e1.Dst)
		for _, x := range idxs {
			e2 := mp.edges.at(int(x))
			if st.joined(e1, e2) {
				continue // both sides already joined in a prior iteration
			}
			heads := en.g.MatchBinary(e1.Label, e2.Label)
			if len(heads) == 0 {
				continue
			}
			timed := c.merges%mergeTimeStride == 0
			var mergeStart time.Time
			if timed {
				mergeStart = time.Now()
			}
			enc, ok := en.ic.AppendMerge(encBuf[:0], e1.Enc, e2.Enc)
			if timed {
				c.mergeTimed += time.Since(mergeStart)
				c.mergesTimed++
			}
			c.merges++
			encBuf = enc
			if !ok {
				c.conflicts++
				continue
			}
			// No dedupe here: insert checks every candidate against the
			// global index, and a duplicate that reaches the memo is a hit.
			cand := storage.Edge{Src: e1.Src, Dst: e2.Dst, Gen: jn.gen, HasRel: e1.HasRel, Enc: enc}
			if cand.HasRel {
				cand.Rel = fsm.Compose(e1.Rel, e2.Rel)
			}
			if len(enc) > 0 {
				// Constraint memoization keyed by the encoded path (paper
				// §4.3: "using encoded paths as the keys"): a hit skips
				// both decoding and solving. The key is encoded into the
				// worker's scratch buffer and probed with byte-key lookups,
				// so neither a probe per join candidate nor the insert after
				// a miss allocates, beyond the cache's amortized growth.
				var verdict smt.Result
				hit := false
				if cache != nil {
					c.cacheLookups++
					keyBuf = appendEncCacheKey(keyBuf[:0], enc)
					verdict, hit = cache.GetBytes(keyBuf)
					if hit {
						c.cacheHits++
					}
				}
				if !hit {
					// conj is the decoder's until its next Decode: solved
					// at once, kept nowhere. One clock read separates the
					// two.
					t0 := time.Now()
					conj, derr := scr.dec.Decode(enc)
					t1 := time.Now()
					c.decodeTime += t1.Sub(t0)
					verdict = smt.Sat
					if derr == nil && len(conj) > 0 {
						verdict = scr.solver.Solve(conj)
						d := time.Since(t1)
						c.solveTime += d
						c.solveLatency.Observe(metrics.SolveLatencyBuckets, d)
					}
					if cache != nil {
						cache.PutBytes(keyBuf, verdict)
					}
				}
				if verdict == smt.Unsat {
					c.unsats++
					continue
				}
			}
			// Survivor: only now does the encoding leave the merge buffer.
			cand.Enc = scr.keep(enc)
			payload := cand.PayloadHash()
			for _, h := range heads {
				cand.Label = h
				out = append(out, candidate{edge: cand, payload: payload})
			}
		}
	}
	scr.out, scr.encBuf, scr.keyBuf = out, encBuf, keyBuf
}

// stamp returns the lastGen entry of the partition-id pair (a, b).
func (en *Engine) stamp(a, b int) stamp {
	last, seen := en.lastGen[[2]int{a, b}]
	return stamp{last: last, seen: seen}
}

// insert adds one induced edge and its unary/mirror expansions to their
// owning partitions, honoring the per-endpoint variant cap. payload is e's
// storage.PayloadHash.
func (en *Engine) insert(e *storage.Edge, payload uint64) {
	for _, d := range en.expansion(e.Label) {
		src, dst := d.endpoints(e)
		k := storage.KeyOf(src, dst, d.label, payload)
		// One probe finds the endpoint's variant count or claims a slot for it,
		// and the claim is never wasted: a key already in the index always has
		// its endpoint counted, so an endpoint without a count has a new edge.
		variants := en.variants.at(storage.Endpoint{Src: src, Dst: dst, Label: d.label})
		// Below the cap one probe both asks whether the edge is new and records
		// it. Past the cap the index records the key of the widened edge, not
		// k, so whether k was seen is only asked.
		widen := int(*variants) >= en.opts.MaxVariants && len(e.Enc) > 0
		if widen && en.keys.has(k) || !widen && !en.keys.add(k) {
			continue
		}
		v := *e
		v.Src, v.Dst, v.Label = src, dst, d.label
		if widen {
			// Widen: drop interval (branch) precision but keep call/return
			// structure — erasing it would let composed paths enter a
			// callee through one call-edge instance and exit through
			// another, stitching execution fragments no single run can
			// connect. Only past twice the cap does the edge widen to the
			// fully unconstrained variant. The skeleton is hashed in place
			// and built only if the widened edge turns out to be new.
			skHash, skLen := v.SkeletonPayloadHash()
			skeleton := skLen > 0 && int(*variants) < 2*en.opts.MaxVariants
			if skeleton {
				k = storage.KeyOf(src, dst, d.label, skHash)
			} else {
				v.Enc = nil
				k = v.Key()
			}
			if !en.keys.add(k) {
				continue
			}
			if skeleton {
				v.Enc = v.Enc.Skeleton()
			}
			en.stats.Widened++
		}
		*variants++
		en.partOf(v.Src).add(v, storage.RecordSize(&v), en.g.HasLeft(v.Label), en.g.HasRight(v.Label))
	}
}

// repartition splits the loaded partition at table position idx (paper §4.3
// "oversized partitions get dynamically repartitioned"): at the cut of its
// edges (markCuts) nearest the median position among those that leave between
// a quarter and three quarters of the edges below them, and at the median
// source vertex when no cut lies in that window — when one component alone is
// larger than it. After a split at a cut neither half points into the other
// and the two are never paired; after one at the median they are, as any two
// partitions an edge connects.
func (en *Engine) repartition(idx int) error {
	p := en.parts[idx]
	mp := p.mem
	if mp == nil {
		return nil
	}
	if p.hi-p.lo <= 1 || mp.edges.len() < 2 {
		return nil // cannot split a single-vertex interval
	}
	arcs := make([]arc, mp.edges.len())
	for i := range arcs {
		e := mp.edges.at(i)
		arcs[i] = arc{e.Src, e.Dst}
	}
	slices.SortFunc(arcs, func(a, b arc) int { return cmp.Compare(a.src, b.src) })
	n := len(arcs)
	at, isCut := n/2, false // the boundary is arcs[at].src: at edges start below it
	off := func(k int) int { return (k - n/2) * (k - n/2) }
	for k, cut := range markCuts(arcs) {
		if cut && 4*k >= n && 4*k <= 3*n && (!isCut || off(k) < off(at)) {
			at, isCut = k, true
		}
	}
	mid := arcs[at].src
	if mid <= p.lo {
		mid = p.lo + (p.hi-p.lo)/2
	}
	if mid <= p.lo || mid >= p.hi {
		return nil
	}
	en.stats.Repartitions++

	// The low half stays loaded in p; the high half becomes a new partition
	// np, written out and not loaded. Both get their exact counters and
	// destination range back from the edges they keep.
	np := en.newPartition(mid, p.hi)
	p.hi, p.edges, p.bytes, p.maxGen = mid, 0, 0, 0
	p.dstMin, p.dstMax = math.MaxUint32, 0
	var loEdges, hiEdges edgeBlocks
	for i := range mp.edges.len() {
		e := mp.edges.at(i)
		half, edges := p, &loEdges
		if e.Src >= mid {
			half, edges = np, &hiEdges
		}
		edges.push(*e)
		half.edges++
		half.bytes += storage.RecordSize(e)
		half.maxGen = max(half.maxGen, e.Gen)
		if en.g.HasLeft(e.Label) {
			half.reach(e.Dst)
		}
	}
	if en.jw != nil {
		// Shrinking the low half under its original path would be the one
		// write that destroys a checkpointed file prefix. Redirect the
		// survivor to a fresh path instead: the pre-split file stays frozen
		// on disk (the last journal record still references it) until a
		// newer record supersedes it. Repartitions is already incremented,
		// so the suffix is unique for the run.
		p.path = filepath.Join(en.opts.Dir,
			fmt.Sprintf("part-%06d-r%06d.edges", p.id, en.stats.Repartitions))
	}
	if err := en.writePart(np, hiEdges.blocks); err != nil {
		return err
	}
	if en.opts.Scope.Rec.Enabled() {
		en.opts.Scope.Instant("engine", "repartition",
			trace.Args{"part": p.id, "newPart": np.id, "mid": mid, "cut": isCut})
	}
	mp.edges = loEdges
	mp.index(en.g, p.lo)
	mp.durable, mp.dirty = 0, true

	// The new partition inherits the join history of the one it was cut from:
	// its edges were that partition's edges in every pass so far. Within-new
	// and low↔new pairs were within-partition pairs (self stamp); pairs with
	// any other partition q were (q, idx) pairs. Keys are oriented by
	// position, and the new partition sits right after idx.
	inherit := func(from, to [2]int) {
		if g, ok := en.lastGen[from]; ok {
			en.lastGen[to] = g
		}
	}
	inherit([2]int{p.id, p.id}, [2]int{np.id, np.id})
	inherit([2]int{p.id, p.id}, [2]int{p.id, np.id})
	for pos, q := range en.parts {
		switch {
		case pos < idx:
			inherit([2]int{q.id, p.id}, [2]int{q.id, np.id})
		case pos > idx:
			inherit([2]int{p.id, q.id}, [2]int{np.id, q.id})
		}
	}

	// partOf searches the table by interval: np goes right after p. Nothing
	// else moves — every other piece of per-partition state hangs off the
	// partition itself or is keyed by its id.
	en.parts = slices.Insert(en.parts, idx+1, np)
	return nil
}

// ForEach hands f every edge of the closed graph (after Run), partition by
// partition in table order, until f returns false: a loaded partition's from
// memory, an unloaded one's streamed from its file one block at a time and then
// from its pending buffer. Either way the order within a partition is the one
// its file has once written, and the edge f is handed, and its encoding, are
// only valid during the call.
func (en *Engine) ForEach(f func(*storage.Edge) bool) error {
	for _, p := range en.parts {
		if mp := p.mem; mp != nil {
			for i := range mp.edges.len() {
				if !f(mp.edges.at(i)) {
					return nil
				}
			}
			continue
		}
		more, seen := true, int64(0)
		ioStart := time.Now()
		n, err := storage.VisitPart(p.path, func(e *storage.Edge) bool {
			seen++
			more = f(e)
			return more
		})
		// f's time is booked with the read it is interleaved with.
		en.ioDone("scan", p.id, n, time.Since(ioStart))
		if err != nil {
			return err
		}
		if more {
			if err := checkCount(p.path, seen, p.edges-int64(len(p.pending))); err != nil {
				return err
			}
		}
		for i := 0; more && i < len(p.pending); i++ {
			more = f(&p.pending[i])
		}
		if !more {
			return nil
		}
	}
	return nil
}

// EdgesAfter counts the edges of every partition, wherever they are.
func (en *Engine) EdgesAfter() int64 {
	var n int64
	for _, p := range en.parts {
		n += p.edges
	}
	return n
}
