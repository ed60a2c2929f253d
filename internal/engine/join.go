package engine

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/fsm"
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

// joinScratch is one join chunk's reusable buffers: the candidate batch the
// chunk produces, the buffer every candidate's path encoding is merged
// into, and the SMT-cache key scratch its probes encode into. The superstep
// loop is single-threaded, so a chunk's batch from superstep N is fully
// consumed (inserted) before superstep N+1 hands the same scratch to
// another goroutine; within a superstep each chunk owns its scratch
// exclusively.
type joinScratch struct {
	out    []candidate
	encBuf cfet.Enc
	keyBuf []byte
	// arena backs the encodings of the candidates that survive dedupe and
	// the solver. Unlike the buffers above it is never rewound: inserted
	// edges keep pointing into its chunks, which live exactly as long as
	// those edges do. Only the unused tail of the current chunk carries
	// over to the next superstep.
	arena cfet.Arena
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

// splitRange appends to dst the bounds of at most `workers` contiguous,
// near-equal chunks covering [0, n) — and never more chunks than elements,
// so a 3-edge frontier under 8 workers fans out to 3 single-edge chunks
// instead of serializing on one goroutine (the old clamp-to-1 behavior).
func splitRange(dst [][2]int, n, workers int) [][2]int {
	if n <= 0 || workers < 1 {
		return dst
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		dst = append(dst, [2]int{lo, hi})
	}
	return dst
}

// processPair loads partitions i and j, joins every consecutive edge pair
// (x->y, y->z) whose labels match a grammar production and whose combined
// path constraint is satisfiable, and adds the induced edges (paper §4.2,
// §4.3 "similar in spirit to table joining in relational algebra, but ...
// we need to consider the constraints of both assignment semantics and
// paths"). Returns the superstep's frontier size — how many source edges
// were eligible for joining — for the observability layer.
func (en *Engine) processPair(i, j int) (int, error) {
	// Make room for i, j; other cached partitions stay resident until the
	// memory budget forces them out, least-recently-used first.
	if err := en.ensureBudget(i, j); err != nil {
		return 0, err
	}
	pi, err := en.load(i)
	if err != nil {
		return 0, err
	}
	pj := pi
	if j != i {
		if pj, err = en.load(j); err != nil {
			return 0, err
		}
	}
	en.hot = [2]int{i, j}
	key := [2]int{en.parts[i].id, en.parts[j].id}
	last, seen := en.lastGen[key]
	en.curGen++
	gen := en.curGen

	// Collect source edges; semi-naive: at least one side must be new. The
	// frontier slice is reused across supersteps: the previous superstep's
	// frontier is dead by the time the loop comes back here (its candidates
	// were inserted before the superstep ended).
	firsts := en.firstsBuf[:0]
	collect := func(mp *memPart) {
		for k := range mp.edges {
			e := &mp.edges[k]
			if en.g.HasLeft(e.Label) {
				firsts = append(firsts, e)
			}
		}
	}
	collect(pi)
	if j != i {
		collect(pj)
	}
	en.firstsBuf = firsts

	lookup := func(src uint32) ([]int32, *memPart) {
		if src >= pi.meta.lo && src < pi.meta.hi {
			return pi.bySrc[src], pi
		}
		if j != i && src >= pj.meta.lo && src < pj.meta.hi {
			return pj.bySrc[src], pj
		}
		return nil, nil
	}

	chunks := splitRange(en.chunkBuf[:0], len(firsts), en.opts.Workers)
	en.chunkBuf = chunks
	for len(en.scratch) < len(chunks) {
		en.scratch = append(en.scratch, &joinScratch{})
	}
	var wg sync.WaitGroup
	for w, c := range chunks {
		wg.Add(1)
		go func(scr *joinScratch, lo, hi int) {
			defer wg.Done()
			en.joinRange(firsts[lo:hi], lookup, last, seen, gen, scr)
		}(en.scratch[w], c[0], c[1])
	}
	// While the join computes, start loading the partition the scheduler is
	// predicted to need next, so the next iteration's disk wait overlaps
	// this iteration's CPU work.
	if !en.opts.DisablePrefetch {
		en.speculate(i, j)
	}
	wg.Wait()

	// Insert candidates (single-threaded: dedupe set and partitions), in
	// chunk order — the order one worker would have produced them in.
	computeStart := time.Now()
	for _, scr := range en.scratch[:len(chunks)] {
		for k := range scr.out {
			en.insert(&scr.out[k].edge, scr.out[k].payload)
		}
	}
	en.bd.AddCompute(time.Since(computeStart))

	// Edges induced during this very iteration carry generation `gen` and
	// still need to be joined against everything, so the pair is processed
	// "up to" gen-1: it stays dirty exactly when this pass added edges.
	en.lastGen[key] = gen - 1

	if err := en.flushPending(false); err != nil {
		return 0, err
	}
	// Eager repartitioning (paper §4.3): split any loaded partition whose
	// byte size outgrew the budget. Split j before i: the split inserts a
	// partition right after the split position, which would shift j.
	if !en.opts.DeferRepartition {
		for _, idx := range []int{j, i} {
			if mp, ok := en.loaded[idx]; ok && mp.meta.bytes > en.opts.MemoryBudget/3 {
				if err := en.repartition(idx); err != nil {
					return 0, err
				}
			}
		}
	}
	return len(firsts), nil
}

// speculate predicts the pair the scheduler will pick once the current one
// goes clean and starts background loads for its unloaded members. The scan
// mirrors nextPair (hot scoring, same order) but skips the current pair —
// re-selecting it costs no I/O — and pairs already fully in memory. A wrong
// guess costs one stale or wasted prefetch, never correctness: prefetching
// only changes when bytes are read, not what the engine computes.
func (en *Engine) speculate(curI, curJ int) {
	best, bestScore := [2]int{-1, -1}, -1
	for i := 0; i < len(en.parts); i++ {
		for j := i; j < len(en.parts); j++ {
			if i == curI && j == curJ {
				continue
			}
			key := [2]int{en.parts[i].id, en.parts[j].id}
			last, seen := en.lastGen[key]
			if seen && en.parts[i].maxGen <= last && en.parts[j].maxGen <= last {
				continue
			}
			_, iLoaded := en.loaded[i]
			_, jLoaded := en.loaded[j]
			if iLoaded && jLoaded {
				continue
			}
			score := 0
			if i == curI || i == curJ {
				score++
			}
			if j == curI || j == curJ {
				score++
			}
			if score > bestScore {
				best, bestScore = [2]int{i, j}, score
			}
		}
	}
	if bestScore < 0 {
		return
	}
	for _, idx := range best {
		if _, ok := en.loaded[idx]; !ok {
			en.pf.start(en.parts[idx])
		}
	}
}

// appendEncCacheKey appends the memoization key of an encoding's raw
// elements to dst. Callers reuse dst across probes so a cache lookup costs
// no allocation; the key string is materialized only when the cache
// actually inserts an entry (smt.Cache.PutBytes).
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

// joinRange joins each first edge against the loaded second edges and
// leaves the constraint-validated candidates in scr.out. Runs concurrently;
// touches only read-only engine state plus its own solver and scratch.
func (en *Engine) joinRange(firsts []*storage.Edge, lookup func(uint32) ([]int32, *memPart), last uint32, seen bool, gen uint32, scr *joinScratch) {
	solver := smt.New(en.opts.SolverOpts)
	out := scr.out[:0]
	encBuf, keyBuf := scr.encBuf, scr.keyBuf
	var cacheLookups, cacheHits, conflicts, unsats int64
	// No clock is read per candidate: Merge is timed on every
	// mergeTimeStride-th one and the total extrapolated from the sample, so
	// Figure 9's "constraint lookup" share survives without two time.Now()
	// calls around an operation that takes less than they do. Cache misses
	// are rare and expensive enough to time individually; all of it
	// accumulates here and reaches the shared counters once per chunk.
	var merges, mergesTimed int64
	var mergeTimed, decodeTime, solveTime time.Duration
	computeStart := time.Now()
	for _, e1 := range firsts {
		idxs, mp := lookup(e1.Dst)
		if mp == nil {
			continue
		}
		for _, k := range idxs {
			e2 := &mp.edges[k]
			if seen && e1.Gen <= last && e2.Gen <= last {
				continue // both sides already joined in a prior iteration
			}
			heads := en.g.MatchBinary(e1.Label, e2.Label)
			if len(heads) == 0 {
				continue
			}
			timed := merges%mergeTimeStride == 0
			var mergeStart time.Time
			if timed {
				mergeStart = time.Now()
			}
			enc, ok := en.ic.AppendMerge(encBuf[:0], e1.Enc, e2.Enc)
			if timed {
				mergeTimed += time.Since(mergeStart)
				mergesTimed++
			}
			merges++
			encBuf = enc
			if !ok {
				conflicts++
				continue
			}
			// Global-dedupe pre-check against the frozen index (see
			// hasKey); insert re-checks each survivor against the index
			// as it grows.
			cand := storage.Edge{Src: e1.Src, Dst: e2.Dst, Gen: gen, HasRel: en.opts.UseRel, Enc: enc}
			if cand.HasRel {
				cand.Rel = fsm.Compose(e1.Rel, e2.Rel)
			}
			payload := cand.PayloadHash()
			allDup := true
			for _, h := range heads {
				if !en.hasKey(storage.KeyOf(cand.Src, cand.Dst, h, payload)) {
					allDup = false
					break
				}
			}
			if allDup {
				continue
			}
			if len(enc) > 0 {
				// Constraint memoization keyed by the encoded path (paper
				// §4.3: "using encoded paths as the keys"): a hit skips
				// both decoding and solving. The key is encoded into the
				// chunk's scratch buffer and probed with byte-key lookups,
				// so a probe per join candidate costs no allocation; the
				// key string only materializes when a miss inserts a new
				// entry.
				var verdict smt.Result
				hit := false
				if en.cache != nil {
					cacheLookups++
					keyBuf = append(keyBuf[:0], en.opts.CacheKeyPrefix...)
					keyBuf = appendEncCacheKey(keyBuf, enc)
					verdict, hit = en.cache.GetBytes(keyBuf)
					if hit {
						cacheHits++
					}
				}
				if !hit {
					decodeStart := time.Now()
					conj, derr := en.ic.Decode(enc)
					decodeTime += time.Since(decodeStart)
					verdict = smt.Sat
					if derr == nil && len(conj) > 0 {
						solveStart := time.Now()
						verdict = solver.Solve(conj)
						d := time.Since(solveStart)
						solveTime += d
						en.solve.Observe(d)
					}
					if en.cache != nil {
						en.cache.PutBytes(keyBuf, verdict)
					}
				}
				if verdict == smt.Unsat {
					unsats++
					continue
				}
			}
			// Survivor: only now does the encoding leave the merge buffer.
			cand.Enc = scr.keep(enc)
			for _, h := range heads {
				cand.Label = h
				out = append(out, candidate{edge: cand, payload: payload})
			}
		}
	}
	en.bd.AddCompute(time.Since(computeStart))
	if mergesTimed > 0 {
		decodeTime += time.Duration(int64(mergeTimed) * merges / mergesTimed)
	}
	en.bd.AddDecode(decodeTime)
	en.bd.AddSolve(solveTime)
	scr.out, scr.encBuf, scr.keyBuf = out, encBuf, keyBuf
	en.mu.Lock()
	en.stats.ConstraintsSolved += solver.Calls
	en.stats.CacheLookups += cacheLookups
	en.stats.CacheHits += cacheHits
	en.stats.RejectedConflict += conflicts
	en.stats.RejectedUnsat += unsats
	en.stats.SolveTime += solveTime
	en.mu.Unlock()
}

// hasKey probes the global dedupe index without a lock. That is safe from
// join workers because the index is frozen while they run: en.keys and
// en.variants are written only by preprocess, by resume, and by insert, and
// processPair calls insert only after wg.Wait() has seen every worker of the
// superstep return.
func (en *Engine) hasKey(k uint64) bool {
	_, ok := en.keys[k]
	return ok
}

// insert adds one induced edge and its unary/mirror expansions to their
// owning partitions, honoring the per-endpoint variant cap. payload is e's
// storage.PayloadHash.
func (en *Engine) insert(e *storage.Edge, payload uint64) {
	for _, d := range en.expansion(e.Label) {
		src, dst := d.endpoints(e)
		k := storage.KeyOf(src, dst, d.label, payload)
		if _, dup := en.keys[k]; dup {
			continue
		}
		v := *e
		v.Src, v.Dst, v.Label = src, dst, d.label
		ep := v.Endpoint()
		if en.variants[ep] >= en.opts.MaxVariants && len(v.Enc) > 0 {
			// Widen: drop interval (branch) precision but keep call/return
			// structure — erasing it would let composed paths enter a
			// callee through one call-edge instance and exit through
			// another, stitching execution fragments no single run can
			// connect. Only past twice the cap does the edge widen to the
			// fully unconstrained variant. The skeleton is hashed in place
			// and built only if the widened edge turns out to be new.
			skHash, skLen := v.SkeletonPayloadHash()
			skeleton := skLen > 0 && en.variants[ep] < 2*en.opts.MaxVariants
			if skeleton {
				k = storage.KeyOf(src, dst, d.label, skHash)
			} else {
				v.Enc = nil
				k = v.Key()
			}
			if _, dup := en.keys[k]; dup {
				continue
			}
			if skeleton {
				v.Enc = v.Enc.Skeleton()
			}
			en.mu.Lock()
			en.stats.Widened++
			en.mu.Unlock()
		}
		en.keys[k] = struct{}{}
		en.variants[ep]++
		sz := storage.RecordSize(&v)
		owner := en.partOf(v.Src)
		if mp, ok := en.loaded[owner]; ok {
			mp.add(v, sz)
			continue
		}
		// Buffer for an unloaded partition ("new edges are written into the
		// partitions that contain their source vertices").
		en.pending[owner] = append(en.pending[owner], v)
		meta := en.parts[owner]
		meta.edges++
		meta.bytes += sz
		if v.Gen > meta.maxGen {
			meta.maxGen = v.Gen
		}
	}
}

// repartition splits partition idx at its median source vertex (paper §4.3
// "oversized partitions get dynamically repartitioned").
func (en *Engine) repartition(idx int) error {
	mp, ok := en.loaded[idx]
	if !ok {
		return nil
	}
	meta := mp.meta
	if meta.hi-meta.lo <= 1 || len(mp.edges) < 2 {
		return nil // cannot split a single-vertex interval
	}
	srcs := make([]uint32, len(mp.edges))
	for i := range mp.edges {
		srcs[i] = mp.edges[i].Src
	}
	sort.Slice(srcs, func(a, b int) bool { return srcs[a] < srcs[b] })
	mid := srcs[len(srcs)/2]
	if mid <= meta.lo {
		mid = meta.lo + (meta.hi-meta.lo)/2
	}
	if mid <= meta.lo || mid >= meta.hi {
		return nil
	}
	en.mu.Lock()
	en.stats.Repartitions++
	en.mu.Unlock()

	// Low half stays in the existing partition; the high half becomes a new
	// partition appended at the end of the table. Vertex->partition mapping
	// uses interval search, so ordering of en.parts by interval must be
	// maintained: insert the new partition right after idx.
	var loEdges, hiEdges []storage.Edge
	var loBytes, hiBytes int64
	var loGen, hiGen uint32
	for i := range mp.edges {
		sz := storage.RecordSize(&mp.edges[i])
		if mp.edges[i].Src < mid {
			loEdges = append(loEdges, mp.edges[i])
			loBytes += sz
			if mp.edges[i].Gen > loGen {
				loGen = mp.edges[i].Gen
			}
		} else {
			hiEdges = append(hiEdges, mp.edges[i])
			hiBytes += sz
			if mp.edges[i].Gen > hiGen {
				hiGen = mp.edges[i].Gen
			}
		}
	}
	newMeta := &partMeta{
		id:    en.nextPartID(),
		lo:    mid,
		hi:    meta.hi,
		path:  en.partPath(),
		edges: int64(len(hiEdges)), bytes: hiBytes, maxGen: hiGen,
	}
	meta.hi = mid
	meta.edges = int64(len(loEdges))
	meta.bytes = loBytes
	meta.maxGen = loGen
	if en.jw != nil {
		// Shrinking the low half under its original path would be the one
		// write that destroys a checkpointed file prefix. Redirect the
		// survivor to a fresh path instead: the pre-split file stays frozen
		// on disk (the last journal record still references it) until a
		// newer record supersedes it. Repartitions is already incremented,
		// so the suffix is unique for the run.
		meta.path = filepath.Join(en.opts.Dir,
			fmt.Sprintf("part-%06d-r%06d.edges", meta.id, en.stats.Repartitions))
	}

	// Persist the new partition; keep the low half loaded.
	ioStart := time.Now()
	n, err := storage.WritePart(newMeta.path, hiEdges, storage.PartInfo{Lo: newMeta.lo, Hi: newMeta.hi})
	if err != nil {
		return err
	}
	d := time.Since(ioStart)
	en.bd.AddIO(d)
	en.io.AddWrite(n)
	en.traceIO("write", newMeta.id, n, d)
	if en.opts.Trace.Enabled() {
		en.opts.Trace.Instant(en.opts.TraceTID, "engine", "repartition",
			trace.Args{"part": meta.id, "newPart": newMeta.id, "mid": mid})
	}

	mp.edges = loEdges
	mp.bySrc = buildBySrc(loEdges)
	mp.dirty = true

	// Insert newMeta right after idx to keep interval order.
	en.mu.Lock()
	en.parts = append(en.parts, nil)
	copy(en.parts[idx+2:], en.parts[idx+1:])
	en.parts[idx+1] = newMeta
	en.mu.Unlock()

	// Loaded and pending maps are indexed by position; remap anything at or
	// beyond the insertion point.
	en.remapAfterInsert(idx + 1)
	return nil
}

func (en *Engine) nextPartID() int {
	max := -1
	for _, p := range en.parts {
		if p.id > max {
			max = p.id
		}
	}
	return max + 1
}

func (en *Engine) partPath() string {
	return en.opts.Dir + "/" + "part-" + itoa6(en.nextPartID()) + ".edges"
}

func itoa6(n int) string {
	buf := []byte("000000")
	for i := 5; i >= 0 && n > 0; i-- {
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf)
}

// remapAfterInsert shifts position-indexed maps after inserting a partition
// at position pos.
func (en *Engine) remapAfterInsert(pos int) {
	newLoaded := make(map[int]*memPart, len(en.loaded))
	for idx, mp := range en.loaded {
		if idx >= pos {
			newLoaded[idx+1] = mp
		} else {
			newLoaded[idx] = mp
		}
	}
	en.loaded = newLoaded
	newPending := make(map[int][]storage.Edge, len(en.pending))
	for idx, p := range en.pending {
		if idx >= pos {
			newPending[idx+1] = p
		} else {
			newPending[idx] = p
		}
	}
	en.pending = newPending
	for k, idx := range en.hot {
		if idx >= pos {
			en.hot[k] = idx + 1
		}
	}
	// lastGen is keyed by stable partition IDs, not positions: safe. The
	// prefetcher is keyed by *partMeta pointers, equally stable.
}

// ForEach streams every edge of the closed graph from disk (after Run).
func (en *Engine) ForEach(f func(*storage.Edge) bool) error {
	for _, meta := range en.parts {
		edges, _, _, err := storage.ReadPartWith(meta.path, nil, en.readOpts)
		if err != nil {
			return err
		}
		for i := range edges {
			if !f(&edges[i]) {
				return nil
			}
		}
	}
	return nil
}

// EdgesAfter counts all edges on disk (after Run).
func (en *Engine) EdgesAfter() int64 {
	var n int64
	for _, meta := range en.parts {
		n += meta.edges
	}
	return n
}
