// Package engine implements Grapple's single-machine, disk-based graph
// computation (paper §4.3): vertex-interval partitions on SSD, an edge-pair-
// centric join that loads two partitions per iteration, constraint-guided
// edge induction (grammar match + path-encoding merge + SMT check), eager
// repartitioning, semi-naive scheduling, and LRU constraint memoization.
package engine

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/faultpoint"
	"github.com/grapple-system/grapple/internal/grammar"
	"github.com/grapple-system/grapple/internal/metrics"
	"github.com/grapple-system/grapple/internal/smt"
	"github.com/grapple-system/grapple/internal/storage"
	"github.com/grapple-system/grapple/internal/trace"
)

// Options configures the engine.
type Options struct {
	// Dir is the on-disk partition directory.
	Dir string
	// MemoryBudget bounds the bytes of edge data held in memory; any two
	// partitions loaded together must fit (paper §4.3). Zero means 256 MiB.
	MemoryBudget int64
	// Workers is the edge-induction parallelism; zero means GOMAXPROCS.
	Workers int
	// CacheSize is the constraint-memoization LRU capacity; zero means the
	// default, negative disables memoization (Table 4's "without caching").
	CacheSize int
	// Cache, when non-nil, is an externally-owned constraint cache shared
	// with other engine instances (the batch scheduler's single cross-
	// instance memo store). It overrides CacheSize.
	Cache *smt.Cache
	// CacheKeyPrefix namespaces this engine's memoization keys. Encoded-
	// path keys are positional (method/call indices of one compilation
	// unit's ICFET), so two different programs produce colliding keys for
	// unrelated constraints; when a Cache is shared across programs, every
	// engine working on the same compilation unit must use the same prefix
	// and engines on different units must use different ones.
	CacheKeyPrefix string
	// SolverOpts tunes the SMT solver.
	SolverOpts smt.Options
	// MaxVariants caps distinct constraint variants kept per (src, dst,
	// label); beyond it the edge widens to the unconstrained variant. Zero
	// means 6.
	MaxVariants int
	// UseRel composes FSM transition relations along induced edges
	// (dataflow/typestate graphs).
	UseRel bool
	// DeferRepartition delays splitting oversized partitions until the end
	// of the whole computation instead of splitting eagerly after each
	// iteration. The paper adopts eager repartitioning (§4.3) because
	// variable-sized edge data unbalances partitions quickly; this option
	// exists for the ablation benchmark.
	DeferRepartition bool
	// Journal makes superstep state durable: each checkpoint flushes every
	// partition and appends one record to a per-run journal in Dir, so a
	// killed run can continue via ResumeContext. Journaling never changes
	// results — only whether progress survives a crash.
	Journal bool
	// JournalEvery checkpoints every N supersteps; zero or one means every
	// superstep. Larger values trade re-computable work for journal I/O.
	JournalEvery int
	// JournalTag fingerprints the run's inputs. ResumeContext refuses a
	// journal whose tag differs (ErrStale): same directory, different graph.
	JournalTag uint64
	// Faults is the crash-injection switchboard threaded through the
	// checkpoint and journal write sites; nil (the default) is inert.
	Faults *faultpoint.Set
	// Trace, when non-nil, receives a span per superstep and checkpoint and
	// an instant per partition load/write/append. Tracing is observation
	// only: it never alters pair scheduling, insertion order, widening, or
	// reports.
	Trace *trace.Recorder
	// TraceTID is the trace thread lane this engine's events land on
	// (allocated by Recorder.Thread); zero is the process root lane.
	TraceTID uint64
	// Progress, when non-nil, receives one update per superstep for the
	// heartbeat and status.json machinery. Observation only, like Trace.
	Progress *trace.Progress
}

// Stats reports everything the evaluation tables need.
type Stats struct {
	EdgesBefore       int64
	EdgesAfter        int64
	Iterations        int64 // partition-pair computations
	Partitions        int   // final partition count
	Repartitions      int64
	ConstraintsSolved int64 // solver invocations (cache misses)
	CacheLookups      int64
	CacheHits         int64
	RejectedUnsat     int64 // candidate edges pruned by path sensitivity
	RejectedConflict  int64 // pruned structurally by encoding merge
	Widened           int64 // variants widened at the per-endpoint cap
	Checkpoints       int64 // journal records made durable (0 when not journaling)
	JournalBytes      int64 // bytes appended to the run journal
	PreprocessTime    time.Duration
	ComputeTime       time.Duration
	SolveTime         time.Duration // summed across workers
	// SolveLatency is the per-call SMT solve latency histogram (cache misses
	// only), bucketed by metrics.SolveLatencyBuckets.
	SolveLatency metrics.LatencyCounts
	// IO reports the partition store's traffic: bytes moved, cache and
	// prefetch effectiveness, and the perceived load-latency histogram.
	IO metrics.IOSnapshot
}

// partMeta describes one on-disk partition.
type partMeta struct {
	id     int
	lo, hi uint32 // vertex interval [lo, hi)
	path   string
	edges  int64
	bytes  int64
	maxGen uint32
}

// memPart is a loaded partition.
type memPart struct {
	meta  *partMeta
	edges []storage.Edge
	bySrc map[uint32][]int32
	dirty bool
	// lastUse is the engine's logical clock at the partition's most recent
	// load or cache hit; ensureBudget evicts the smallest value first.
	lastUse int64
}

// buildBySrc indexes edges by source vertex, CSR-style — counting pass, one
// shared backing array, capped subslices — so a partition load costs two
// allocations for the index instead of one per distinct source. The capped
// subslices make later appends by memPart.add spill into fresh arrays,
// never into a neighbor's range. Indices appear in increasing edge order.
func buildBySrc(edges []storage.Edge) map[uint32][]int32 {
	counts := make(map[uint32]int32, 64)
	for i := range edges {
		counts[edges[i].Src]++
	}
	backing := make([]int32, 0, len(edges))
	out := make(map[uint32][]int32, len(counts))
	for i := range edges {
		src := edges[i].Src
		s, ok := out[src]
		if !ok {
			lo := len(backing)
			hi := lo + int(counts[src])
			backing = backing[:hi]
			s = backing[lo:lo:hi]
		}
		out[src] = append(s, int32(i))
	}
	return out
}

// owns reports whether vertex v lies in the partition's interval.
func (mp *memPart) owns(v uint32) bool { return v >= mp.meta.lo && v < mp.meta.hi }

func (mp *memPart) add(e storage.Edge, sz int64) {
	idx := int32(len(mp.edges))
	mp.edges = append(mp.edges, e)
	mp.bySrc[e.Src] = append(mp.bySrc[e.Src], idx)
	mp.meta.edges++
	mp.meta.bytes += sz
	if e.Gen > mp.meta.maxGen {
		mp.meta.maxGen = e.Gen
	}
	mp.dirty = true
}

// Engine runs one analysis (one graph) to fixpoint.
type Engine struct {
	opts  Options
	ic    *cfet.ICFET
	g     *grammar.Grammar
	bd    *metrics.Breakdown
	cache *smt.Cache
	io    *metrics.IOStats
	pf    *prefetcher

	parts   []*partMeta
	loaded  map[int]*memPart
	lastGen map[[2]int]uint32
	curGen  uint32
	// hot is the most recently processed pair (positions, remapped across
	// repartitions). nextPair scores against hot — not against the LRU
	// cache's contents — so pair scheduling is exactly what it was before
	// partitions could stay cached beyond the active pair: determinism of
	// insertion order (and thus of widening and reports) is preserved.
	hot [2]int
	// tick is the logical clock behind memPart.lastUse.
	tick int64

	// keys globally dedupes edges (an in-memory index, like the ICFET) by
	// storage.Edge.Key. Written only between parallel join phases (see
	// hasKey).
	keys map[uint64]struct{}
	// variants counts constraint variants per endpoint triple.
	variants map[storage.Endpoint]int

	// expansions[l] is the closure of label l under the grammar's unary and
	// mirror productions, built once in New.
	expansions [][]derivation

	// pending buffers edges owned by unloaded partitions.
	pending map[int][]storage.Edge

	// noPrefetch keeps speculate from starting background loads. Prefetching
	// never changes results or scheduling — only whether the join waits on
	// the disk — and only this package's tests set this, to run the
	// reference they hold that claim to.
	noPrefetch bool

	// Join scratch reused across supersteps: the superstep loop is
	// single-threaded, so by the time processPair runs again the previous
	// superstep's frontier, chunk records, and per-worker candidate batches
	// have all been consumed.
	firstsBuf []*storage.Edge
	chunkBuf  []joinChunk
	scratch   []*joinScratch

	// jw is the run journal while Options.Journal is on (or after resume);
	// jseq numbers the next checkpoint record.
	jw   *storage.JournalWriter
	jseq uint64

	// solve histograms per-call SMT latencies (internally atomic).
	solve metrics.SolveHist

	// stats and parts are written by the run goroutine under mu so that
	// Stats() can be called concurrently with a running computation (the
	// progress heartbeat and debug server do exactly that).
	stats Stats
	mu    sync.Mutex
}

// New creates an engine over an ICFET index and a grammar.
func New(ic *cfet.ICFET, g *grammar.Grammar, opts Options, bd *metrics.Breakdown) *Engine {
	if opts.MemoryBudget <= 0 {
		opts.MemoryBudget = 256 << 20
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxVariants <= 0 {
		opts.MaxVariants = 6
	}
	if bd == nil {
		bd = &metrics.Breakdown{}
	}
	io := &metrics.IOStats{}
	e := &Engine{
		opts:     opts,
		ic:       ic,
		g:        g,
		bd:       bd,
		io:       io,
		pf:       newPrefetcher(io),
		loaded:   map[int]*memPart{},
		lastGen:  map[[2]int]uint32{},
		keys:     map[uint64]struct{}{},
		variants: map[storage.Endpoint]int{},
		pending:  map[int][]storage.Edge{},
		hot:      [2]int{-1, -1},
	}
	e.expansions = make([][]derivation, g.NumLabels())
	for l := range e.expansions {
		e.expansions[l] = buildExpansion(g, grammar.Label(l))
	}
	switch {
	case opts.Cache != nil:
		e.cache = opts.Cache
	case opts.CacheSize >= 0:
		e.cache = smt.NewCache(opts.CacheSize)
	}
	return e
}

// Stats returns a snapshot of the engine's counters. Cache lookups and hits
// are counted by this engine's own probes, so they stay per-instance even
// when Options.Cache shares one store across many engines. Safe to call
// while RunContext is executing on another goroutine.
func (en *Engine) Stats() Stats {
	en.mu.Lock()
	s := en.stats
	s.Partitions = len(en.parts)
	en.mu.Unlock()
	s.SolveLatency = en.solve.Snapshot()
	s.IO = en.io.Snapshot()
	return s
}

// Run computes the transitive closure from the initial edges, then leaves
// the full closed graph on disk. numVertices sizes the partition space.
func (en *Engine) Run(initial []storage.Edge, numVertices uint32) (*Stats, error) {
	return en.RunContext(context.Background(), initial, numVertices)
}

// RunContext is Run with cooperative cancellation: the fixpoint loop checks
// ctx between partition-pair iterations and returns ctx.Err() once it is
// done, leaving any partially-computed partitions on disk.
func (en *Engine) RunContext(ctx context.Context, initial []storage.Edge, numVertices uint32) (*Stats, error) {
	start := time.Now()
	// On every exit path, wait out in-flight background loads so no
	// goroutine outlives the run.
	defer en.pf.drain()
	if err := os.MkdirAll(en.opts.Dir, 0o755); err != nil {
		return nil, err
	}
	if en.opts.Journal {
		// A cold journaled start owns the directory: stale partitions or a
		// journal from a previous run must not interleave with this one.
		if err := en.clearRunDir(); err != nil {
			return nil, err
		}
	}
	sp := en.opts.Trace.Start(en.opts.TraceTID, "engine", "preprocess")
	if err := en.preprocess(initial, numVertices); err != nil {
		return nil, err
	}
	sp.End(trace.Args{"edges": en.stats.EdgesBefore, "partitions": len(en.parts)})
	if en.opts.Journal {
		if err := en.startJournal(numVertices); err != nil {
			en.closeJournal()
			return nil, err
		}
	}
	en.mu.Lock()
	en.stats.PreprocessTime = time.Since(start)
	en.mu.Unlock()
	return en.runLoop(ctx)
}

// runLoop drives partition-pair iterations to fixpoint. Both cold starts
// (RunContext) and resumed runs (ResumeContext) finish through here.
func (en *Engine) runLoop(ctx context.Context) (*Stats, error) {
	computeStart := time.Now()
	observe := en.opts.Trace.Enabled() || en.opts.Progress != nil
	for {
		if err := ctx.Err(); err != nil {
			// Leave a final record so a deadline-killed run resumes from
			// right here instead of the last JournalEvery boundary.
			en.journalOnCancel()
			en.closeJournal()
			return nil, err
		}
		i, j, ok := en.nextPair()
		if !ok {
			break
		}
		sp := en.opts.Trace.Start(en.opts.TraceTID, "engine", "superstep")
		firsts, err := en.processPair(i, j)
		if err != nil {
			en.closeJournal()
			return nil, err
		}
		en.mu.Lock()
		en.stats.Iterations++
		en.mu.Unlock()
		if observe {
			en.observeSuperstep(sp, i, j, firsts)
		}
		if en.jw != nil && en.stats.Iterations%en.journalEvery() == 0 {
			if err := en.opts.Faults.Hit(faultpoint.EngineCheckpointPre); err != nil {
				en.closeJournal()
				return nil, err
			}
			if err := en.checkpoint(false); err != nil {
				en.closeJournal()
				return nil, err
			}
		}
	}
	if en.jw != nil {
		if err := en.checkpoint(true); err != nil {
			en.closeJournal()
			return nil, err
		}
	}
	// Drain before the final snapshot so never-consumed prefetches are
	// counted as wasted in the returned stats.
	en.pf.drain()
	if err := en.evictAll(); err != nil {
		return nil, err
	}
	en.mu.Lock()
	en.stats.ComputeTime = time.Since(computeStart)
	en.mu.Unlock()
	after := en.EdgesAfter()
	en.mu.Lock()
	en.stats.EdgesAfter = after
	en.mu.Unlock()
	s := en.Stats()
	return &s, nil
}

// observeSuperstep emits the completed superstep's trace span and progress
// update. Everything here is a pure read over engine state: the dirty-pair
// count replays nextPair's dirtiness test without its scoring or early
// return, so observation can never perturb the schedule (and with it
// insertion order, widening, or reports).
func (en *Engine) observeSuperstep(sp trace.Span, i, j, firsts int) {
	dirty := en.dirtyPairs()
	edges := en.EdgesAfter()
	en.mu.Lock()
	s := en.stats
	en.mu.Unlock()
	sp.End(trace.Args{
		"pair":         trace.Pair(i, j),
		"frontier":     firsts,
		"dirtyPairs":   dirty,
		"edges":        edges,
		"solved":       s.ConstraintsSolved,
		"cacheHits":    s.CacheHits,
		"cacheLookups": s.CacheLookups,
		"journalBytes": s.JournalBytes,
	})
	en.opts.Progress.Update(trace.EngineUpdate{
		Frontier:   int64(firsts),
		DirtyPairs: int64(dirty),
		Edges:      edges,
		Solved:     s.ConstraintsSolved,
		CacheHits:  s.CacheHits,
		CacheLkps:  s.CacheLookups,
		IO:         en.io.Snapshot(),
	})
}

// dirtyPairs counts partition pairs still scheduled for (re)processing. It
// is nextPair's dirtiness test verbatim, minus scoring and selection.
func (en *Engine) dirtyPairs() int {
	n := 0
	for i := 0; i < len(en.parts); i++ {
		for j := i; j < len(en.parts); j++ {
			key := [2]int{en.parts[i].id, en.parts[j].id}
			last, seen := en.lastGen[key]
			if seen && en.parts[i].maxGen <= last && en.parts[j].maxGen <= last {
				continue
			}
			n++
		}
	}
	return n
}

// preprocess expands initial edges through unary/mirror productions,
// dedupes, and writes the first generation of partitions sized to the
// memory budget (paper §4.3 "a preprocessing step partitions the input
// graph ... such that any two partitions, if loaded together, would not
// exceed the memory capacity").
func (en *Engine) preprocess(initial []storage.Edge, numVertices uint32) error {
	var all []storage.Edge
	for _, e := range initial {
		e.Gen = 0
		payload := e.PayloadHash()
		for _, d := range en.expansion(e.Label) {
			v := e
			v.Src, v.Dst = d.endpoints(&e)
			v.Label = d.label
			k := storage.KeyOf(v.Src, v.Dst, v.Label, payload)
			if _, dup := en.keys[k]; dup {
				continue
			}
			en.keys[k] = struct{}{}
			en.variants[v.Endpoint()]++
			all = append(all, v)
		}
	}
	en.mu.Lock()
	en.stats.EdgesBefore = int64(len(all))
	en.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].Src != all[j].Src {
			return all[i].Src < all[j].Src
		}
		return all[i].Dst < all[j].Dst
	})
	// Chunk by bytes so each partition stays under half the budget.
	limit := en.opts.MemoryBudget / 4 // headroom: partitions grow during compute
	var cur []storage.Edge
	var curBytes int64
	var lo uint32
	flushPart := func(hi uint32) error {
		if hi <= lo && len(en.parts) > 0 {
			return nil
		}
		meta := &partMeta{
			id: len(en.parts), lo: lo, hi: hi,
			path: filepath.Join(en.opts.Dir, fmt.Sprintf("part-%06d.edges", len(en.parts))),
		}
		for i := range cur {
			meta.bytes += storage.RecordSize(&cur[i])
		}
		meta.edges = int64(len(cur))
		ioStart := time.Now()
		n, err := storage.WritePart(meta.path, cur, storage.PartInfo{Lo: meta.lo, Hi: meta.hi})
		if err != nil {
			return err
		}
		d := time.Since(ioStart)
		en.bd.AddIO(d)
		en.io.AddWrite(n)
		en.traceIO("write", meta.id, n, d)
		en.mu.Lock()
		en.parts = append(en.parts, meta)
		en.mu.Unlock()
		cur, curBytes = nil, 0
		lo = hi
		return nil
	}
	for i := 0; i < len(all); {
		src := all[i].Src
		j := i
		var groupBytes int64
		for ; j < len(all) && all[j].Src == src; j++ {
			groupBytes += storage.RecordSize(&all[j])
		}
		if curBytes > 0 && curBytes+groupBytes > limit {
			if err := flushPart(src); err != nil {
				return err
			}
		}
		cur = append(cur, all[i:j]...)
		curBytes += groupBytes
		i = j
	}
	if numVertices == 0 {
		numVertices = 1
	}
	if err := flushPart(numVertices); err != nil {
		return err
	}
	if len(en.parts) == 0 {
		meta := &partMeta{id: 0, lo: 0, hi: numVertices,
			path: filepath.Join(en.opts.Dir, "part-000000.edges")}
		n, err := storage.WritePart(meta.path, nil, storage.PartInfo{Lo: meta.lo, Hi: meta.hi})
		if err != nil {
			return err
		}
		en.io.AddWrite(n)
		en.mu.Lock()
		en.parts = append(en.parts, meta)
		en.mu.Unlock()
	}
	// Widen the last partition to cover the whole vertex space.
	en.parts[len(en.parts)-1].hi = numVertices
	return nil
}

// derivation is one member of an edge's closure under unary and mirror
// productions, relative to the edge: the label it takes and whether its
// endpoints are reversed (an odd number of mirrors).
type derivation struct {
	label   grammar.Label
	swapped bool
}

// endpoints returns the derivation's endpoints for edge e.
func (d derivation) endpoints(e *storage.Edge) (src, dst uint32) {
	if d.swapped {
		return e.Dst, e.Src
	}
	return e.Src, e.Dst
}

// buildExpansion closes label l under g's unary and mirror productions,
// breadth-first: the label itself first, then for each member its unary
// heads in production order and then its mirror, each derivation once. A
// label reached in both orientations is listed twice; on a self-loop those
// are one edge, and the dedupe index drops the second like any duplicate.
func buildExpansion(g *grammar.Grammar, l grammar.Label) []derivation {
	out := []derivation{{label: l}}
	add := func(d derivation) {
		if !slices.Contains(out, d) {
			out = append(out, d)
		}
	}
	for i := 0; i < len(out); i++ {
		cur := out[i]
		for _, head := range g.MatchUnary(cur.label) {
			add(derivation{label: head, swapped: cur.swapped})
		}
		if m := g.Mirror(cur.label); m != grammar.NoLabel {
			add(derivation{label: m, swapped: !cur.swapped})
		}
	}
	return out
}

// expansion returns the derivations of an edge labeled l, itself first.
func (en *Engine) expansion(l grammar.Label) []derivation {
	if int(l) < len(en.expansions) {
		return en.expansions[l]
	}
	// A label the grammar never interned (hand-built test edges).
	return buildExpansion(en.g, l)
}

// partOf maps a vertex to its owning partition index.
func (en *Engine) partOf(v uint32) int {
	lo, hi := 0, len(en.parts)
	for lo < hi {
		mid := (lo + hi) / 2
		if v < en.parts[mid].lo {
			hi = mid
		} else if v >= en.parts[mid].hi {
			lo = mid + 1
		} else {
			return mid
		}
	}
	return len(en.parts) - 1
}

// nextPair returns a dirty partition pair, favoring the hot pair — the two
// partitions the previous iteration worked on. Scoring against hot rather
// than the LRU cache's contents keeps the schedule (and so insertion order,
// widening, and reports) independent of how many partitions happen to fit
// in memory.
func (en *Engine) nextPair() (int, int, bool) {
	best, bestScore := [2]int{-1, -1}, -1
	for i := 0; i < len(en.parts); i++ {
		for j := i; j < len(en.parts); j++ {
			key := [2]int{en.parts[i].id, en.parts[j].id}
			last, seen := en.lastGen[key]
			if seen && en.parts[i].maxGen <= last && en.parts[j].maxGen <= last {
				continue
			}
			score := 0
			if i == en.hot[0] || i == en.hot[1] {
				score++
			}
			if j == en.hot[0] || j == en.hot[1] {
				score++
			}
			if score > bestScore {
				best, bestScore = [2]int{i, j}, score
				if score == 2 {
					return best[0], best[1], true
				}
			}
		}
	}
	if bestScore < 0 {
		return 0, 0, false
	}
	return best[0], best[1], true
}

// load brings a partition into memory, serving from the LRU cache or a
// completed prefetch when possible.
func (en *Engine) load(idx int) (*memPart, error) {
	en.tick++
	if mp, ok := en.loaded[idx]; ok {
		mp.lastUse = en.tick
		en.io.CacheHit()
		return mp, nil
	}
	meta := en.parts[idx]
	var edges []storage.Edge
	var info storage.PartInfo
	if res, waited, ok := en.pf.take(meta); ok {
		edges, info = res.edges, res.info
		// The join only waited this long; the disk time itself overlapped
		// the previous iteration's computation.
		en.bd.AddIO(waited)
		en.io.PrefetchHit(res.bytes, waited)
		en.traceIO("prefetch-hit", meta.id, res.bytes, waited)
	} else {
		ioStart := time.Now()
		var n int64
		var err error
		// meta.edges counts the file's edges plus the pending ones merged
		// below: one allocation holds the loaded partition.
		edges, info, n, err = storage.ReadPart(meta.path, make([]storage.Edge, 0, meta.edges))
		if err != nil {
			return nil, err
		}
		d := time.Since(ioStart)
		en.bd.AddIO(d)
		en.io.AddRead(n, d)
		en.traceIO("load", meta.id, n, d)
	}
	// Cross-check the file's recorded vertex interval against the partition
	// table (a swapped or stale file decodes cleanly but holds the wrong
	// vertices). The header's hi may lag meta.hi: preprocess widens the last
	// partition's interval after its file is written.
	if info.Lo != 0 || info.Hi != 0 {
		if info.Lo != meta.lo || info.Hi > meta.hi {
			return nil, fmt.Errorf("engine: %s: header interval [%d,%d) does not match partition %d's [%d,%d)",
				meta.path, info.Lo, info.Hi, meta.id, meta.lo, meta.hi)
		}
	}
	// Merge pending appends.
	if p := en.pending[idx]; len(p) > 0 {
		edges = append(edges, p...)
		delete(en.pending, idx)
	}
	mp := &memPart{meta: meta, edges: edges, bySrc: buildBySrc(edges), lastUse: en.tick}
	en.loaded[idx] = mp
	return mp, nil
}

// evict writes a loaded partition back to disk (if dirty) and drops it from
// memory.
func (en *Engine) evict(idx int) error {
	mp, ok := en.loaded[idx]
	if !ok {
		return nil
	}
	if mp.dirty {
		en.pf.invalidate(mp.meta)
		ioStart := time.Now()
		n, err := storage.WritePart(mp.meta.path, mp.edges, storage.PartInfo{Lo: mp.meta.lo, Hi: mp.meta.hi})
		if err != nil {
			return err
		}
		d := time.Since(ioStart)
		en.bd.AddIO(d)
		en.io.AddWrite(n)
		en.traceIO("write", mp.meta.id, n, d)
	}
	delete(en.loaded, idx)
	en.io.Eviction()
	return nil
}

// ensureBudget makes room for the pair (i, j) by evicting cached partitions
// — never i or j — least-recently-used first, until the pair fits the
// memory budget alongside whatever stays cached. Victim selection is
// deterministic: ticks are unique, and equal ticks fall back to the lowest
// position.
func (en *Engine) ensureBudget(i, j int) error {
	need := en.parts[i].bytes
	if j != i {
		need += en.parts[j].bytes
	}
	for {
		var cached int64
		for idx, mp := range en.loaded {
			if idx != i && idx != j {
				cached += mp.meta.bytes
			}
		}
		if cached == 0 || cached+need <= en.opts.MemoryBudget {
			return nil
		}
		victim := -1
		var victimUse int64
		for idx, mp := range en.loaded {
			if idx == i || idx == j {
				continue
			}
			if victim < 0 || mp.lastUse < victimUse ||
				(mp.lastUse == victimUse && idx < victim) {
				victim, victimUse = idx, mp.lastUse
			}
		}
		if victim < 0 {
			return nil
		}
		if err := en.evict(victim); err != nil {
			return err
		}
	}
}

func (en *Engine) evictAll() error {
	for idx := range en.loaded {
		if err := en.evict(idx); err != nil {
			return err
		}
	}
	// Flush any remaining pending buffers.
	for idx, p := range en.pending {
		if len(p) == 0 {
			continue
		}
		en.pf.invalidate(en.parts[idx])
		ioStart := time.Now()
		n, err := storage.AppendPart(en.parts[idx].path, p)
		if err != nil {
			return err
		}
		d := time.Since(ioStart)
		en.bd.AddIO(d)
		en.io.AddAppend(n)
		en.traceIO("append", en.parts[idx].id, n, d)
		delete(en.pending, idx)
	}
	return nil
}

// flushPending appends buffered edges for unloaded partitions once buffers
// grow; loaded partitions never buffer. Any prefetch of the target file is
// invalidated first: the bytes it read predate the append.
func (en *Engine) flushPending(force bool) error {
	for idx, p := range en.pending {
		if len(p) == 0 {
			continue
		}
		if !force && len(p) < 4096 {
			continue
		}
		en.pf.invalidate(en.parts[idx])
		ioStart := time.Now()
		n, err := storage.AppendPart(en.parts[idx].path, p)
		if err != nil {
			return err
		}
		d := time.Since(ioStart)
		en.bd.AddIO(d)
		en.io.AddAppend(n)
		en.traceIO("append", en.parts[idx].id, n, d)
		delete(en.pending, idx)
	}
	return nil
}

// traceIO emits one storage instant event when tracing is enabled. The
// enabled check keeps the disabled path allocation-free.
func (en *Engine) traceIO(op string, part int, bytes int64, d time.Duration) {
	if !en.opts.Trace.Enabled() {
		return
	}
	en.opts.Trace.Instant(en.opts.TraceTID, "storage", op, trace.Args{
		"part": part, "bytes": bytes, "us": d.Microseconds(),
	})
}
