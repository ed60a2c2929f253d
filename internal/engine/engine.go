// Package engine implements Grapple's single-machine, disk-based graph
// computation (paper §4.3): vertex-interval partitions on SSD, an edge-pair-
// centric join that loads two partitions per iteration, constraint-guided
// edge induction (grammar match + path-encoding merge + SMT check), eager
// repartitioning, semi-naive scheduling, and constraint memoization into a
// memo the caller owns (Options.Cache): the checker keeps one per compilation
// unit, which both closure phases probe.
//
// Scheduling is per connected pair: a partition pair is owed a pass only
// while one of the two holds edges the pair's stamp has not seen and a first
// edge of one ends inside the other's vertex interval (owed, over one
// destination range per partition). Partition boundaries are put where no
// edge crosses them whenever such a vertex lies near enough to the wanted
// size (markCuts), so a graph that is a disjoint union of small components —
// the dataflow graph is one subgraph per tracked object — is closed one
// partition at a time: load it, join it against itself to fixpoint, write it,
// never come back.
package engine

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/faultpoint"
	"github.com/grapple-system/grapple/internal/grammar"
	"github.com/grapple-system/grapple/internal/metrics"
	"github.com/grapple-system/grapple/internal/smt"
	"github.com/grapple-system/grapple/internal/storage"
	"github.com/grapple-system/grapple/internal/trace"
)

// Options configures the engine. MemoryBudget, Workers and MaxVariants tune
// the run; Dir, Cache, JournalTag and Scope say which run it is: the checker
// builds all of them for each closure phase.
type Options struct {
	// Dir is the on-disk partition directory.
	Dir string
	// MemoryBudget bounds the bytes of edge data held in memory; any two
	// partitions loaded together must fit (paper §4.3). Zero means 256 MiB.
	MemoryBudget int64
	// Workers is the edge-induction parallelism; zero means GOMAXPROCS.
	Workers int
	// Cache is the constraint memo (§4.3), keyed by encoded path; nil means
	// no memoization (Table 4's "without caching"). The engine never builds
	// one: an encoded path means something only inside one compilation unit's
	// ICFET, so the memo is the unit's (checker.Prepared owns it) and every
	// engine sharing one must run over that unit's ICFET.
	Cache *smt.Cache
	// MaxVariants caps distinct constraint variants kept per (src, dst,
	// label); beyond it the edge widens to the unconstrained variant. Zero
	// means 6.
	MaxVariants int
	// JournalTag fingerprints the run's inputs, and a non-zero tag makes
	// superstep state durable: after every superstep a checkpoint flushes
	// every partition and appends one record to a per-run journal in Dir, so
	// a killed run can continue via ResumeContext. ResumeContext refuses a
	// journal whose tag differs (storage.ErrStale): same directory, different
	// graph. Journaling never changes results — only whether progress
	// survives a crash.
	JournalTag uint64
	// Scope is the run's recorder, lane, progress tracker and fault set: a
	// span per superstep and checkpoint, an instant per partition
	// load/write/append, one progress update per superstep, and crash points
	// at the checkpoint and journal write sites. Observation never alters
	// pair scheduling, insertion order, widening, or reports.
	Scope trace.Scope
}

// Stats is the engine's counters — everything the evaluation tables need —
// and it is the state itself, not a view of it: the goroutine running
// RunContext or ResumeContext is its only writer. Join workers tally into
// their own joinScratch.counts and processPair folds those in after the
// superstep's wg.Wait(); observers on other goroutines get a copy pushed
// through Options.Scope.Progress at superstep boundaries.
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
	PreprocessTime    time.Duration
	ComputeTime       time.Duration
	SolveTime         time.Duration // summed across workers
	// SolveLatency is the per-call SMT solve latency histogram (cache misses
	// only), bucketed by metrics.SolveLatencyBuckets.
	SolveLatency metrics.LatencyCounts
	// IO reports the partition store's traffic: bytes moved, cache
	// effectiveness, the load-latency histogram, and the run journal's
	// checkpoints and bytes (0 when not journaling).
	IO metrics.IOSnapshot
	// Breakdown is the run's Figure-9 cost split, summed across workers.
	Breakdown metrics.Snapshot
}

// partition is one vertex-interval partition: its entry in the partition
// table and, while it is loaded, its edges in memory. It is addressed by
// pointer everywhere in memory (the hot pair, the join), by id
// in the journal and in lastGen, and by position only in Engine.parts, whose
// order is interval order. A split moves positions, never pointers or ids.
type partition struct {
	id     int
	lo, hi uint32 // vertex interval [lo, hi)
	path   string
	// edges, bytes and maxGen cover every edge the partition owns, wherever
	// it currently is: in the file, in pending, or in mem.
	edges  int64
	bytes  int64
	maxGen uint32
	// dstMin and dstMax are the smallest and the largest Dst among the
	// left-capable edges (Grammar.HasLeft) the partition owns, wherever they
	// are; the range is empty while dstMin > dstMax, as newPartition leaves it.
	// A first edge pairs with seconds that start at its Dst, so a partition
	// whose interval the range misses holds no second for any first of this one
	// (reaches). A partition only ever gains edges (add widens the range) or is
	// divided in two (repartition recomputes both), so the range stays exact —
	// owed would do with a superset — and resume rebuilds the same one from the
	// edges.
	dstMin, dstMax uint32
	// mem is the loaded form; nil while the partition lives on disk only.
	mem *memPart
	// pending buffers the edges induced while the partition was not loaded
	// ("new edges are written into the partitions that contain their source
	// vertices"): appended to the file once the buffer grows, or merged into
	// mem by the next load.
	pending []storage.Edge
}

// memPart is a partition's loaded form.
type memPart struct {
	// edges is in non-decreasing Gen order: preprocess writes generation 0
	// only, add appends the current generation, a load puts the pending edges —
	// induced after the file was last written — after the file's, and
	// repartition filters without reordering. processPair's collect finds the
	// frontier by binary search on it (TestPartitionEdgesInGenerationOrder).
	// An edge never moves while the partition is loaded (edgeBlocks).
	edges edgeBlocks
	// bySrc lists, per source vertex, the edges the grammar can use as the
	// second of a pair (Grammar.HasRight): the only ones the join looks up. An
	// edge that can only start a pair, or only be a result, is not indexed.
	// Entry i is source lo+i, lo being the partition's first vertex; a source
	// past the end has none (seconds).
	bySrc [][]int32
	// maxRightGen is the newest generation among the indexed edges: while it
	// is at most a sub-join's stamp, every second of that sub-join is old.
	maxRightGen uint32
	// durable counts the edges, a prefix of edges, that the partition's file
	// holds: writeBack appends the rest. A load sets it before it merges the
	// pending edges; it is 0 where no file holds a prefix of edges — one not
	// written yet, or a repartition's low half — and writeBack then writes the
	// file whole.
	durable int
	dirty   bool
	// lastUse is the engine's logical clock at the partition's most recent
	// load or cache hit; ensureBudget evicts the smallest value first.
	lastUse int64
}

// index rebuilds bySrc and maxRightGen from mp.edges, whose sources are at
// least lo, CSR-style — counting pass, one shared backing array, capped
// subslices — over the sources from lo to the last indexed one, so a partition
// load costs three allocations for the index instead of one per distinct
// source. The capped subslices make later appends by partition.add spill into
// fresh arrays, never into a neighbor's range. Indices appear in increasing
// edge order.
func (mp *memPart) index(g *grammar.Grammar, lo uint32) {
	n := 0
	for i := range mp.edges.len() {
		if e := mp.edges.at(i); g.HasRight(e.Label) {
			n = max(n, int(e.Src-lo)+1)
		}
	}
	counts := make([]int32, n)
	total := 0
	for i := range mp.edges.len() {
		if e := mp.edges.at(i); g.HasRight(e.Label) {
			counts[e.Src-lo]++
			total++
		}
	}
	backing := make([]int32, total)
	mp.bySrc = make([][]int32, n)
	off := 0
	for v, c := range counts {
		mp.bySrc[v] = backing[off : off : off+int(c)]
		off += int(c)
	}
	mp.maxRightGen = 0
	for i := range mp.edges.len() {
		if e := mp.edges.at(i); g.HasRight(e.Label) {
			mp.bySrc[e.Src-lo] = append(mp.bySrc[e.Src-lo], int32(i))
			mp.maxRightGen = max(mp.maxRightGen, e.Gen)
		}
	}
}

// seconds returns the indexed edges that start at src, a vertex of the
// partition whose interval starts at lo: none for a source past the indexed
// ones, or below lo (src-lo wraps past them).
func (mp *memPart) seconds(lo, src uint32) []int32 {
	if i := src - lo; i < uint32(len(mp.bySrc)) {
		return mp.bySrc[i]
	}
	return nil
}

// owns reports whether vertex v lies in the partition's interval.
func (p *partition) owns(v uint32) bool { return v >= p.lo && v < p.hi }

// reach widens the destination range to contain v.
func (p *partition) reach(v uint32) {
	p.dstMin, p.dstMax = min(p.dstMin, v), max(p.dstMax, v)
}

// reaches reports whether a first edge of p may end inside q's interval.
func (p *partition) reaches(q *partition) bool {
	return p.dstMin < q.hi && p.dstMax >= q.lo
}

// add is the one place an edge joins a partition after preprocessing: into
// memory when the partition is loaded, into the pending buffer otherwise.
// first and second say whether the edge's label can stand first or second in
// a production (Grammar.HasLeft, HasRight), i.e. whether the destination range
// must cover it and whether the loaded form indexes it.
func (p *partition) add(e storage.Edge, sz int64, first, second bool) {
	p.edges++
	p.bytes += sz
	p.maxGen = max(p.maxGen, e.Gen)
	if first {
		p.reach(e.Dst)
	}
	mp := p.mem
	if mp == nil {
		p.pending = append(p.pending, e)
		return
	}
	if second {
		i := int(e.Src - p.lo)
		if i >= len(mp.bySrc) {
			// A source past the indexed ones: the last partition's, whose
			// interval preprocess widens after indexing it, or one that had no
			// second when the index was built.
			mp.bySrc = append(mp.bySrc, make([][]int32, i+1-len(mp.bySrc))...)
		}
		mp.bySrc[i] = append(mp.bySrc[i], int32(mp.edges.len()))
		mp.maxRightGen = max(mp.maxRightGen, e.Gen)
	}
	mp.edges.push(e)
	mp.dirty = true
}

// Engine runs one analysis (one graph) to fixpoint.
type Engine struct {
	opts Options
	ic   *cfet.ICFET
	g    *grammar.Grammar

	// parts is the partition table, in interval order.
	parts   []*partition
	lastGen map[[2]int]uint32
	curGen  uint32
	// hot is the most recently processed pair. nextPair scores against hot —
	// not against the LRU cache's contents — so pair scheduling is exactly
	// what it was before partitions could stay cached beyond the active
	// pair: determinism of insertion order (and thus of widening and
	// reports) is preserved.
	hot [2]*partition
	// tick is the logical clock behind memPart.lastUse.
	tick int64

	// keys globally dedupes edges (an in-memory index, like the ICFET) by
	// storage.Edge.Key. The run goroutine alone reads and writes it: insert
	// dedupes every candidate, so the join workers never look.
	keys keySet
	// variants counts constraint variants per endpoint triple.
	variants endpointCounts

	// expansions[l] is the closure of label l under the grammar's unary and
	// mirror productions, built once in New.
	expansions [][]derivation

	// noSplit keeps processPair from repartitioning, so that the only splits
	// are the ones this package's tests force by hand.
	noSplit bool
	// wholeFrontier makes every pass collect every left-capable edge, as all
	// passes did before the frontier cut (see processPair). The cut only leaves
	// out first edges none of whose pairs would be merged, so this changes no
	// result and no count; only this package's tests set it, to run the
	// reference they hold that claim to.
	wholeFrontier bool
	// stampsOnly makes owed schedule every pair its stamp leaves dirty, whether
	// or not an edge connects the two, as the scheduler did before partitions
	// kept a destination range. The passes the range saves merge nothing, so
	// this changes no result; only this package's tests set it, to run the
	// reference they hold that claim to.
	stampsOnly bool

	// Join scratch reused across supersteps: the superstep loop is
	// single-threaded, so by the time processPair runs again the previous
	// superstep's frontier, chunk records, and per-worker candidate batches
	// have all been consumed.
	firstsBuf []*storage.Edge
	chunkBuf  []joinChunk
	scratch   []*joinScratch

	// jw is the run journal while Options.JournalTag is set (or after
	// resume); jseq numbers the next checkpoint record.
	jw   *storage.JournalWriter
	jseq uint64

	// stats is written by the run goroutine only (see Stats).
	stats Stats
}

// New creates an engine over an ICFET index and a grammar.
func New(ic *cfet.ICFET, g *grammar.Grammar, opts Options) *Engine {
	if opts.MemoryBudget <= 0 {
		opts.MemoryBudget = 256 << 20
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxVariants <= 0 {
		opts.MaxVariants = 6
	}
	e := &Engine{
		opts:    opts,
		ic:      ic,
		g:       g,
		lastGen: map[[2]int]uint32{},
	}
	e.expansions = make([][]derivation, g.NumLabels())
	for l := range e.expansions {
		e.expansions[l] = buildExpansion(g, grammar.Label(l))
	}
	return e
}

// Stats returns a copy of the engine's counters. Cache lookups and hits are
// counted by this engine's own probes, so they stay per-engine even when
// Options.Cache is shared with other engines. It reads the run
// goroutine's state without synchronisation: call it on that goroutine or
// once the run has returned. A live run is watched through the scope's
// Progress.
func (en *Engine) Stats() Stats {
	s := en.stats
	s.Partitions = len(en.parts)
	return s
}

// Run computes the transitive closure from the initial edges. The closed graph
// is then read with ForEach, wherever it lies: the partitions the budget let
// stay are in memory, the others in their files. Persist writes the former out
// for a caller that keeps Options.Dir. numVertices sizes the partition space.
func (en *Engine) Run(initial []storage.Edge, numVertices uint32) (*Stats, error) {
	return en.RunContext(context.Background(), initial, numVertices)
}

// RunContext is Run with cooperative cancellation: the fixpoint loop checks
// ctx between partition-pair iterations and returns ctx.Err() once it is
// done, leaving any partially-computed partitions on disk.
func (en *Engine) RunContext(ctx context.Context, initial []storage.Edge, numVertices uint32) (*Stats, error) {
	start := time.Now()
	defer en.closeJournal()
	if err := os.MkdirAll(en.opts.Dir, 0o755); err != nil {
		return nil, err
	}
	if en.opts.JournalTag != 0 {
		// A cold journaled start owns the directory: stale partitions or a
		// journal from a previous run must not interleave with this one.
		if err := en.clearRunDir(); err != nil {
			return nil, err
		}
	}
	sp := en.opts.Scope.Start("engine", "preprocess")
	cuts, err := en.preprocess(initial, numVertices)
	if err != nil {
		return nil, err
	}
	sp.End(trace.Args{"edges": en.stats.EdgesBefore, "partitions": len(en.parts), "cuts": cuts})
	if en.opts.JournalTag != 0 {
		if err := en.startJournal(numVertices); err != nil {
			return nil, err
		}
	}
	en.stats.PreprocessTime = time.Since(start)
	return en.runLoop(ctx)
}

// runLoop drives partition-pair iterations to fixpoint. Both cold starts
// (RunContext) and resumed runs (ResumeContext) finish through here; they
// close the journal on the way out, however the loop ends.
func (en *Engine) runLoop(ctx context.Context) (*Stats, error) {
	computeStart := time.Now()
	observe := en.opts.Scope.Rec.Enabled() || en.opts.Scope.Progress != nil
	for {
		// On cancellation the last superstep's checkpoint is already
		// durable: a deadline-killed run resumes from right here.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		i, j, ok := en.nextPair()
		if !ok {
			break
		}
		sp := en.opts.Scope.Start("engine", "superstep")
		firsts, insert, err := en.processPair(i, j)
		if err != nil {
			return nil, err
		}
		en.stats.Iterations++
		if observe {
			en.observeSuperstep(sp, i, j, firsts, insert)
		}
		if en.jw != nil {
			if err := en.opts.Scope.Faults.Hit(faultpoint.EngineCheckpointPre); err != nil {
				return nil, err
			}
			if err := en.checkpoint(false); err != nil {
				return nil, err
			}
		}
	}
	if en.jw != nil {
		if err := en.checkpoint(true); err != nil {
			return nil, err
		}
	}
	// A file equals what its partition held when it last left memory: the
	// edges induced into an unloaded partition since then go after it.
	if err := en.flushPending(true); err != nil {
		return nil, err
	}
	en.stats.ComputeTime = time.Since(computeStart)
	return en.finalStats(), nil
}

// finalStats records the closed graph's size and returns the run's counters.
func (en *Engine) finalStats() *Stats {
	en.stats.EdgesAfter = en.EdgesAfter()
	s := en.Stats()
	return &s
}

// observeSuperstep emits the completed superstep's trace span and progress
// update; insert is the superstep's serial insert time. Everything here is a
// pure read over engine state, so observation can never perturb the schedule
// (and with it insertion order, widening, or reports).
func (en *Engine) observeSuperstep(sp trace.Span, i, j, firsts int, insert time.Duration) {
	dirty := en.dirtyPairs()
	edges := en.EdgesAfter()
	s := &en.stats
	sp.End(trace.Args{
		"pair":         trace.Pair(i, j),
		"frontier":     firsts,
		"dirtyPairs":   dirty,
		"edges":        edges,
		"solved":       s.ConstraintsSolved,
		"cacheHits":    s.CacheHits,
		"cacheLookups": s.CacheLookups,
		"journalBytes": s.IO.JournalBytes,
		"insertUs":     insert.Microseconds(),
	})
	en.opts.Scope.Progress.Update(trace.EngineUpdate{
		Frontier:   int64(firsts),
		DirtyPairs: int64(dirty),
		Edges:      edges,
		Solved:     s.ConstraintsSolved,
		CacheHits:  s.CacheHits,
		CacheLkps:  s.CacheLookups,
		IO:         s.IO,
	})
}

// owed reports whether the pair (pi, pj) is still scheduled for a pass: a
// first edge of one may end in the other, and the pair never had a pass or
// one of the two has gained edges since. The sub-join pi→pj pairs a first in
// pi with a second that starts at the first's Dst, in pj; while neither
// destination range meets the other's interval there is no such pair to
// merge, old or new, so knowing that there is nothing to join costs neither a
// load nor a look at the stamps. A pair passed over this way keeps its stamp:
// the first pass after an edge connects the two joins everything the stamp
// has not seen, which is exactly what no earlier pass can have merged.
func (en *Engine) owed(pi, pj *partition) bool {
	if pi != pj && !pi.reaches(pj) && !pj.reaches(pi) && !en.stampsOnly {
		return false
	}
	st := en.stamp(pi.id, pj.id)
	return !st.seen || pi.maxGen > st.last || pj.maxGen > st.last
}

// dirtyPairs counts the partition pairs still owed a pass.
func (en *Engine) dirtyPairs() int {
	n := 0
	for i, pi := range en.parts {
		for _, pj := range en.parts[i:] {
			if en.owed(pi, pj) {
				n++
			}
		}
	}
	return n
}

// preprocess expands initial edges through unary/mirror productions,
// dedupes, and builds the first generation of partitions, sized to the
// memory budget and left loaded as far as it allows (paper §4.3 "a
// preprocessing step partitions the input graph ... such that any two
// partitions, if loaded together, would not exceed the memory capacity"). It
// returns how many of the boundaries it drew are cuts of the input (markCuts).
func (en *Engine) preprocess(initial []storage.Edge, numVertices uint32) (cuts int, err error) {
	all := make([]storage.Edge, 0, len(initial))
	for _, e := range initial {
		e.Gen = 0
		payload := e.PayloadHash()
		for _, d := range en.expansion(e.Label) {
			v := e
			v.Src, v.Dst = d.endpoints(&e)
			v.Label = d.label
			k := storage.KeyOf(v.Src, v.Dst, v.Label, payload)
			if !en.keys.add(k) {
				continue
			}
			*en.variants.at(v.Endpoint())++
			all = append(all, v)
		}
	}
	en.stats.EdgesBefore = int64(len(all))
	sort.Slice(all, func(i, j int) bool {
		if all[i].Src != all[j].Src {
			return all[i].Src < all[j].Src
		}
		return all[i].Dst < all[j].Dst
	})
	// Chunk by bytes, a quarter of the budget at most: two partitions loaded
	// together then leave half of it to what the closure adds before either is
	// split. A chunk within a quarter of that limit ends at the first cut it
	// comes to, and where the limit falls when there is none — when one
	// component alone outgrows the window.
	limit := en.opts.MemoryBudget / 4
	arcs := make([]arc, len(all))
	for i := range all {
		arcs[i] = arc{all[i].Src, all[i].Dst}
	}
	cut := markCuts(arcs)
	// A partition is all[start:end], taken over in place (blocksOf).
	start := 0
	var curBytes int64
	var lo uint32
	flushPart := func(hi uint32, end int) error {
		if hi <= lo && len(en.parts) > 0 {
			return nil
		}
		cur := all[start:end:end]
		p := en.newPartition(lo, hi)
		for i := range cur {
			p.bytes += storage.RecordSize(&cur[i])
			if en.g.HasLeft(cur[i].Label) {
				p.reach(cur[i].Dst)
			}
		}
		p.edges = int64(len(cur))
		// The partition stays loaded, and dirty: no file holds it yet. One
		// that the budget has no room for leaves through evict like any other,
		// the earliest built first (lastUse 0: before anything a pass loads).
		p.mem = &memPart{edges: blocksOf(cur), dirty: true}
		p.mem.index(en.g, p.lo)
		en.parts = append(en.parts, p)
		start, curBytes = end, 0
		lo = hi
		return en.ensureBudget(p, p)
	}
	for i := 0; i < len(all); {
		src := all[i].Src
		j := i
		var groupBytes int64
		for ; j < len(all) && all[j].Src == src; j++ {
			groupBytes += storage.RecordSize(&all[j])
		}
		if curBytes > 0 && (curBytes+groupBytes > limit || cut[i] && curBytes >= limit-limit/4) {
			if cut[i] {
				cuts++
			}
			if err := flushPart(src, i); err != nil {
				return 0, err
			}
		}
		curBytes += groupBytes
		i = j
	}
	if numVertices == 0 {
		numVertices = 1
	}
	if err := flushPart(numVertices, len(all)); err != nil {
		return 0, err
	}
	// Widen the last partition to cover the whole vertex space.
	en.parts[len(en.parts)-1].hi = numVertices
	return cuts, nil
}

// arc is an edge reduced to its endpoints.
type arc struct{ src, dst uint32 }

// markCuts takes an edge set sorted by source and reports, per position k,
// whether the vertex arcs[k].src is a cut of the set: a vertex v no edge
// crosses, i.e. no edge has min(src, dst) < v <= max(src, dst). Sorted by
// source, the edges before k are the ones that start below v, so v is a cut
// exactly when all of those also end below it (prefix maximum) and all the
// others end at or above it (suffix minimum). A partition boundary at a cut
// leaves no edge of the set pointing from one side to the other: two
// partitions of a graph that is a union of unconnected components then hold
// whole components, and owed never pairs them. Position 0 is never marked:
// nothing lies below it.
func markCuts(arcs []arc) []bool {
	cut := make([]bool, len(arcs))
	least := uint32(math.MaxUint32)
	for k := len(arcs) - 1; k > 0; k-- {
		least = min(least, arcs[k].dst)
		cut[k] = least >= arcs[k].src
	}
	var most uint32
	for k := 1; k < len(arcs); k++ {
		most = max(most, arcs[k-1].src, arcs[k-1].dst)
		cut[k] = cut[k] && most < arcs[k].src
	}
	return cut
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

// newPartition returns an empty partition over [lo, hi) with the table's next
// id and the file name that goes with it. Partitions are never removed, so
// the ids in use are exactly 0 … len(parts)-1.
func (en *Engine) newPartition(lo, hi uint32) *partition {
	id := len(en.parts)
	return &partition{id: id, lo: lo, hi: hi, dstMin: math.MaxUint32,
		path: filepath.Join(en.opts.Dir, fmt.Sprintf("part-%06d.edges", id))}
}

// partOf maps a vertex to its owning partition.
func (en *Engine) partOf(v uint32) *partition {
	lo, hi := 0, len(en.parts)
	for lo < hi {
		mid := (lo + hi) / 2
		if v < en.parts[mid].lo {
			hi = mid
		} else if v >= en.parts[mid].hi {
			lo = mid + 1
		} else {
			return en.parts[mid]
		}
	}
	return en.parts[len(en.parts)-1]
}

// nextPair returns the positions of a pair still owed a pass, favoring the
// hot pair — the two partitions the previous iteration worked on: it scans the
// owed pairs in table order and returns the first of those sharing the most
// partitions with hot. Scoring against hot rather than the LRU cache's
// contents keeps the schedule (and so insertion order, widening, and reports)
// independent of how many partitions happen to fit in memory.
func (en *Engine) nextPair() (int, int, bool) {
	best, bestScore := [2]int{}, -1
	for i, pi := range en.parts {
		for j := i; j < len(en.parts); j++ {
			pj := en.parts[j]
			if !en.owed(pi, pj) {
				continue
			}
			score := 0
			if pi == en.hot[0] || pi == en.hot[1] {
				score++
			}
			if pj == en.hot[0] || pj == en.hot[1] {
				score++
			}
			if score > bestScore {
				best, bestScore = [2]int{i, j}, score
				if score == 2 {
					return i, j, true
				}
			}
		}
	}
	return best[0], best[1], bestScore >= 0
}

// load brings the partition at table position idx into memory, serving from
// the LRU cache when possible.
func (en *Engine) load(idx int) (*partition, error) {
	p := en.parts[idx]
	en.tick++
	if p.mem != nil {
		p.mem.lastUse = en.tick
		en.stats.IO.CacheHits++
		return p, nil
	}
	edges, err := en.readPart(p)
	if err != nil {
		return nil, err
	}
	// Edges merged from pending exist nowhere on disk: the loaded partition
	// starts dirty so that evicting it writes them.
	durable, dirty := len(edges), len(p.pending) > 0
	edges = append(edges, p.pending...)
	p.pending = nil
	p.mem = &memPart{edges: blocksOf(edges), durable: durable, dirty: dirty, lastUse: en.tick}
	p.mem.index(en.g, p.lo)
	return p, nil
}

// readPart reads p's file from disk, accounted as one load, and holds it to
// the partition table: the file's interval (checkInterval) and its edge
// count, every edge p owns but the pending ones. A file that holds fewer
// edges lost an append — a torn one, which the reader drops, or a cut — and
// is ErrCorrupt, never a shorter partition.
func (en *Engine) readPart(p *partition) ([]storage.Edge, error) {
	ioStart := time.Now()
	// p.edges counts the file's edges plus the pending ones load merges: one
	// allocation holds the loaded partition, rounded up to whole blocks so
	// that blocksOf copies none of it.
	edges, info, n, err := storage.ReadPart(p.path, make([]storage.Edge, 0, roundBlocks(int(p.edges))))
	if err != nil {
		return nil, err
	}
	en.ioDone("load", p.id, n, time.Since(ioStart))
	if err := checkInterval(p.path, n, info, p.lo, p.hi); err != nil {
		return nil, err
	}
	if err := checkCount(p.path, int64(len(edges)), p.edges-int64(len(p.pending))); err != nil {
		return nil, err
	}
	return edges, nil
}

// checkInterval cross-checks the vertex interval the header of a partition
// file of size bytes records against the interval [lo, hi) the partition
// table or the journal gives it: a swapped or stale file decodes cleanly but
// holds the wrong vertices. A missing file (size 0) records none. The
// header's hi may lag behind: preprocess widens the last partition's
// interval at the end, after the budget may have had it written.
func checkInterval(path string, size int64, info storage.PartInfo, lo, hi uint32) error {
	if size > 0 && (info.Lo != lo || info.Hi > hi) {
		return fmt.Errorf("engine: %s: %w: header interval [%d,%d) does not match the partition's [%d,%d)",
			path, storage.ErrCorrupt, info.Lo, info.Hi, lo, hi)
	}
	return nil
}

// checkCount holds the edges read from a partition file to the count the
// partition table promises for it: the count is what commits an append.
func checkCount(path string, got, want int64) error {
	if got != want {
		return fmt.Errorf("engine: %s: %w: the file holds %d edges, the partition table %d",
			path, storage.ErrCorrupt, got, want)
	}
	return nil
}

// writePart replaces p's file with the edges of blocks.
func (en *Engine) writePart(p *partition, blocks [][]storage.Edge) error {
	ioStart := time.Now()
	n, err := storage.WriteBlocks(p.path, blocks, storage.PartInfo{Lo: p.lo, Hi: p.hi})
	if err != nil {
		return err
	}
	en.ioDone("write", p.id, n, time.Since(ioStart))
	return nil
}

// writeBack makes a loaded partition's file equal to its memory: it appends
// the edges the file does not hold yet, or writes the file whole where it
// holds no prefix of them.
func (en *Engine) writeBack(p *partition) error {
	mp := p.mem
	if mp == nil || !mp.dirty {
		return nil
	}
	var err error
	if mp.durable == 0 {
		err = en.writePart(p, mp.edges.blocks)
	} else {
		err = en.appendPart(p, mp.edges.from(mp.durable))
	}
	if err != nil {
		return err
	}
	mp.durable, mp.dirty = mp.edges.len(), false
	return nil
}

// evict writes a loaded partition back to disk (if dirty) and drops it from
// memory.
func (en *Engine) evict(p *partition) error {
	if p.mem == nil {
		return nil
	}
	if err := en.writeBack(p); err != nil {
		return err
	}
	p.mem = nil
	en.stats.IO.Evictions++
	return nil
}

// Persist makes the files in Options.Dir hold the whole closed graph, for a
// caller that keeps the directory after the run: it writes out what Run left in
// memory only. A partition file is otherwise written when its partition leaves
// memory (evict, repartition's new half) or a checkpoint needs it, so a run
// whose graph fits the budget, in a directory nobody keeps, writes nothing. After
// a journaled run every file is current already and Persist writes nothing. It
// is traced as a checkpoint, which is what it does bar the journal record.
func (en *Engine) Persist() error {
	sp := en.opts.Scope.Start("engine", "checkpoint")
	err := en.flushPending(true)
	for _, p := range en.parts {
		if err != nil {
			break
		}
		err = en.writeBack(p)
	}
	if err != nil {
		sp.End(trace.Args{"error": err.Error()})
		return err
	}
	sp.End(trace.Args{"persist": true})
	return nil
}

// ensureBudget makes room for the pair (pi, pj) by evicting cached partitions
// — never pi or pj — least-recently-used first, until the pair fits the
// memory budget alongside whatever stays cached. Victim selection is
// deterministic: ticks are unique, and equal ticks fall back to the lowest
// position.
func (en *Engine) ensureBudget(pi, pj *partition) error {
	need := pi.bytes
	if pj != pi {
		need += pj.bytes
	}
	for {
		var cached int64
		var victim *partition
		for _, p := range en.parts {
			if p.mem == nil || p == pi || p == pj {
				continue
			}
			cached += p.bytes
			if victim == nil || p.mem.lastUse < victim.mem.lastUse {
				victim = p
			}
		}
		if cached == 0 || cached+need <= en.opts.MemoryBudget {
			return nil
		}
		if err := en.evict(victim); err != nil {
			return err
		}
	}
}

// flushPending appends the buffered edges of unloaded partitions to their
// files once a buffer has grown, or all of them when forced.
func (en *Engine) flushPending(force bool) error {
	for _, p := range en.parts {
		if len(p.pending) == 0 || !force && len(p.pending) < 4096 {
			continue
		}
		if err := en.appendPart(p, [][]storage.Edge{p.pending}); err != nil {
			return err
		}
		p.pending = nil
	}
	return nil
}

// appendPart appends the edges of blocks to p's file, creating it under p's
// interval where there is none.
func (en *Engine) appendPart(p *partition, blocks [][]storage.Edge) error {
	ioStart := time.Now()
	n, err := storage.AppendPart(p.path, blocks, storage.PartInfo{Lo: p.lo, Hi: p.hi}, en.opts.Scope.Faults)
	if err != nil {
		return err
	}
	en.ioDone("append", p.id, n, time.Since(ioStart))
	return nil
}

// ioDone books one finished storage operation of n bytes that the run
// goroutine spent d on: Figure 9's I/O share, the operation's traffic
// counters and — for partition traffic, when tracing is on — one storage
// instant named op. A checkpoint's journal append is reported by its span
// instead.
func (en *Engine) ioDone(op string, part int, n int64, d time.Duration) {
	en.stats.Breakdown.IO += d
	io := &en.stats.IO
	switch op {
	case "load":
		io.Loads++
		io.BytesRead += n
		io.LoadLatency.Observe(metrics.LoadLatencyBuckets, d)
	case "scan":
		// ForEach streaming an unloaded partition: bytes and time, but no
		// load — nothing enters memory.
		io.BytesRead += n
	case "write":
		io.Writes++
		io.BytesWritten += n
	case "append":
		io.Appends++
		io.BytesWritten += n
	case "journal":
		io.JournalAppends++
		io.JournalBytes += n
		return
	}
	// The enabled check keeps the disabled path allocation-free.
	if en.opts.Scope.Rec.Enabled() {
		en.opts.Scope.Instant("storage", op, trace.Args{
			"part": part, "bytes": n, "us": d.Microseconds(),
		})
	}
}
