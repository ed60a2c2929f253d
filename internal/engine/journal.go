// Checkpoint/resume: the engine journals its superstep state so a killed
// run continues from the last completed partition-pair iteration instead of
// starting over (the paper's production runs take up to 33 hours).
//
// The scheme leans on one invariant of the storage layer: between
// checkpoints a partition file's checkpointed prefix is never disturbed.
// Partition files only grow, by appended frames: pending buffers are
// appended, and a dirty loaded partition appends the edges past the count its
// file holds, since memory order is the file's order plus newly-inserted
// edges as a suffix (TestPartitionEdgesInGenerationOrder). A file is written
// whole only where no file holds a prefix of memory: a new one, and a
// repartition's halves. The one such write that would replace a
// checkpointed file — repartitioning keeping the low half under the
// original path — is redirected to a fresh path while journaling, so the
// pre-split file stays frozen until a newer checkpoint supersedes it.
// Resume therefore needs no undo log: the journal records each partition's
// edge count at the checkpoint, which is also what commits the appends
// before it. Reading exactly that prefix back (storage.ReadPartPrefix) and
// truncating the file at the frame that ends it — dropping what a crashed
// run appended later, a torn append among it — reproduces the checkpoint
// state byte for byte, including edge order. That is what makes a resumed
// run's report identical to an uninterrupted one: insertion order drives
// variant widening, and the journaled hot pair drives scheduling.
//
// The in-memory dedupe index and variant counters rebuild exactly from the
// surviving edges: insert() records only the final (post-widening) key of
// every edge it keeps, one keys entry and one variants increment per disk
// edge. So does each partition's destination range, which is a function of
// the edges the partition owns and of nothing else: restoreFrom folds every
// left-capable edge's Dst into it in the loop that rebuilds the other two, and
// the journal carries no field for it. The constraint cache is deliberately
// not journaled — verdicts are a pure function of the cache key, so losing the
// cache costs time, never changes results.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/grapple-system/grapple/internal/faultpoint"
	"github.com/grapple-system/grapple/internal/storage"
	"github.com/grapple-system/grapple/internal/trace"
)

// JournalName is the journal's file name inside Options.Dir.
const JournalName = "journal.grj"

// JournalPart records one partition's durable state at a checkpoint.
type JournalPart struct {
	ID     int    // stable partition identity (survives repartitioning)
	Lo, Hi uint32 // vertex interval [Lo, Hi)
	Edges  int64  // edge count at the checkpoint; resume reads exactly this prefix
	MaxGen uint32
	Path   string // file basename inside the engine directory
}

// JournalGen records the last-joined generation for one partition pair.
type JournalGen struct {
	A, B int
	Gen  uint32
}

// JournalRecord is one durable superstep checkpoint, a JSON record in
// storage's durable log.
type JournalRecord struct {
	Seq          uint64 // 0 for the post-preprocess baseline, then 1, 2, ...
	Completed    bool   // true on the final record of a finished run
	Iterations   int64
	CurGen       uint32
	EdgesBefore  int64
	Repartitions int64
	Widened      int64
	// HotA, HotB are the partition IDs of the last-joined pair (-1, -1 when
	// none). The pair scheduler consults them, so they are part of the
	// deterministic resume state.
	HotA, HotB int
	Parts      []JournalPart
	LastGen    []JournalGen
}

// validate refuses what no engine writes: negative counters or ids, a hot
// pair below -1, and a part path that is not a bare filename — that is
// either corruption or an attempt to escape the engine directory. Values
// outside their field's type the JSON decoder refuses already.
func (rec *JournalRecord) validate() error {
	if rec.Iterations < 0 || rec.EdgesBefore < 0 || rec.Repartitions < 0 || rec.Widened < 0 {
		return errors.New("negative counter")
	}
	if rec.HotA < -1 || rec.HotB < -1 {
		return fmt.Errorf("hot pair %d,%d", rec.HotA, rec.HotB)
	}
	for _, p := range rec.Parts {
		if p.ID < 0 || p.Edges < 0 {
			return fmt.Errorf("part %d holds %d edges", p.ID, p.Edges)
		}
		if p.Path == "" || p.Path != filepath.Base(p.Path) {
			return fmt.Errorf("part path %q is not a bare filename", p.Path)
		}
	}
	for _, g := range rec.LastGen {
		if g.A < 0 || g.B < 0 {
			return fmt.Errorf("generation of pair %d,%d", g.A, g.B)
		}
	}
	return nil
}

// journalTag is the tag in the journal's header: Options.JournalTag with
// the vertex-space size mixed in, so a journal written over another vertex
// space is as stale as one written under another tag. (The odd multiplier
// keeps the tag one-to-one in either input with the other fixed.)
func (en *Engine) journalTag(numVertices uint32) uint64 {
	return en.opts.JournalTag*0x9e3779b97f4a7c15 ^ uint64(numVertices)
}

// clearRunDir removes a previous run's journal and partition files so a
// cold journaled start cannot interleave with stale state. Only journaled
// runs clear: unjournaled engines keep their historical behavior.
func (en *Engine) clearRunDir() error {
	if err := os.Remove(filepath.Join(en.opts.Dir, JournalName)); err != nil && !os.IsNotExist(err) {
		return err
	}
	for _, pat := range []string{"part-*.edges", "part-*.edges.tmp"} {
		matches, err := filepath.Glob(filepath.Join(en.opts.Dir, pat))
		if err != nil {
			return err
		}
		for _, m := range matches {
			if err := os.Remove(m); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return nil
}

// startJournal creates the run journal and makes the post-preprocess state
// durable as the seq-0 baseline record.
func (en *Engine) startJournal(numVertices uint32) error {
	jw, err := storage.CreateJournal(filepath.Join(en.opts.Dir, JournalName),
		en.journalTag(numVertices), en.opts.Scope.Faults)
	if err != nil {
		return err
	}
	en.jw = jw
	return en.checkpoint(false)
}

func (en *Engine) closeJournal() {
	if en.jw != nil {
		en.jw.Close()
		en.jw = nil
	}
}

// checkpoint makes the current superstep boundary durable: flush every
// buffered and dirty partition so disk equals memory, then append one
// journal record committing that state. Partitions stay loaded (and clean),
// so checkpointing does not perturb the LRU cache or pair scheduling.
func (en *Engine) checkpoint(completed bool) error {
	sp := en.opts.Scope.Start("engine", "checkpoint")
	if err := en.flushPending(true); err != nil {
		return err
	}
	for _, p := range en.parts {
		if err := en.writeBack(p); err != nil {
			return err
		}
	}
	rec := &JournalRecord{
		Seq:          en.jseq,
		Completed:    completed,
		Iterations:   en.stats.Iterations,
		CurGen:       en.curGen,
		EdgesBefore:  en.stats.EdgesBefore,
		Repartitions: en.stats.Repartitions,
		Widened:      en.stats.Widened,
		HotA:         -1,
		HotB:         -1,
	}
	if en.hot[0] != nil {
		rec.HotA = en.hot[0].id
	}
	if en.hot[1] != nil {
		rec.HotB = en.hot[1].id
	}
	for _, p := range en.parts {
		rec.Parts = append(rec.Parts, JournalPart{
			ID: p.id, Lo: p.lo, Hi: p.hi,
			Edges: p.edges, MaxGen: p.maxGen,
			Path: filepath.Base(p.path),
		})
	}
	pairs := make([][2]int, 0, len(en.lastGen))
	for k := range en.lastGen {
		pairs = append(pairs, k)
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a][0] != pairs[b][0] {
			return pairs[a][0] < pairs[b][0]
		}
		return pairs[a][1] < pairs[b][1]
	})
	for _, k := range pairs {
		rec.LastGen = append(rec.LastGen, JournalGen{A: k[0], B: k[1], Gen: en.lastGen[k]})
	}
	ioStart := time.Now()
	n, err := en.jw.Append(rec)
	if err != nil {
		return err
	}
	en.ioDone("journal", -1, n, time.Since(ioStart))
	en.jseq++
	sp.End(trace.Args{"seq": rec.Seq, "journalBytes": n, "completed": completed})
	if completed {
		en.closeJournal()
		en.removeUnreferenced()
	}
	// The canonical kill site: everything up to and including this record is
	// durable; a crash here loses nothing.
	return en.opts.Scope.Faults.Hit(faultpoint.EngineSuperstep)
}

// removeUnreferenced deletes partition files the current partition table no
// longer points at: pre-split files frozen by the repartition redirect, and
// (on resume) files a crashed run created after its last durable record.
func (en *Engine) removeUnreferenced() {
	live := make(map[string]bool, len(en.parts))
	for _, p := range en.parts {
		live[filepath.Base(p.path)] = true
	}
	for _, pat := range []string{"part-*.edges", "part-*.edges.tmp"} {
		matches, err := filepath.Glob(filepath.Join(en.opts.Dir, pat))
		if err != nil {
			continue
		}
		for _, m := range matches {
			if !live[filepath.Base(m)] {
				os.Remove(m)
			}
		}
	}
}

// Resume continues a journaled run from its last durable checkpoint.
func (en *Engine) Resume(numVertices uint32) (*Stats, error) {
	return en.ResumeContext(context.Background(), numVertices)
}

// ResumeContext validates the journal in Options.Dir against this run
// (format, checksums, and a tag covering vertex space and JournalTag) and
// against the partition directory (per-partition edge counts, intervals,
// generations), replays the repartition history embedded in the last
// record's partition table, and continues the fixpoint from the last
// completed superstep. A missing journal wraps storage.ErrNoJournal, a
// damaged one storage.ErrCorrupt, a mismatched one storage.ErrStale — resume
// never silently starts cold.
func (en *Engine) ResumeContext(ctx context.Context, numVertices uint32) (*Stats, error) {
	defer en.closeJournal()
	rec, err := en.openJournal(numVertices)
	if err != nil {
		return nil, err
	}
	if err := en.restoreFrom(rec, numVertices); err != nil {
		return nil, err
	}
	en.jseq = rec.Seq + 1
	if rec.Completed {
		// Nothing left to compute; surface the closed graph's stats.
		return en.finalStats(), nil
	}
	return en.runLoop(ctx)
}

// openJournal opens the journal in Options.Dir for further appends under
// this run's tag and returns its last record, validated.
func (en *Engine) openJournal(numVertices uint32) (*JournalRecord, error) {
	path := filepath.Join(en.opts.Dir, JournalName)
	jw, recs, err := storage.OpenJournal[JournalRecord](path, en.journalTag(numVertices), en.opts.Scope.Faults)
	if err != nil {
		return nil, err
	}
	en.jw = jw
	if len(recs) == 0 {
		return nil, fmt.Errorf("engine: %s: %w: journal has no usable checkpoint record", path, storage.ErrCorrupt)
	}
	rec := &recs[len(recs)-1]
	if err := rec.validate(); err != nil {
		return nil, fmt.Errorf("engine: %s: %w: %v", path, storage.ErrCorrupt, err)
	}
	return rec, nil
}

// restoreFrom rebuilds the engine's in-memory state from one journal
// record: the partition table, the global dedupe index, the variant
// counters and each partition's destination range (from the surviving edges
// themselves), pair generations, and the scheduler's hot pair.
func (en *Engine) restoreFrom(rec *JournalRecord, numVertices uint32) error {
	for _, jp := range rec.Parts {
		path := filepath.Join(en.opts.Dir, jp.Path)
		ioStart := time.Now()
		edges, info, end, err := storage.ReadPartPrefix(path, jp.Edges)
		if err != nil {
			return err
		}
		if err := checkInterval(path, end, info, jp.Lo, jp.Hi); err != nil {
			return err
		}
		// Cut the file back to the checkpointed prefix, dropping what the
		// crashed run appended after it, so appends land right after it.
		if end > 0 {
			if err := os.Truncate(path, end); err != nil {
				return err
			}
		}
		en.stats.Breakdown.IO += time.Since(ioStart)
		p := &partition{id: jp.ID, lo: jp.Lo, hi: jp.Hi, path: path, edges: jp.Edges, maxGen: jp.MaxGen,
			dstMin: math.MaxUint32}
		var maxGen uint32
		for i := range edges {
			e := &edges[i]
			if e.Src < jp.Lo || e.Src >= jp.Hi {
				return fmt.Errorf("engine: %s: %w: edge source %d outside journaled interval [%d,%d)",
					path, storage.ErrCorrupt, e.Src, jp.Lo, jp.Hi)
			}
			if e.Gen > rec.CurGen {
				return fmt.Errorf("engine: %s: %w: edge generation %d beyond journaled generation %d",
					path, storage.ErrCorrupt, e.Gen, rec.CurGen)
			}
			if e.Gen > maxGen {
				maxGen = e.Gen
			}
			p.bytes += storage.RecordSize(e)
			if !en.keys.add(e.Key()) {
				return fmt.Errorf("engine: %s: %w: duplicate edge in checkpointed prefix", path, storage.ErrCorrupt)
			}
			*en.variants.at(e.Endpoint())++
			if en.g.HasLeft(e.Label) {
				p.reach(e.Dst)
			}
		}
		if maxGen != jp.MaxGen {
			return fmt.Errorf("engine: %s: %w: max generation %d does not match journaled %d",
				path, storage.ErrCorrupt, maxGen, jp.MaxGen)
		}
		if p.id == rec.HotA {
			en.hot[0] = p
		}
		if p.id == rec.HotB {
			en.hot[1] = p
		}
		en.parts = append(en.parts, p)
	}
	if len(en.parts) == 0 {
		return fmt.Errorf("engine: %s: %w: journal record has no partitions", en.opts.Dir, storage.ErrCorrupt)
	}
	// The partition table must tile the vertex space, in order — partOf
	// depends on it, and any violation means the journal and directory
	// disagree about history.
	if en.parts[0].lo != 0 || en.parts[len(en.parts)-1].hi != numVertices {
		return fmt.Errorf("engine: %s: %w: partition table covers [%d,%d), want [0,%d)",
			en.opts.Dir, storage.ErrCorrupt, en.parts[0].lo, en.parts[len(en.parts)-1].hi, numVertices)
	}
	for idx := 1; idx < len(en.parts); idx++ {
		if en.parts[idx].lo != en.parts[idx-1].hi {
			return fmt.Errorf("engine: %s: %w: partition intervals do not tile at position %d",
				en.opts.Dir, storage.ErrCorrupt, idx)
		}
	}
	// Files past the last durable record — partitions a crashed run split
	// off, stale temp files — are unreachable history; drop them.
	en.removeUnreferenced()
	for _, g := range rec.LastGen {
		en.lastGen[[2]int{g.A, g.B}] = g.Gen
	}
	en.curGen = rec.CurGen
	en.stats.Iterations = rec.Iterations
	en.stats.EdgesBefore = rec.EdgesBefore
	en.stats.Repartitions = rec.Repartitions
	en.stats.Widened = rec.Widened
	return nil
}
