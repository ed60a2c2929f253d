package engine

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"github.com/grapple-system/grapple/internal/faultpoint"
	"github.com/grapple-system/grapple/internal/storage"
)

// fingerprint hashes the closed graph exactly as it lies on disk — edge
// order included, since insertion order drives widening and therefore the
// byte-identity claim downstream.
func fingerprint(t *testing.T, en *Engine) string {
	t.Helper()
	h := fnv.New64a()
	if err := en.ForEach(func(e *storage.Edge) bool {
		fmt.Fprintf(h, "%d/%d/%d/%d/%v/%v/%v|", e.Src, e.Dst, e.Label, e.Gen, e.HasRel, e.Rel, e.Enc)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum64())
}

// checkFiles requires every partition file of a finished journaled run to
// read back whole: as many edges as the partition table counts outside the
// pending buffers, with no damage — a torn frame left behind by a resume
// that did not cut it off would sit before later appends.
func checkFiles(t *testing.T, en *Engine) {
	t.Helper()
	for _, p := range en.parts {
		edges, _, _, err := storage.ReadPart(p.path, nil)
		if err != nil || int64(len(edges)) != p.edges-int64(len(p.pending)) {
			t.Fatalf("%s: %d edges of %d read back: %v", p.path, len(edges), p.edges, err)
		}
	}
}

// smallOpts forces many partitions and repartitions so checkpoints cover
// the interesting machinery (splits, redirected paths, pending buffers).
func smallOpts(dir string, tag uint64) Options {
	return Options{
		Dir: dir, MemoryBudget: 4096, Workers: 2, JournalTag: tag,
	}
}

// TestEngineResumeAtEveryBoundary is the engine half of the tentpole
// property: kill the run at every superstep boundary k, resume with fresh
// engine state, and require the closed graph on disk to be identical — edge
// for edge, in order — to an uninterrupted run's.
func TestEngineResumeAtEveryBoundary(t *testing.T) {
	// n and the 4 KiB budget in smallOpts are tuned together: ~34 superstep
	// boundaries with ~5 repartitions, so the kill loop covers the whole
	// machinery while staying a few seconds.
	const n = 24
	const tag = 0x5eed
	d := allPairs()

	// Reference: an uninterrupted journaled run.
	refDir := t.TempDir()
	refFaults := faultpoint.New()
	refOpts := smallOpts(refDir, tag)
	refOpts.Scope.Faults = refFaults
	refEn := New(emptyICFET(), d.G, refOpts)
	refStats, err := refEn.Run(chainEdges(n, d.Flow), n)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, refEn)
	if refStats.Repartitions == 0 {
		t.Fatal("workload too small: no repartitions, redirect path untested")
	}
	if refStats.IO.JournalAppends < 3 {
		t.Fatalf("workload too small: %d checkpoints", refStats.IO.JournalAppends)
	}

	// Ablation: journaling must not change the result.
	offOpts := smallOpts(t.TempDir(), tag)
	offOpts.JournalTag = 0
	offEn, offStats := runEngine(t, emptyICFET(), d.G, offOpts, chainEdges(n, d.Flow), n)
	if got := fingerprint(t, offEn); got != want {
		t.Fatalf("journal-off run differs from journal-on run")
	}
	if offStats.EdgesAfter != refStats.EdgesAfter || offStats.Iterations != refStats.Iterations {
		t.Fatalf("journal-off stats diverge: %d/%d edges, %d/%d iterations",
			offStats.EdgesAfter, refStats.EdgesAfter, offStats.Iterations, refStats.Iterations)
	}

	boundaries := refFaults.Count(faultpoint.EngineSuperstep)
	for k := 1; k <= boundaries; k++ {
		dir := t.TempDir()
		faults := faultpoint.New()
		faults.Arm(faultpoint.EngineSuperstep, k)
		opts := smallOpts(dir, tag)
		opts.Scope.Faults = faults
		en := New(emptyICFET(), d.G, opts)
		if _, err := en.Run(chainEdges(n, d.Flow), n); !errors.Is(err, faultpoint.ErrInjected) {
			t.Fatalf("k=%d: kill did not fire: %v", k, err)
		}
		// Fresh objects: nothing survives the "crash" but the disk.
		ren := New(emptyICFET(), d.G, smallOpts(dir, tag))
		rstats, err := ren.Resume(n)
		if err != nil {
			t.Fatalf("k=%d: resume: %v", k, err)
		}
		if got := fingerprint(t, ren); got != want {
			t.Fatalf("k=%d: resumed graph differs from uninterrupted run", k)
		}
		checkFiles(t, ren)
		if rstats.EdgesAfter != refStats.EdgesAfter || rstats.Iterations != refStats.Iterations {
			t.Fatalf("k=%d: resumed stats diverge: %d/%d edges, %d/%d iterations",
				k, rstats.EdgesAfter, refStats.EdgesAfter, rstats.Iterations, refStats.Iterations)
		}
	}
}

// TestEngineResumeAfterTornWrites kills the run inside the journal append
// (torn record), inside a partition append (torn frame) and before the
// checkpoint flush; each must resume to the identical graph from the
// previous durable record, and leave every partition file whole.
func TestEngineResumeAfterTornWrites(t *testing.T) {
	const n = 24
	const tag = 9
	d := allPairs()

	// ref runs the chain of nv vertices under budget uninterrupted and returns
	// its graph, its edge count and how many partition frames it appended.
	ref := func(nv uint32, budget int64) (string, int64, int) {
		faults := faultpoint.New()
		opts := smallOpts(t.TempDir(), tag)
		opts.MemoryBudget, opts.Scope.Faults = budget, faults
		en := New(emptyICFET(), d.G, opts)
		st, err := en.Run(chainEdges(nv, d.Flow), nv)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(t, en), st.EdgesAfter, faults.Count(faultpoint.PartAppendMid)
	}

	// Journal append 1 is the baseline record: tearing it leaves a journal
	// with no usable checkpoint, and resume must refuse (never start cold).
	t.Run("torn baseline record refuses resume", func(t *testing.T) {
		dir := t.TempDir()
		faults := faultpoint.New()
		faults.Arm(faultpoint.JournalAppendMid, 1)
		opts := smallOpts(dir, tag)
		opts.Scope.Faults = faults
		en := New(emptyICFET(), d.G, opts)
		if _, err := en.Run(chainEdges(n, d.Flow), n); !errors.Is(err, faultpoint.ErrInjected) {
			t.Fatalf("kill did not fire: %v", err)
		}
		ren := New(emptyICFET(), d.G, smallOpts(dir, tag))
		if _, err := ren.Resume(n); !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("resume over a record-less journal: %v", err)
		}
	})

	// The torn-frame sweep (ks nil) tears every partition frame a run
	// appends, each at its own checkpoint or eviction. It runs a longer chain
	// under twice the budget, where fewer repartitions replace a torn file
	// before the resumed run appends to it again and reads it back.
	sweeps := []struct {
		point  string
		nv     uint32
		budget int64
		ks     []int
	}{
		{faultpoint.JournalAppendMid, n, 4096, []int{2, 3, 4}},
		{faultpoint.EngineCheckpointPre, n, 4096, []int{2, 3, 4}},
		{faultpoint.PartAppendMid, 40, 8192, nil},
	}
	for _, sw := range sweeps {
		point := sw.point
		want, wantEdges, frames := ref(sw.nv, sw.budget)
		if sw.ks == nil {
			if frames < 4 {
				t.Fatalf("workload too small: %d partition frames appended", frames)
			}
			for k := 1; k <= frames; k++ {
				sw.ks = append(sw.ks, k)
			}
		}
		for _, k := range sw.ks {
			dir := t.TempDir()
			faults := faultpoint.New()
			faults.Arm(point, k)
			opts := smallOpts(dir, tag)
			opts.MemoryBudget, opts.Scope.Faults = sw.budget, faults
			en := New(emptyICFET(), d.G, opts)
			if _, err := en.Run(chainEdges(sw.nv, d.Flow), sw.nv); !errors.Is(err, faultpoint.ErrInjected) {
				t.Fatalf("%s k=%d: kill did not fire: %v", point, k, err)
			}
			opts.Scope.Faults = nil
			ren := New(emptyICFET(), d.G, opts)
			rstats, err := ren.Resume(sw.nv)
			if err != nil {
				t.Fatalf("%s k=%d: resume: %v", point, k, err)
			}
			if got := fingerprint(t, ren); got != want {
				t.Fatalf("%s k=%d: resumed graph differs", point, k)
			}
			checkFiles(t, ren)
			if rstats.EdgesAfter != wantEdges {
				t.Fatalf("%s k=%d: %d edges, want %d", point, k, rstats.EdgesAfter, wantEdges)
			}
		}
	}
}

func TestEngineResumeMissingJournal(t *testing.T) {
	d := allPairs()
	en := New(emptyICFET(), d.G, Options{Dir: t.TempDir(), MemoryBudget: 4096})
	if _, err := en.Resume(10); !errors.Is(err, storage.ErrNoJournal) {
		t.Fatalf("resume without journal: %v", err)
	}
}

func TestEngineResumeStaleJournal(t *testing.T) {
	const n = 20
	d := allPairs()
	dir := t.TempDir()
	en := New(emptyICFET(), d.G, smallOpts(dir, 1))
	if _, err := en.Run(chainEdges(n, d.Flow), n); err != nil {
		t.Fatal(err)
	}
	// Wrong tag.
	ren := New(emptyICFET(), d.G, smallOpts(dir, 2))
	if _, err := ren.Resume(n); !errors.Is(err, storage.ErrStale) {
		t.Fatalf("tag mismatch: %v", err)
	}
	// Wrong vertex space.
	ren = New(emptyICFET(), d.G, smallOpts(dir, 1))
	if _, err := ren.Resume(n + 1); !errors.Is(err, storage.ErrStale) {
		t.Fatalf("vertex mismatch: %v", err)
	}
}

func TestEngineResumeCorruptJournal(t *testing.T) {
	const n = 20
	d := allPairs()
	dir := t.TempDir()
	en := New(emptyICFET(), d.G, smallOpts(dir, 1))
	if _, err := en.Run(chainEdges(n, d.Flow), n); err != nil {
		t.Fatal(err)
	}
	// Smash the journal header.
	path := dir + "/" + JournalName
	if err := overwriteByte(path, 2, 'X'); err != nil {
		t.Fatal(err)
	}
	ren := New(emptyICFET(), d.G, smallOpts(dir, 1))
	if _, err := ren.Resume(n); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("corrupt journal: %v", err)
	}
}

// TestJournalRejectsEvilPartPath: a checkpoint no engine writes — a part
// path that would escape the engine directory, a negative id, count or pair —
// is refused as corrupt before any partition file is opened.
func TestJournalRejectsEvilPartPath(t *testing.T) {
	for name, mutate := range map[string]func(*JournalRecord){
		"path traversal": func(r *JournalRecord) { r.Parts[0].Path = "../escape.edges" },
		"empty path":     func(r *JournalRecord) { r.Parts[0].Path = "" },
		"negative id":    func(r *JournalRecord) { r.Parts[0].ID = -2 },
		"negative edges": func(r *JournalRecord) { r.Parts[0].Edges = -1 },
		"negative count": func(r *JournalRecord) { r.Iterations = -1 },
		"hot pair":       func(r *JournalRecord) { r.HotB = -2 },
		"negative pair":  func(r *JournalRecord) { r.LastGen[0].A = -1 },
	} {
		t.Run(name, func(t *testing.T) {
			const n = 10
			dir := t.TempDir()
			en := New(emptyICFET(), allPairs().G, smallOpts(dir, 1))
			jw, err := storage.CreateJournal(filepath.Join(dir, JournalName), en.journalTag(n), nil)
			if err != nil {
				t.Fatal(err)
			}
			rec := &JournalRecord{
				HotA: -1, HotB: -1,
				Parts:   []JournalPart{{Hi: n, Path: "part-000000.edges"}},
				LastGen: []JournalGen{{A: 0, B: 0, Gen: 0}},
			}
			mutate(rec)
			if _, err := jw.Append(rec); err != nil {
				t.Fatal(err)
			}
			jw.Close()
			if _, err := en.Resume(n); !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("resume accepted the record: %v", err)
			}
		})
	}
}

func TestEngineResumeCompletedRun(t *testing.T) {
	const n = 20
	d := allPairs()
	dir := t.TempDir()
	en := New(emptyICFET(), d.G, smallOpts(dir, 3))
	st, err := en.Run(chainEdges(n, d.Flow), n)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, en)
	ren := New(emptyICFET(), d.G, smallOpts(dir, 3))
	rst, err := ren.Resume(n)
	if err != nil {
		t.Fatal(err)
	}
	if rst.EdgesAfter != st.EdgesAfter {
		t.Fatalf("completed resume: %d edges, want %d", rst.EdgesAfter, st.EdgesAfter)
	}
	if got := fingerprint(t, ren); got != want {
		t.Fatal("completed resume changed the graph")
	}
}

// countingCtx trips its Err after a fixed number of checks: a deterministic
// stand-in for a deadline, so the cancellation path is testable without
// timing races.
type countingCtx struct {
	context.Context
	left int
}

func (c *countingCtx) Err() error {
	if c.left <= 0 {
		return context.DeadlineExceeded
	}
	c.left--
	return nil
}

// TestEngineCancelFlushesFinalRecord covers the ctx.Err() path: a run
// cancelled after 5 supersteps must leave a durable record at exactly
// superstep 5, and resume from it must reproduce the uninterrupted result.
func TestEngineCancelFlushesFinalRecord(t *testing.T) {
	const n = 40
	const tag = 11
	d := allPairs()

	refEn := New(emptyICFET(), d.G, smallOpts(t.TempDir(), tag))
	if _, err := refEn.Run(chainEdges(n, d.Flow), n); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, refEn)

	dir := t.TempDir()
	en := New(emptyICFET(), d.G, smallOpts(dir, tag))
	ctx := &countingCtx{Context: context.Background(), left: 5}
	if _, err := en.RunContext(ctx, chainEdges(n, d.Flow), n); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancel did not fire: %v", err)
	}
	_, recs, _, err := storage.ReadJournal[JournalRecord](filepath.Join(dir, JournalName))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no journal records after cancel")
	}
	lastRec := recs[len(recs)-1]
	if lastRec.Completed {
		t.Fatal("cancelled run wrote a completed record")
	}
	if lastRec.Iterations != 5 {
		t.Fatalf("final record at iteration %d, want the superstep the run reached (5)", lastRec.Iterations)
	}

	ren := New(emptyICFET(), d.G, smallOpts(dir, tag))
	rstats, err := ren.Resume(n)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, ren); got != want {
		t.Fatal("resume after cancel differs from uninterrupted run")
	}
	if rstats.EdgesAfter == 0 {
		t.Fatal("resumed run produced no edges")
	}
}

func overwriteByte(path string, off int64, b byte) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteAt([]byte{b}, off)
	return err
}
