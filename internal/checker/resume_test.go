package checker

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/grapple-system/grapple/internal/engine"
	"github.com/grapple-system/grapple/internal/faultpoint"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/storage"
	"github.com/grapple-system/grapple/internal/trace"
)

// resumeSrc tracks writers, a lock and sockets across calls and branches —
// big enough to force several partitions (and so several superstep
// checkpoints) under the small memory budget below, in both engine phases:
// with the 64 KiB budget the run crosses ~26 superstep boundaries (~7
// alias, ~19 dataflow), so the kill-at-every-boundary sweep covers both
// phases while staying a few seconds.
const resumeSrc = `
type FileWriter;
type Socket;
type Lock;
fun open(): FileWriter {
  var w: FileWriter = new FileWriter();
  w.write();
  return w;
}
fun maybeClose(w: FileWriter, n: int) {
  if (n > 0) {
    w.close();
  }
  return;
}
fun useSock(n: int) {
  var s: Socket = new Socket();
  if (n > 1) {
    s.connect();
    s.close();
  }
  return;
}
fun main() {
  var n: int = input();
  var m: int = n - 1;
  var a: FileWriter = open();
  var b: FileWriter = open();
  maybeClose(a, n);
  maybeClose(b, m);
  var l: Lock = new Lock();
  l.lock();
  if (n > 2) {
    l.unlock();
  }
  useSock(n);
  useSock(m);
  var c: FileWriter = null;
  if (n < 0) {
    c = new FileWriter();
    c.write();
  } else {
    c = a;
  }
  if (n < 0) {
    c.close();
  }
  return;
}`

func resumeSource(t *testing.T) string {
	t.Helper()
	return resumeSrc
}

func resumeOpts(dir string) Options {
	return Options{
		WorkDir:      dir,
		MemoryBudget: 65536,
		Workers:      2,
		Journal:      true,
	}
}

// renderReports serializes every report field; two runs agree byte-for-byte
// iff their report streams are identical.
func renderReports(rs []Report) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%s|%s|%d|%s|%s|%v|%s|%s|%v\n",
			r.FSM, r.Type, r.Kind, r.Pos, r.Object, r.States,
			r.Witness, r.WitnessConstraint, r.Steps)
	}
	return b.String()
}

// TestCheckerResumeAtEveryBoundary is the pipeline-level crash-injection
// property: kill the run at EVERY engine superstep boundary (across both the
// alias and dataflow phases), resume from the journal, and require the
// report stream byte-identical to an uninterrupted run. Also checks the
// journal-off ablation: checkpointing must not perturb results.
//
// Two budgets, for the two ways a dataflow phase goes out of core. At 64 KiB
// every partition boundary is a cut between two objects' subgraphs: the
// partitions are closed one after the other and no two of them are ever
// paired, so a resumed engine that scheduled no cross pair at all would pass.
// At 32 KiB one object's subgraph alone outgrows the window a cut is looked
// for in, a split falls back to the median source, and the two halves have to
// be joined with each other: the sweep then kills and resumes between the
// fallback split and the cross passes that follow it, and a resumed engine
// that does not know which partitions point into which — the destination
// ranges are not journaled, restoreFrom rebuilds them from the edges — makes
// those passes late or not at all. Late is enough for the reports, which read
// a few edges of the closed graph, so the sweep also holds every resumed run
// to the supersteps and the closed edge count of the uninterrupted one.
func TestCheckerResumeAtEveryBoundary(t *testing.T) {
	for _, cell := range []struct {
		name           string
		budget         int64
		splitComponent bool
	}{
		{"partitions of whole components", 64 << 10, false},
		{"a component split at its median", 32 << 10, true},
	} {
		t.Run(cell.name, func(t *testing.T) {
			opts := func(dir string) Options {
				o := resumeOpts(dir)
				o.MemoryBudget = cell.budget
				return o
			}
			src := resumeSource(t)

			refFaults := faultpoint.New()
			var events bytes.Buffer
			rec := trace.NewWriters(nil, &events)
			refOpts := opts(t.TempDir())
			refOpts.Scope = trace.Scope{Rec: rec, Faults: refFaults}
			ref, err := New(fsm.Builtins(), refOpts).CheckSource(src)
			if err != nil {
				t.Fatal(err)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			want := renderReports(ref.Reports)
			if len(ref.Reports) == 0 {
				t.Fatal("reference run found no reports; subject too small to mean anything")
			}
			if ref.Alias.IO.JournalAppends == 0 || ref.Dataflow.IO.JournalAppends == 0 {
				t.Fatalf("phases did not checkpoint: alias=%d dataflow=%d",
					ref.Alias.IO.JournalAppends, ref.Dataflow.IO.JournalAppends)
			}
			boundaries := refFaults.Count(faultpoint.EngineSuperstep)
			if boundaries < 4 {
				t.Fatalf("only %d superstep boundaries; subject too small for the kill sweep", boundaries)
			}
			// The sweep must cross a split, or it says nothing about stamps and
			// ranges surviving a kill — and in the second cell a split that left
			// its halves connected, with passes over the two of them after it.
			if ref.Dataflow.Partitions < 2 || ref.Dataflow.Repartitions < 1 {
				t.Fatalf("dataflow phase ran in %d partitions with %d repartitions; budget too large for the kill sweep",
					ref.Dataflow.Partitions, ref.Dataflow.Repartitions)
			}
			fallback, crossAfter := false, 0
			sc := bufio.NewScanner(&events)
			sc.Buffer(nil, 1<<20)
			for sc.Scan() {
				var ev struct {
					Name string
					Args struct {
						Cut  *bool
						Pair string
					}
				}
				if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
					t.Fatal(err)
				}
				var i, j int
				switch {
				case ev.Name == "repartition" && ev.Args.Cut != nil && !*ev.Args.Cut:
					fallback = true
				case ev.Name == "superstep" && fallback:
					if _, err := fmt.Sscanf(ev.Args.Pair, "%d+%d", &i, &j); err != nil {
						t.Fatal(err)
					}
					if i != j {
						crossAfter++
					}
				}
			}
			if cell.splitComponent != (crossAfter > 0) {
				t.Fatalf("budget %d: a split at the median source: %v, %d passes over two different partitions after it",
					cell.budget, fallback, crossAfter)
			}

			// Journal-off ablation: identical reports.
			off := opts(t.TempDir())
			off.Journal = false
			ablation, err := New(fsm.Builtins(), off).CheckSource(src)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderReports(ablation.Reports); got != want {
				t.Fatalf("journal-off ablation changed reports:\n%s\nvs\n%s", got, want)
			}

			for k := 1; k <= boundaries; k++ {
				dir := t.TempDir()
				faults := faultpoint.New()
				faults.Arm(faultpoint.EngineSuperstep, k)
				kopts := opts(dir)
				kopts.Scope.Faults = faults
				if _, err := New(fsm.Builtins(), kopts).CheckSource(src); !errors.Is(err, faultpoint.ErrInjected) {
					t.Fatalf("k=%d: kill did not fire: %v", k, err)
				}
				ropts := opts(dir)
				ropts.Resume = true
				res, err := New(fsm.Builtins(), ropts).CheckSource(src)
				if err != nil {
					t.Fatalf("k=%d: resume: %v", k, err)
				}
				if got := renderReports(res.Reports); got != want {
					t.Fatalf("k=%d: resumed reports differ:\n%s\nvs\n%s", k, got, want)
				}
				// Reports read a few edges of the closed graph. A resumed engine
				// that schedules other passes than the uninterrupted one shows
				// here first: in the supersteps it takes and the edges it closes to.
				for _, ph := range []struct {
					name      string
					got, want PhaseStats
				}{{"alias", res.Alias, ref.Alias}, {"dataflow", res.Dataflow, ref.Dataflow}} {
					if ph.got.Iterations != ph.want.Iterations || ph.got.EdgesAfter != ph.want.EdgesAfter {
						t.Fatalf("k=%d: resumed %s phase took %d supersteps to %d edges, uninterrupted %d to %d",
							k, ph.name, ph.got.Iterations, ph.got.EdgesAfter, ph.want.Iterations, ph.want.EdgesAfter)
					}
				}
			}
		})
	}
}

// stripSelfStamps rewrites the journal in dir without the (i, i) entries of
// its last record's LastGen: what a journal written before sub-join stamps
// lacks wherever a self stamp was set or inherited outside a self pass —
// and then some, since it drops the self passes' own stamps too. It reports
// how many entries it dropped.
func stripSelfStamps(t *testing.T, dir string) int {
	t.Helper()
	path := filepath.Join(dir, engine.JournalName)
	tag, recs, _, err := storage.ReadJournal[engine.JournalRecord](path)
	if errors.Is(err, storage.ErrNoJournal) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	last := &recs[len(recs)-1]
	if last.Completed {
		return 0
	}
	kept := last.LastGen[:0]
	for _, g := range last.LastGen {
		if g.A != g.B {
			kept = append(kept, g)
		}
	}
	dropped := len(last.LastGen) - len(kept)
	last.LastGen = kept
	jw, err := storage.CreateJournal(path, tag, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jw.Close()
	for i := range recs {
		if _, err := jw.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return dropped
}

// TestCheckerResumeJournalWithoutSelfStamps resumes, at every superstep
// boundary, from a journal stripped of its self stamps — the shape of a
// journal left behind by an engine that kept one stamp per pass. Missing
// stamps only make the resumed run more conservative (it joins again what
// the stamps would have skipped, and the dedupe index drops the results), so
// the reports must be the uninterrupted run's.
func TestCheckerResumeJournalWithoutSelfStamps(t *testing.T) {
	src := resumeSource(t)
	refFaults := faultpoint.New()
	refOpts := resumeOpts(t.TempDir())
	refOpts.Scope.Faults = refFaults
	ref, err := New(fsm.Builtins(), refOpts).CheckSource(src)
	if err != nil {
		t.Fatal(err)
	}
	want := renderReports(ref.Reports)
	dropped := 0
	for k := 1; k <= refFaults.Count(faultpoint.EngineSuperstep); k++ {
		dir := t.TempDir()
		faults := faultpoint.New()
		faults.Arm(faultpoint.EngineSuperstep, k)
		opts := resumeOpts(dir)
		opts.Scope.Faults = faults
		if _, err := New(fsm.Builtins(), opts).CheckSource(src); !errors.Is(err, faultpoint.ErrInjected) {
			t.Fatalf("k=%d: kill did not fire: %v", k, err)
		}
		for _, phase := range []string{"alias", "dataflow"} {
			dropped += stripSelfStamps(t, filepath.Join(dir, phase))
		}
		ropts := resumeOpts(dir)
		ropts.Resume = true
		res, err := New(fsm.Builtins(), ropts).CheckSource(src)
		if err != nil {
			t.Fatalf("k=%d: resume: %v", k, err)
		}
		if got := renderReports(res.Reports); got != want {
			t.Fatalf("k=%d: reports resumed from a journal without self stamps differ:\n%s\nvs\n%s", k, got, want)
		}
	}
	if dropped == 0 {
		t.Fatal("no journal held a self stamp to strip; the test resumed from unmodified journals")
	}
}

// TestCheckerResumeTornJournal kills mid-journal-append. Tearing the very
// first record (the alias phase's baseline) leaves nothing durable, so
// resume must refuse rather than silently cold-start; tearing a later record
// resumes from the previous checkpoint with identical reports.
func TestCheckerResumeTornJournal(t *testing.T) {
	src := resumeSource(t)
	ref, err := New(fsm.Builtins(), resumeOpts(t.TempDir())).CheckSource(src)
	if err != nil {
		t.Fatal(err)
	}
	want := renderReports(ref.Reports)

	t.Run("torn baseline refuses resume", func(t *testing.T) {
		dir := t.TempDir()
		faults := faultpoint.New()
		faults.Arm(faultpoint.JournalAppendMid, 1)
		opts := resumeOpts(dir)
		opts.Scope.Faults = faults
		if _, err := New(fsm.Builtins(), opts).CheckSource(src); !errors.Is(err, faultpoint.ErrInjected) {
			t.Fatalf("kill did not fire: %v", err)
		}
		ropts := resumeOpts(dir)
		ropts.Resume = true
		if _, err := New(fsm.Builtins(), ropts).CheckSource(src); !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("resume over a record-less journal: %v", err)
		}
	})

	for _, k := range []int{2, 3} {
		dir := t.TempDir()
		faults := faultpoint.New()
		faults.Arm(faultpoint.JournalAppendMid, k)
		opts := resumeOpts(dir)
		opts.Scope.Faults = faults
		if _, err := New(fsm.Builtins(), opts).CheckSource(src); !errors.Is(err, faultpoint.ErrInjected) {
			t.Fatalf("k=%d: kill did not fire: %v", k, err)
		}
		ropts := resumeOpts(dir)
		ropts.Resume = true
		res, err := New(fsm.Builtins(), ropts).CheckSource(src)
		if err != nil {
			t.Fatalf("k=%d: resume: %v", k, err)
		}
		if got := renderReports(res.Reports); got != want {
			t.Fatalf("k=%d: resumed reports differ", k)
		}
	}
}

func TestCheckerResumeMissingJournal(t *testing.T) {
	opts := resumeOpts(t.TempDir())
	opts.Resume = true
	_, err := New(fsm.Builtins(), opts).CheckSource(resumeSource(t))
	if !errors.Is(err, storage.ErrNoJournal) {
		t.Fatalf("resume of an empty workdir: %v", err)
	}
}

func TestCheckerResumeRequiresWorkDir(t *testing.T) {
	opts := resumeOpts("")
	opts.WorkDir = ""
	opts.Resume = true
	_, err := New(fsm.Builtins(), opts).CheckSource(resumeSource(t))
	if err == nil || !strings.Contains(err.Error(), "WorkDir") {
		t.Fatalf("resume without a workdir: %v", err)
	}
}

// TestEngineJournalDoesNotLeak: an engine journals exactly when the checker
// gives it a journal tag, which it does only under Journal or Resume, so a
// check that is not journaled writes no journal into either phase's
// directory, although its out-of-core engines write partitions there.
func TestEngineJournalDoesNotLeak(t *testing.T) {
	dir := t.TempDir()
	opts := resumeOpts(dir)
	opts.Journal = false
	if _, err := New(fsm.Builtins(), opts).CheckSource(resumeSource(t)); err != nil {
		t.Fatal(err)
	}
	if parts, _ := filepath.Glob(filepath.Join(dir, "dataflow", "part-*.edges")); len(parts) < 2 {
		t.Fatalf("%d dataflow partitions: the check did not go out of core", len(parts))
	}
	for _, ph := range []string{"alias", "dataflow"} {
		if _, err := os.Stat(filepath.Join(dir, ph, engine.JournalName)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: a journal was written (stat: %v)", ph, err)
		}
	}
}

func TestCheckerResumeStaleJournal(t *testing.T) {
	src := resumeSource(t)
	dir := t.TempDir()
	if _, err := New(fsm.Builtins(), resumeOpts(dir)).CheckSource(src); err != nil {
		t.Fatal(err)
	}
	// A different property set means a different run: the journal tag
	// mismatches and resume must reject it instead of replaying checkpoints
	// into the wrong graph.
	ropts := resumeOpts(dir)
	ropts.Resume = true
	_, err := New(fsm.Builtins()[:1], ropts).CheckSource(src)
	if !errors.Is(err, storage.ErrStale) {
		t.Fatalf("resume under a different FSM set: %v", err)
	}
}

// TestResumeRejectsEditedFSMBody: a journal belongs to the FSM definitions
// it was written under, not to their names. Resumed with the io FSM edited
// under the same name — it now accepts only Init, so a closed writer is a
// bug — the run is refused with storage.ErrStale instead of replaying the
// old closure.
func TestResumeRejectsEditedFSMBody(t *testing.T) {
	src := resumeSource(t)
	dir := t.TempDir()
	if _, err := New(fsm.Builtins(), resumeOpts(dir)).CheckSource(src); err != nil {
		t.Fatal(err)
	}
	edited := fsm.Builtins()
	if err := edited[0].SetAccept("Init"); err != nil {
		t.Fatal(err)
	}
	ropts := resumeOpts(dir)
	ropts.Resume = true
	if _, err := New(edited, ropts).CheckSource(src); !errors.Is(err, storage.ErrStale) {
		t.Fatalf("resume with an edited FSM body: %v", err)
	}
}

// TestResumeRejectsSameShapeEdit: a journal belongs to the source it was
// written for, not to the shape of its graph. Flipping one comparison keeps
// every vertex, edge and CFET path count, yet the closure is another one, so
// a resume over the edit is refused with storage.ErrStale instead of
// replaying the old closure.
func TestResumeRejectsSameShapeEdit(t *testing.T) {
	src := resumeSource(t)
	edited := strings.Replace(src, "if (n > 2)", "if (n < 2)", 1)
	if edited == src {
		t.Fatal("the fixture lost the comparison the test flips")
	}
	dir := t.TempDir()
	if _, err := New(fsm.Builtins(), resumeOpts(dir)).CheckSource(src); err != nil {
		t.Fatal(err)
	}
	ropts := resumeOpts(dir)
	ropts.Resume = true
	if _, err := New(fsm.Builtins(), ropts).CheckSource(edited); !errors.Is(err, storage.ErrStale) {
		t.Fatalf("resume over a same-shape edit: %v", err)
	}
}

func TestCheckerResumeCorruptJournal(t *testing.T) {
	src := resumeSource(t)
	dir := t.TempDir()
	if _, err := New(fsm.Builtins(), resumeOpts(dir)).CheckSource(src); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "alias", engine.JournalName)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ropts := resumeOpts(dir)
	ropts.Resume = true
	if _, err := New(fsm.Builtins(), ropts).CheckSource(src); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("resume over a mangled journal header: %v", err)
	}
}

// TestCheckerResumeCompletedRun re-resumes a run that already finished: both
// phase journals carry completed records, so resume restores the final
// graphs and reproduces the reports without recomputation.
func TestCheckerResumeCompletedRun(t *testing.T) {
	src := resumeSource(t)
	dir := t.TempDir()
	ref, err := New(fsm.Builtins(), resumeOpts(dir)).CheckSource(src)
	if err != nil {
		t.Fatal(err)
	}
	ropts := resumeOpts(dir)
	ropts.Resume = true
	res, err := New(fsm.Builtins(), ropts).CheckSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderReports(res.Reports), renderReports(ref.Reports); got != want {
		t.Fatalf("re-resumed reports differ:\n%s\nvs\n%s", got, want)
	}
}
