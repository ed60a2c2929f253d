package scheduler

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/faultpoint"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/storage"
	"github.com/grapple-system/grapple/internal/trace"
)

func resumeInstances(t *testing.T) []Instance {
	t.Helper()
	return Expand(miniSubjects(t), GroupPerFSM(fsm.Builtins()), checker.Options{})
}

func countResumed(res *BatchResult) int {
	n := 0
	for _, ir := range res.Instances {
		if ir.Resumed {
			n++
		}
	}
	return n
}

// TestBatchResumeAtEveryInstanceBoundary kills the batch after each k-th
// instance completion (the completion record is durable before the kill
// fires) and, in the torn variant, in the middle of the k-th record's append;
// resumes; and requires the merged report stream byte-identical to an
// uninterrupted run — with exactly the durably finished instances skipped.
// Runs under -race via the Makefile race target and -shuffle=on via test.
func TestBatchResumeAtEveryInstanceBoundary(t *testing.T) {
	instances := resumeInstances(t)

	refDir := t.TempDir()
	ref, err := Run(context.Background(), instances, Options{Workers: 2, WorkDir: refDir, Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, ref.Reports)
	if len(ref.Reports) == 0 {
		t.Fatal("expected warnings from seeded subjects")
	}
	if countResumed(ref) != 0 {
		t.Fatal("fresh journaled run claims resumed instances")
	}

	for _, kill := range []struct {
		point string
		last  int // the highest k swept
		lost  int // finished instances the kill leaves unrecorded
	}{
		{faultpoint.SchedulerInstance, len(instances) - 1, 0},
		{faultpoint.JournalAppendMid, len(instances), 1},
	} {
		for k := 1; k <= kill.last; k++ {
			dir := t.TempDir()
			faults := faultpoint.New()
			faults.Arm(kill.point, k)
			// Workers: 1 makes "k completions then crash" deterministic.
			_, err := Run(context.Background(), instances, Options{
				Workers: 1, WorkDir: dir, Journal: true, Scope: trace.Scope{Faults: faults},
			})
			if !errors.Is(err, faultpoint.ErrInjected) {
				t.Fatalf("%s k=%d: kill did not fire: %v", kill.point, k, err)
			}
			res, err := Run(context.Background(), instances, Options{
				Workers: 2, WorkDir: dir, Resume: true,
			})
			if err != nil {
				t.Fatalf("%s k=%d: resume: %v", kill.point, k, err)
			}
			if got := countResumed(res); got != k-kill.lost {
				t.Fatalf("%s k=%d: resumed %d instances, want %d", kill.point, k, got, k-kill.lost)
			}
			if got := reportBytes(t, res.Reports); !bytes.Equal(got, want) {
				t.Fatalf("%s k=%d: resumed merged reports differ", kill.point, k)
			}
		}
	}
}

// TestBatchResumeRejectsStaleLog: a batch log belongs to one instance set.
// Resumed over an edited subject, or without one of the property groups it
// was written for, it is refused with storage.ErrStale and no instance is
// restored from it.
func TestBatchResumeRejectsStaleLog(t *testing.T) {
	subjects := miniSubjects(t)
	groups := GroupPerFSM(fsm.Builtins())
	edited := slices.Clone(subjects)
	edited[0].Source = subjects[1].Source
	for name, instances := range map[string][]Instance{
		"edited subject": Expand(edited, groups, checker.Options{}),
		"dropped group":  Expand(subjects, groups[1:], checker.Options{}),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := Run(context.Background(), Expand(subjects, groups, checker.Options{}), Options{
				Workers: 2, WorkDir: dir, Journal: true,
			}); err != nil {
				t.Fatal(err)
			}
			res, err := Run(context.Background(), instances, Options{Workers: 2, WorkDir: dir, Resume: true})
			if !errors.Is(err, storage.ErrStale) {
				t.Fatalf("resume over another instance set: %v", err)
			}
			if res != nil {
				t.Fatalf("a refused resume returned %d instances (%d restored)", len(res.Instances), countResumed(res))
			}
		})
	}
}

// TestBatchResumeRejectsEditedFSMBody: a batch log belongs to the FSM
// definitions its instances ran under. Resumed with the io FSM edited under
// the same name — it now accepts only Init — it is refused with
// storage.ErrStale, not answered with the old reports.
func TestBatchResumeRejectsEditedFSMBody(t *testing.T) {
	subjects := miniSubjects(t)
	dir := t.TempDir()
	if _, err := Run(context.Background(), Expand(subjects, GroupPerFSM(fsm.Builtins()), checker.Options{}), Options{
		Workers: 2, WorkDir: dir, Journal: true,
	}); err != nil {
		t.Fatal(err)
	}
	edited := fsm.Builtins()
	if err := edited[0].SetAccept("Init"); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Expand(subjects, GroupPerFSM(edited), checker.Options{}), Options{
		Workers: 2, WorkDir: dir, Resume: true,
	})
	if !errors.Is(err, storage.ErrStale) {
		t.Fatalf("resume with an edited FSM body: %v", err)
	}
	if res != nil {
		t.Fatalf("a refused resume returned %d instances (%d restored)", len(res.Instances), countResumed(res))
	}
}

// TestBatchResumeRejectsOtherUnroll: a batch log belongs to the options its
// instances ran under as much as to their sources. Resumed at another unroll
// depth, which gives the CFET other paths and can change a report, it is
// refused with storage.ErrStale and no instance is restored.
func TestBatchResumeRejectsOtherUnroll(t *testing.T) {
	subjects := miniSubjects(t)
	groups := GroupPerFSM(fsm.Builtins())
	dir := t.TempDir()
	if _, err := Run(context.Background(), Expand(subjects, groups, checker.Options{UnrollDepth: 1}), Options{
		Workers: 2, WorkDir: dir, Journal: true,
	}); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Expand(subjects, groups, checker.Options{UnrollDepth: 2}), Options{
		Workers: 2, WorkDir: dir, Resume: true,
	})
	if !errors.Is(err, storage.ErrStale) {
		t.Fatalf("resume at another unroll depth: %v", err)
	}
	if res != nil {
		t.Fatalf("a refused resume returned %d instances (%d restored)", len(res.Instances), countResumed(res))
	}
}

// TestBatchResumeCompletedRun resumes a fully finished batch: every instance
// is restored from the log, nothing reruns, and the stream is identical.
func TestBatchResumeCompletedRun(t *testing.T) {
	instances := resumeInstances(t)
	dir := t.TempDir()
	ref, err := Run(context.Background(), instances, Options{Workers: 2, WorkDir: dir, Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), instances, Options{Workers: 2, WorkDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := countResumed(res); got != len(instances) {
		t.Fatalf("resumed %d of %d instances", got, len(instances))
	}
	if !bytes.Equal(reportBytes(t, res.Reports), reportBytes(t, ref.Reports)) {
		t.Fatal("resumed merged reports differ")
	}
}

// TestBatchResumeAfterTimeouts: deadline-killed instances are recorded
// failed, not complete, so a resume without the deadline reruns exactly
// those and completes the batch.
func TestBatchResumeAfterTimeouts(t *testing.T) {
	instances := resumeInstances(t)

	cold, err := Run(context.Background(), instances, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, cold.Reports)

	dir := t.TempDir()
	strangled, err := Run(context.Background(), instances, Options{
		Workers: 2, WorkDir: dir, Journal: true, Timeout: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(strangled.Failed()) == 0 {
		t.Skip("nothing timed out under a 1ns deadline; nothing to resume")
	}
	res, err := Run(context.Background(), instances, Options{Workers: 2, WorkDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed()) != 0 {
		t.Fatalf("resume left failures: %v", res.Failed())
	}
	if !bytes.Equal(reportBytes(t, res.Reports), want) {
		t.Fatal("resumed merged reports differ from cold run")
	}
}

func TestBatchResumeMissingLog(t *testing.T) {
	_, err := Run(context.Background(), resumeInstances(t), Options{
		Workers: 2, WorkDir: t.TempDir(), Resume: true,
	})
	if !errors.Is(err, storage.ErrNoJournal) {
		t.Fatalf("resume of an empty workdir: %v", err)
	}
}

func TestBatchJournalRequiresWorkDir(t *testing.T) {
	if _, err := Run(context.Background(), resumeInstances(t), Options{Journal: true}); err == nil {
		t.Fatal("Journal without WorkDir accepted")
	}
	if _, err := Run(context.Background(), resumeInstances(t), Options{Resume: true}); err == nil {
		t.Fatal("Resume without WorkDir accepted")
	}
}

// TestBatchResumeLogDamage: a torn final record (the crash landing
// mid-append) is dropped and that instance reruns; damage to an earlier
// record is corruption and resume refuses.
func TestBatchResumeLogDamage(t *testing.T) {
	instances := resumeInstances(t)
	dir := t.TempDir()
	ref, err := Run(context.Background(), instances, Options{Workers: 2, WorkDir: dir, Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, ref.Reports)
	path := filepath.Join(dir, JournalName)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("torn final line reruns that instance", func(t *testing.T) {
		torn := pristine[:len(pristine)-7] // mid-way through the last record
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), instances, Options{Workers: 2, WorkDir: dir, Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := countResumed(res); got != len(instances)-1 {
			t.Fatalf("resumed %d instances, want %d", got, len(instances)-1)
		}
		if !bytes.Equal(reportBytes(t, res.Reports), want) {
			t.Fatal("merged reports differ after torn-record recovery")
		}
	})

	t.Run("garbage mid-log refuses resume", func(t *testing.T) {
		mangled := bytes.Clone(pristine)
		first := bytes.Index(mangled, []byte(`"subject"`)) // inside the first record
		if first < 0 {
			t.Fatal("no record in the log")
		}
		mangled[first+1] ^= 0x20
		if err := os.WriteFile(path, mangled, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Run(context.Background(), instances, Options{Workers: 2, WorkDir: dir, Resume: true})
		if !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("resume over a mangled log: %v", err)
		}
	})
}
