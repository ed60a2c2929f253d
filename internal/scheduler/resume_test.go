package scheduler

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
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
// fires), resumes, and requires the merged report stream byte-identical to
// an uninterrupted run — with exactly the k finished instances skipped.
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

	for k := 1; k < len(instances); k++ {
		dir := t.TempDir()
		faults := faultpoint.New()
		faults.Arm(faultpoint.SchedulerInstance, k)
		// Workers: 1 makes "k completions then crash" deterministic.
		_, err := Run(context.Background(), instances, Options{
			Workers: 1, WorkDir: dir, Journal: true, Scope: trace.Scope{Faults: faults},
		})
		if !errors.Is(err, faultpoint.ErrInjected) {
			t.Fatalf("k=%d: kill did not fire: %v", k, err)
		}
		res, err := Run(context.Background(), instances, Options{
			Workers: 2, WorkDir: dir, Resume: true,
		})
		if err != nil {
			t.Fatalf("k=%d: resume: %v", k, err)
		}
		if got := countResumed(res); got != k {
			t.Fatalf("k=%d: resumed %d instances", k, got)
		}
		if got := reportBytes(t, res.Reports); !bytes.Equal(got, want) {
			t.Fatalf("k=%d: resumed merged reports differ", k)
		}
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

// TestBatchResumeLogDamage: a torn final line (the crash landing mid-append)
// is dropped and that instance reruns; garbage anywhere earlier is corruption
// and resume refuses.
func TestBatchResumeLogDamage(t *testing.T) {
	instances := resumeInstances(t)
	dir := t.TempDir()
	ref, err := Run(context.Background(), instances, Options{Workers: 2, WorkDir: dir, Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, ref.Reports)
	path := filepath.Join(dir, CompletionLogName)
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
			t.Fatal("merged reports differ after torn-line recovery")
		}
	})

	t.Run("garbage mid-log refuses resume", func(t *testing.T) {
		lines := bytes.SplitAfter(pristine, []byte("\n"))
		if len(lines) < 3 {
			t.Fatalf("log too short to mangle: %d lines", len(lines))
		}
		mangled := append([]byte(nil), lines[0]...)
		mangled = append(mangled, []byte("{definitely not json\n")...)
		for _, l := range lines[2:] {
			mangled = append(mangled, l...)
		}
		if err := os.WriteFile(path, mangled, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Run(context.Background(), instances, Options{Workers: 2, WorkDir: dir, Resume: true})
		if !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("resume over a mangled log: %v", err)
		}
	})
}
