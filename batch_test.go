package grapple

import (
	"bytes"
	"os"
	"testing"

	"github.com/grapple-system/grapple/internal/workload"
)

// TestCheckAllWorkDirPerInstance is the regression test for CheckAll
// lowering BatchOptions.WorkDir into every instance's checker options:
// concurrent instances then shared one dataflow/ directory and overwrote
// each other's partition files. Each instance must get its own
// subdirectory, and the merged reports must equal a run that leaves WorkDir
// unset. Meaningful under -race with BatchWorkers >= 2.
func TestCheckAllWorkDirPerInstance(t *testing.T) {
	s := workload.Generate(workload.MiniProfile())
	subjects := []Subject{{Name: s.Name, Source: s.Source}}
	fsms := BuiltinCheckers()

	run := func(workDir string) []byte {
		t.Helper()
		res, err := CheckAll(subjects, fsms, BatchOptions{
			Options:      Options{WorkDir: workDir},
			BatchWorkers: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if failed := res.Failed(); len(failed) != 0 {
			t.Fatalf("failed instances: %+v", failed)
		}
		return goldenBytes(t, res.Reports)
	}

	dir := t.TempDir()
	with, without := run(dir), run("")
	if !bytes.Equal(with, without) {
		t.Fatalf("reports depend on WorkDir:\n%s", goldenDiff(without, with))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	dirs := 0
	for _, e := range entries {
		if e.IsDir() {
			dirs++
		}
	}
	if dirs != len(fsms) {
		t.Fatalf("%d instance directories under WorkDir, want one per instance (%d): %v", dirs, len(fsms), entries)
	}
}

// TestUncachedBatchSharesFrontends: DisableConstraintCache turns off the
// memoization of solver verdicts and nothing else. A batch run with it still
// prepares one frontend per distinct subject, probes no cache, and merges the
// same reports as the cached batch.
func TestUncachedBatchSharesFrontends(t *testing.T) {
	second := workload.MiniProfile()
	second.Name, second.Seed = "mini-b", 43
	var subjects []Subject
	for _, p := range []workload.Profile{workload.MiniProfile(), second} {
		s := workload.Generate(p)
		subjects = append(subjects, Subject{Name: s.Name, Source: s.Source})
	}
	fsms := BuiltinCheckers()
	run := func(uncached bool) *BatchResult {
		t.Helper()
		res, err := CheckAll(subjects, fsms, BatchOptions{
			Options:      Options{DisableConstraintCache: uncached},
			BatchWorkers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if failed := res.Failed(); len(failed) != 0 {
			t.Fatalf("failed instances: %+v", failed)
		}
		return res
	}
	cached, uncached := run(false), run(true)
	if uncached.FrontendPrepares != len(subjects) {
		t.Fatalf("uncached batch prepared %d frontends, want one per subject (%d)", uncached.FrontendPrepares, len(subjects))
	}
	if uncached.CacheLookups != 0 {
		t.Fatalf("uncached batch probed a cache %d times", uncached.CacheLookups)
	}
	if want, got := goldenBytes(t, cached.Reports), goldenBytes(t, uncached.Reports); !bytes.Equal(want, got) {
		t.Fatalf("reports depend on the constraint cache:\n%s", goldenDiff(want, got))
	}
}
