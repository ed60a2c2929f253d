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
