package checker_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/raceflag"
	"github.com/grapple-system/grapple/internal/storage"
	"github.com/grapple-system/grapple/internal/workload"
)

// TestScratchRunDoesNoPartitionIO is the count gate (in `make alloc-budget`)
// on the rule for when a partition file is written: when its partition leaves
// memory, at a checkpoint, or at the end of a run in a directory the caller
// keeps. hdfs-half under the default budget fits in one partition per phase and
// WorkDir "" is a temp dir the check removes, so none of the three applies:
// neither phase may load, write, append, move a byte or evict, and the reports
// must be the ones the same check prints into a WorkDir it was given, which
// does write.
func TestScratchRunDoesNoPartitionIO(t *testing.T) {
	src := workload.Generate(hdfsHalfProfile()).Source
	scratch, err := checker.New(fsm.Builtins(), checker.Options{Workers: 2}).CheckSource(src)
	if err != nil {
		t.Fatal(err)
	}
	for name, ph := range map[string]checker.PhaseStats{"alias": scratch.Alias, "dataflow": scratch.Dataflow} {
		io := ph.IO
		if io.Loads != 0 || io.Writes != 0 || io.Appends != 0 || io.BytesRead != 0 || io.BytesWritten != 0 || io.Evictions != 0 {
			t.Errorf("%s phase of a check in a temp dir, %d edges in %d partition(s): %v", name, ph.EdgesAfter, ph.Partitions, io)
		}
		if ph.Breakdown.IO != 0 {
			t.Errorf("%s phase booked %v of I/O time", name, ph.Breakdown.IO)
		}
	}
	named, err := checker.New(fsm.Builtins(), checker.Options{WorkDir: t.TempDir(), Workers: 2}).CheckSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(scratch.Reports) == 0 || fmt.Sprint(scratch.Reports) != fmt.Sprint(named.Reports) {
		t.Errorf("%d reports in a temp dir, %d in a named WorkDir, or not the same ones", len(scratch.Reports), len(named.Reports))
	}
	if w := named.Alias.IO.BytesWritten + named.Dataflow.IO.BytesWritten; w == 0 || named.Alias.IO.Loads+named.Dataflow.IO.Loads != 0 {
		t.Errorf("named WorkDir: %d bytes written, alias %v, dataflow %v: want the closed graphs written once and never read",
			w, named.Alias.IO, named.Dataflow.IO)
	}
}

// TestNamedWorkDirHoldsClosedGraph holds the other half of the rule: a WorkDir
// the caller names holds both closed graphs when Check returns — the probes of
// benchmark/ and the edge-set tests of this package read them there — whatever
// the budget left in memory and whether or not a journal wrote them already.
// Per phase, the multiset of edge keys in part-*.edges must be the multiset
// ForEach handed the checker, in memory (256 MiB), with most partitions
// evicted (3 MiB, 1 MiB), journaled or not.
func TestNamedWorkDirHoldsClosedGraph(t *testing.T) {
	src := workload.Generate(hdfsHalfProfile()).Source
	budgets := []int64{256 << 20, 3 << 20, 1 << 20}
	if testing.Short() || raceflag.Enabled {
		budgets = budgets[:2]
	}
	for _, budget := range budgets {
		for _, journal := range []bool{false, true} {
			t.Run(fmt.Sprintf("%d MiB, journal %v", budget>>20, journal), func(t *testing.T) {
				dir := t.TempDir()
				c := checker.New(fsm.Builtins(), checker.Options{
					WorkDir: dir, Journal: journal, Workers: 2, MemoryBudget: budget,
				})
				handed := map[string][]uint64{}
				c.OnClosedGraph(func(phase string, forEach func(func(*storage.Edge) bool) error) {
					if err := forEach(func(e *storage.Edge) bool {
						handed[phase] = append(handed[phase], e.Key())
						return true
					}); err != nil {
						t.Error(err)
					}
				})
				res, err := c.CheckSource(src)
				if err != nil {
					t.Fatal(err)
				}
				for phase, want := range map[string]int64{"alias": res.Alias.EdgesAfter, "dataflow": res.Dataflow.EdgesAfter} {
					paths, err := filepath.Glob(filepath.Join(dir, phase, "part-*.edges"))
					if err != nil {
						t.Fatal(err)
					}
					var onDisk []uint64
					for _, p := range paths {
						edges, _, _, err := storage.ReadPart(p, nil)
						if err != nil {
							t.Fatal(err)
						}
						for i := range edges {
							onDisk = append(onDisk, edges[i].Key())
						}
					}
					got := handed[phase]
					slices.Sort(onDisk)
					slices.Sort(got)
					if int64(len(got)) != want || !slices.Equal(onDisk, got) {
						t.Errorf("%s: %d edges in %d files, ForEach handed out %d, the phase counts %d",
							phase, len(onDisk), len(paths), len(got), want)
					}
				}
			})
		}
	}
}
