package checker_test

import (
	"fmt"
	"sort"
	"testing"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/workload"
)

// propertyProfile is a small randomized profile: big enough to exercise
// every checker and the planted constant branches, small enough that the
// full pipeline runs twice per seed in test time.
func propertyProfile(seed int64) workload.Profile {
	return workload.Profile{
		Name: fmt.Sprintf("prop-%d", seed), Version: "prop",
		Description: "randomized prune-invariance subject",
		Seed:        seed, Services: 1, WorkersPerService: 3,
		IOTP: 1, IOFP: 0, LockTP: 1, LockFP: 0,
		ExcTP: 1, ExcFP: 1, SockTP: 1, SockFP: 0,
		CorrectPerBug: 1, FillerStmts: 2,
		LintDeadBranches: 2, LintUninitReads: 1,
		LintDeadStores: 1, LintUnusedAllocs: 1,
	}
}

// renderReports reduces a report list to a sorted, comparable form.
func renderReports(reports []checker.Report) []string {
	out := make([]string, 0, len(reports))
	for _, r := range reports {
		out = append(out, fmt.Sprintf("%d:%d [%s] %s %s state=%v",
			r.Pos.Line, r.Pos.Col, r.FSM, r.Kind, r.Type, r.States))
	}
	sort.Strings(out)
	return out
}

// TestPropertyPruningPreservesReports: on random workload programs, the
// default check (constant-driven pruning on) yields the same typestate report
// set as the unpruned reference — a BranchVerdict that decides nothing, which
// is exactly the CFET the pre-analysis would otherwise have trimmed — while the
// pruned run encodes strictly fewer CFET paths (each subject plants
// LintDeadBranches constant branch splits).
func TestPropertyPruningPreservesReports(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline twice per seed")
	}
	for _, seed := range []int64{7, 19, 23, 31} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s := workload.Generate(propertyProfile(seed))

			run := func(opts cfet.Options) *checker.Result {
				c := checker.New(fsm.Builtins(), checker.WithCFET(checker.Options{WorkDir: t.TempDir()}, opts))
				res, err := c.CheckSource(s.Source)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			pruned := run(cfet.Options{})
			unpruned := run(cfet.Options{BranchVerdict: func(*ir.If) int { return 0 }})

			got, want := renderReports(pruned.Reports), renderReports(unpruned.Reports)
			if len(got) != len(want) {
				t.Fatalf("report count differs: pruned %d vs unpruned %d\npruned: %v\nunpruned: %v",
					len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("report %d differs:\n  pruned:   %s\n  unpruned: %s",
						i, got[i], want[i])
				}
			}

			if pruned.Alias.PrunedBranches == 0 {
				t.Error("pruned run removed no branches despite planted constant branches")
			}
			if unpruned.Alias.PrunedBranches != 0 {
				t.Errorf("unpruned run reports %d pruned branches", unpruned.Alias.PrunedBranches)
			}
			if pruned.Alias.CFETPaths >= unpruned.Alias.CFETPaths {
				t.Errorf("pruning did not reduce encoded paths: %d (pruned) vs %d (unpruned)",
					pruned.Alias.CFETPaths, unpruned.Alias.CFETPaths)
			}
			t.Logf("paths: %d pruned vs %d unpruned (%d branch sites removed)",
				pruned.Alias.CFETPaths, unpruned.Alias.CFETPaths, pruned.Alias.PrunedBranches)
		})
	}
}
