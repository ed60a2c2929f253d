package checker_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/workload"
)

// sliceProfile is the randomized slice-invariance subject: like
// propertyProfile but with the interprocedural knobs turned on so the
// relevance slicer has helper functions, dead parameters, and
// irrelevant-type traffic to remove.
func sliceProfile(seed int64) workload.Profile {
	p := propertyProfile(seed)
	p.Name = fmt.Sprintf("slice-%d", seed)
	p.Description = "randomized slice-invariance subject"
	p.LintNilRets = 1
	p.LintDeadParams = 2
	p.LintLeakyCalls = 1
	return p
}

// TestPropertySlicingPreservesReports: on random workload programs, for
// every builtin FSM property checked in isolation (and once for the full
// property set), the default check (property-relevance slicing on) yields a
// byte-identical rendered report set to the unsliced reference — a SliceFunc
// and SliceBranch that keep everything, which is exactly the CFET and context
// tree the slicer would otherwise have trimmed — while the sliced run stubs out
// at least one function somewhere across the matrix.
func TestPropertySlicingPreservesReports(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline twice per (seed, property)")
	}
	builtins := fsm.Builtins()
	// One run per builtin property alone (maximal slicing pressure: only a
	// single tracked type survives), plus all properties together.
	sets := make(map[string][]*fsm.FSM, len(builtins)+1)
	for _, f := range builtins {
		sets[f.Name] = []*fsm.FSM{f}
	}
	sets["all"] = builtins

	slicedSomewhere := false
	for _, seed := range []int64{11, 29} {
		s := workload.Generate(sliceProfile(seed))
		for name, fsms := range sets {
			t.Run(fmt.Sprintf("seed%d/%s", seed, name), func(t *testing.T) {
				run := func(opts cfet.Options) *checker.Result {
					c := checker.New(fsms, checker.WithCFET(checker.Options{WorkDir: t.TempDir()}, opts))
					res, err := c.CheckSource(s.Source)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				sliced := run(cfet.Options{})
				unsliced := run(cfet.Options{
					SliceFunc:   func(string) bool { return false },
					SliceBranch: func(*ir.If) bool { return false },
				})

				got := strings.Join(renderReports(sliced.Reports), "\n")
				want := strings.Join(renderReports(unsliced.Reports), "\n")
				if got != want {
					t.Fatalf("reports differ with slicing:\n  sliced:\n%s\n  unsliced:\n%s", got, want)
				}
				if unsliced.Alias.SlicedFunctions != 0 || unsliced.Alias.SlicedBranches != 0 {
					t.Errorf("unsliced run reports slicing: %d functions, %d branches",
						unsliced.Alias.SlicedFunctions, unsliced.Alias.SlicedBranches)
				}
				if sliced.Alias.SlicedFunctions > 0 {
					slicedSomewhere = true
				}
				t.Logf("sliced %d functions, %d branches; paths %d vs %d",
					sliced.Alias.SlicedFunctions, sliced.Alias.SlicedBranches,
					sliced.Alias.CFETPaths, unsliced.Alias.CFETPaths)
			})
		}
	}
	if !slicedSomewhere {
		t.Error("no (seed, property) combination sliced any function")
	}
}
