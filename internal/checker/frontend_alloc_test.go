package checker_test

import (
	"runtime"
	"testing"

	"github.com/grapple-system/grapple/internal/analysis"
	"github.com/grapple-system/grapple/internal/callgraph"
	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/raceflag"
	"github.com/grapple-system/grapple/internal/symbolic"
	"github.com/grapple-system/grapple/internal/workload"
)

// frontendMallocsPerLine is TestFrontendAllocBudget's pin: heap objects
// per source line for parse, resolve, lower, pre-analysis and CFET build on
// wide-sim at 10×10, the measured 0.21 plus 15 %. Before the resolver
// numbered variables (no name map per function in lowering, SCCP or the
// CFET walk) and a sliced-away method stopped allocating maps, the same
// run made 0.43; before the frontend allocated from slabs owned by each
// build, 76.2.
const frontendMallocsPerLine = 0.24

// TestFrontendAllocBudget pins how many heap objects the frontend makes per
// source line — parse → resolve → lower → pre-analysis (SCCP) → cfet.Build
// on a wide-sim subject, against the lock FSM with the checker's slicing as
// in the benchmark's frontend-wide workload — so that a node, list,
// environment or name that goes back to one allocation apiece fails here
// and not only in a profile. The stages run in the checker's order: the
// slicing analyses after lowering, which are outside the count, then SCCP
// over the functions the slice keeps, then the build. The count is
// runtime.MemStats.Mallocs, which does not depend on GC timing.
func TestFrontendAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime inflates allocation")
	}
	s := workload.Generate(workload.WideProfile(10, 10))
	var mallocs, bytes uint64
	var before, after runtime.MemStats
	start := func() {
		runtime.GC()
		runtime.ReadMemStats(&before)
	}
	stop := func() {
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
	}

	start()
	prog, err := lang.Parse(s.Source)
	if err != nil {
		t.Fatal(err)
	}
	info, err := lang.Resolve(prog)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Lower(info, ir.Options{UnrollDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	stop()

	cg := callgraph.Build(p)
	rel := analysis.ComputeRelevance(p, cg, analysis.SolvePointsTo(p, cg),
		map[string]bool{fsm.BuiltinLock().Type: true})
	drop := func(name string) bool { return !rel.KeepFunc(name) }
	var kept []*ir.Func
	for _, fn := range p.Funs {
		if !drop(fn.Name) {
			kept = append(kept, fn)
		}
	}

	start()
	pre, err := analysis.RunFuncs(p, analysis.PruneAnalyzers(), kept)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := cfet.Build(p, symbolic.NewTable(), cfet.Options{
		BranchVerdict: pre.BranchVerdict,
		SliceFunc:     drop,
		SliceBranch:   rel.InertBranch,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop()

	perLine := float64(mallocs) / float64(s.LoC)
	t.Logf("%d LoC, %d functions, %d CFET paths: %d mallocs, %.2f per line, %.0f B per line",
		s.LoC, len(p.Funs), ic.PathCount(), mallocs, perLine, float64(bytes)/float64(s.LoC))
	if perLine > frontendMallocsPerLine {
		t.Errorf("the frontend makes %.2f heap objects per source line, budget %.2f", perLine, frontendMallocsPerLine)
	}
}
