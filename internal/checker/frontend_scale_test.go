package checker_test

import (
	"context"
	"runtime"
	"testing"

	"github.com/grapple-system/grapple/internal/analysis"
	"github.com/grapple-system/grapple/internal/callgraph"
	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/raceflag"
	"github.com/grapple-system/grapple/internal/symbolic"
	"github.com/grapple-system/grapple/internal/workload"
)

// lowerWide parses, resolves and lowers one wide-sim source the way
// checker.PrepareSource does.
func lowerWide(tb testing.TB, src string) *ir.Program {
	tb.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	info, err := lang.Resolve(prog)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := ir.Lower(info, ir.Options{UnrollDepth: 2})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// frontendCost is what one preparation of a wide-sim subject costs in
// quantities that repeat from run to run.
type frontendCost struct {
	funcs        int
	allocBytes   uint64 // runtime.MemStats.TotalAlloc delta over the whole preparation
	verdictAsked int    // BranchVerdict lookups the CFET walker made
	ifsWalked    int    // Ifs the walker reached: a split, a pruned site or a truncation each
}

// prepareWide drives wide-sim at services×workers from source text through
// checker.PrepareIR against the lock FSM (slicing on, as in the benchmark's
// frontend-wide workload), counting allocation and verdict lookups.
func prepareWide(t *testing.T, services, workers int) frontendCost {
	t.Helper()
	src := workload.Generate(workload.WideProfile(services, workers)).Source
	var cost frontendCost
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	p := lowerWide(t, src)
	pre, err := analysis.Run(p, analysis.PruneAnalyzers())
	if err != nil {
		t.Fatal(err)
	}
	c := checker.New([]*fsm.FSM{fsm.BuiltinLock()}, checker.WithCFET(checker.Options{WorkDir: t.TempDir()},
		cfet.Options{BranchVerdict: func(s *ir.If) int {
			cost.verdictAsked++
			return pre.BranchVerdict(s)
		}}))
	prep, err := c.PrepareIR(context.Background(), p, "")
	if err != nil {
		t.Fatal(err)
	}

	runtime.ReadMemStats(&after)
	cost.allocBytes = after.TotalAlloc - before.TotalAlloc
	cost.funcs = len(p.Funs)
	ic, _ := prep.JoinInputs()
	for _, m := range ic.Methods {
		cost.ifsWalked += m.Pruned
		for _, n := range m.Nodes {
			// A reached If either split its node or, with the node budget
			// spent, ended it in a truncation leaf.
			if n.HasCond || n.Leaf == cfet.LeafTruncate {
				cost.ifsWalked++
			}
		}
	}
	return cost
}

// TestFrontendScalesLinearly guards the frontend's cost model on quantities
// that repeat exactly, not on time. Wide-sim at 5×20, 10×20 and 20×20 has
// the same sixteen bug-pattern workers (which carry nearly all CFET paths)
// and 1×, 2× and 4× the filler functions around them. So: allocation over
// the whole preparation grows at most in proportion to the functions; each
// added function costs the same whether the program around it is small or
// large (the fixed part cancels in the increments, which is what makes this
// half sharp); and the walker consults the verdict index exactly once per If
// it reaches, the same Ifs at every size — with BranchVerdict a single map
// probe, branch pruning costs what the code walked costs, not what the
// program around it does.
func TestFrontendScalesLinearly(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime inflates allocation")
	}
	small, mid, large := prepareWide(t, 5, 20), prepareWide(t, 10, 20), prepareWide(t, 20, 20)
	for _, c := range []frontendCost{small, mid, large} {
		if c.verdictAsked != c.ifsWalked || c.ifsWalked == 0 {
			t.Errorf("%d functions: %d verdict lookups for %d Ifs walked, want one each",
				c.funcs, c.verdictAsked, c.ifsWalked)
		}
	}
	ratio := float64(large.allocBytes) / float64(small.allocBytes)
	firstStep := float64(mid.allocBytes-small.allocBytes) / float64(mid.funcs-small.funcs)
	secondStep := float64(large.allocBytes-mid.allocBytes) / float64(large.funcs-mid.funcs)
	t.Logf("%d / %d / %d functions: TotalAlloc %d / %d / %d bytes (x%.2f end to end), %.0f then %.0f bytes per added function, %d Ifs walked",
		small.funcs, mid.funcs, large.funcs, small.allocBytes, mid.allocBytes, large.allocBytes,
		ratio, firstStep, secondStep, large.ifsWalked)
	if ratio > 4.6 {
		t.Errorf("allocation grew x%.2f for x%.2f the functions", ratio, float64(large.funcs)/float64(small.funcs))
	}
	if secondStep > 1.15*firstStep {
		t.Errorf("an added function costs %.0f bytes in the larger program, %.0f in the smaller: the frontend is no longer linear",
			secondStep, firstStep)
	}
}

// The frontend microbenchmarks: one layer each over wide-sim at 10×10
// (~13 k LoC), reporting time and allocation per source line so numbers
// from different sizes compare.

func wideBenchSubject() *workload.Subject {
	return workload.Generate(workload.WideProfile(10, 10))
}

func reportPerLoC(b *testing.B, loc int, allocBefore *runtime.MemStats) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(loc)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/LoC")
	b.ReportMetric(float64(after.TotalAlloc-allocBefore.TotalAlloc)/n, "B/LoC")
}

var benchSink any

// BenchmarkParse times the serial parse, lexing included; its MB/s is
// source bytes parsed per second.
func BenchmarkParse(b *testing.B) {
	benchParse(b, func(src string) (*lang.Program, error) { return lang.Parse(src) })
}

// BenchmarkParseParallel is BenchmarkParse with lang.ParseParallel on two
// workers; wide-sim at 10×10 (279 KB) is cut into two parts.
func BenchmarkParseParallel(b *testing.B) {
	benchParse(b, func(src string) (*lang.Program, error) {
		prog, _, err := lang.ParseParallel(src, 2)
		return prog, err
	})
}

func benchParse(b *testing.B, parse func(string) (*lang.Program, error)) {
	s := wideBenchSubject()
	b.SetBytes(int64(len(s.Source)))
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := parse(s.Source)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = prog
	}
	reportPerLoC(b, s.LoC, &before)
}

func BenchmarkLower(b *testing.B) {
	s := wideBenchSubject()
	prog, err := lang.Parse(s.Source)
	if err != nil {
		b.Fatal(err)
	}
	info, err := lang.Resolve(prog)
	if err != nil {
		b.Fatal(err)
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := ir.Lower(info, ir.Options{UnrollDepth: 2})
		if err != nil {
			b.Fatal(err)
		}
		benchSink = p
	}
	reportPerLoC(b, s.LoC, &before)
}

func BenchmarkCFETBuild(b *testing.B) {
	s := wideBenchSubject()
	p := lowerWide(b, s.Source)
	pre, err := analysis.Run(p, analysis.PruneAnalyzers())
	if err != nil {
		b.Fatal(err)
	}
	// The checker's default options against the lock FSM, as in the
	// benchmark's frontend-wide workload: SCCP verdicts plus the slice.
	cg := callgraph.Build(p)
	rel := analysis.ComputeRelevance(p, cg, analysis.SolvePointsTo(p, cg),
		map[string]bool{fsm.BuiltinLock().Type: true})
	opts := cfet.Options{
		BranchVerdict: pre.BranchVerdict,
		SliceFunc:     func(name string) bool { return !rel.KeepFunc(name) },
		SliceBranch:   rel.InertBranch,
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ic, err := cfet.Build(p, symbolic.NewTable(), opts)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = ic
	}
	reportPerLoC(b, s.LoC, &before)
}
