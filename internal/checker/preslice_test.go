package checker_test

import (
	"context"
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"testing"

	"github.com/grapple-system/grapple/internal/analysis"
	"github.com/grapple-system/grapple/internal/callgraph"
	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/fsm/packs"
	"github.com/grapple-system/grapple/internal/gofront"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/raceflag"
	"github.com/grapple-system/grapple/internal/workload"
)

// presliceCase is one subject of the pre-slice oracle: a MiniLang source or
// a lowered Go unit, and the FSMs it is checked against.
type presliceCase struct {
	name string
	src  string
	// goUnit returns a fresh Go unit (its AST is resolved in place, so the
	// two sides of the comparison each get their own).
	goUnit func(t *testing.T) *gofront.Result
	fsms   []*fsm.FSM
}

// callsThrower is a unit whose only route from main to a throw runs
// through relay, which handles no object: the pre-slice must lower relay
// and main's call to it must split on relay's exception, which leaves the
// lock held.
const callsThrower = `
type Lock;
fun risky(n: int) {
  if (n > 3) {
    var e: Exception = new Exception();
    throw e;
  }
  return;
}
fun relay(n: int) {
  risky(n);
  return;
}
fun main() {
  var l: Lock = new Lock();
  l.lock();
  relay(input());
  l.unlock();
  return;
}
`

func presliceCases(t *testing.T) []presliceCase {
	builtins := fsm.Builtins()
	cases := []presliceCase{{name: "calls-thrower/all", src: callsThrower, fsms: builtins}}
	for _, prof := range workload.Profiles() {
		src := workload.Generate(prof).Source
		cases = append(cases, presliceCase{name: prof.Name + "/all", src: src, fsms: builtins})
		for _, f := range builtins {
			cases = append(cases, presliceCase{name: prof.Name + "/" + f.Name, src: src, fsms: []*fsm.FSM{f}})
		}
	}
	cases = append(cases,
		presliceCase{name: "wide-sim-10x10/lock", src: workload.Generate(workload.WideProfile(10, 10)).Source,
			fsms: []*fsm.FSM{fsm.BuiltinLock()}},
		presliceCase{name: "concurrency-sim/all", src: workload.Generate(workload.ConcurrencyProfile()).Source, fsms: builtins})
	for seed := int64(1); seed <= 20; seed++ {
		f := builtins[seed%int64(len(builtins))]
		prof := workload.Profile{
			Name: fmt.Sprintf("seeded-%d", seed), Seed: seed, Services: 1, WorkersPerService: 3,
			IOTP: 1, LockTP: 1, ExcTP: 1, ExcFP: 1, SockTP: 1,
			CorrectPerBug: 1, FillerStmts: 2,
			LintDeadBranches: 2, LintUninitReads: 1, LintDeadStores: 1, LintUnusedAllocs: 1,
			LintNilRets: 1, LintDeadParams: 2, LintLeakyCalls: 1,
		}
		cases = append(cases, presliceCase{name: prof.Name + "/" + f.Name, src: workload.Generate(prof).Source, fsms: []*fsm.FSM{f}})
	}
	goCase := func(name string, lower func(*gofront.Rules) (*gofront.Result, error), packNames ...string) presliceCase {
		var sel []*packs.Pack
		var fsms []*fsm.FSM
		for _, n := range packNames {
			pk, err := packs.Get(n)
			if err != nil {
				t.Fatal(err)
			}
			sel = append(sel, pk)
			fsms = append(fsms, pk.FSM)
		}
		rules := packs.MergedRules(sel)
		return presliceCase{name: name, fsms: fsms, goUnit: func(t *testing.T) *gofront.Result {
			g, err := lower(rules)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}}
	}
	corpus, err := filepath.Glob(filepath.Join("..", "..", "testdata", "gofront", "*.go"))
	if err != nil || len(corpus) == 0 {
		t.Fatalf("no gofront corpus (%v)", err)
	}
	for _, path := range corpus {
		cases = append(cases, goCase("gofront/"+filepath.Base(path), func(r *gofront.Rules) (*gofront.Result, error) {
			return gofront.LowerFiles([]string{path}, r)
		}, packs.Names()...))
	}
	for _, sc := range []struct {
		pkg   string
		packs []string
	}{
		{"storage", []string{"file-handle", "use-after-release"}},
		{"engine", []string{"mutex", "context-cancel"}},
		{"trace", []string{"mutex", "context-cancel"}},
	} {
		dir := filepath.Join("..", sc.pkg)
		cases = append(cases, goCase("self/"+sc.pkg, func(r *gofront.Rules) (*gofront.Result, error) {
			return gofront.LowerPackage(dir, r)
		}, sc.packs...))
	}
	return cases
}

// lowered is one side of the oracle: a lowered unit, the checker that
// checks it, and the source text its journal tags would fingerprint.
type lowered struct {
	c    *checker.Checker
	p    *ir.Program
	text string
}

// wholeProgram lowers the case by ir.Lower, every function's body.
func (tc presliceCase) wholeProgram(t *testing.T) lowered {
	c := checker.New(tc.fsms, checker.Options{WorkDir: t.TempDir()})
	text, prog := tc.src, (*lang.Program)(nil)
	if tc.goUnit != nil {
		g := tc.goUnit(t)
		c, text, prog = c.ForGo(), g.Source(), g.Prog
	} else {
		var err error
		if prog, err = lang.Parse(tc.src); err != nil {
			t.Fatal(err)
		}
	}
	info, err := lang.Resolve(prog)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Lower(info, ir.Options{UnrollDepth: c.Opts.UnrollDepth})
	if err != nil {
		t.Fatal(err)
	}
	return lowered{c, p, text}
}

// preSliced lowers the case as a check does, on workers goroutines.
func (tc presliceCase) preSliced(t *testing.T, workers int) lowered {
	c := checker.New(tc.fsms, checker.Options{WorkDir: t.TempDir(), Workers: workers})
	if tc.goUnit != nil {
		g := tc.goUnit(t)
		c = c.ForGo()
		p, err := c.ResolveLower(g.Prog)
		if err != nil {
			t.Fatal(err)
		}
		return lowered{c, p, g.Source()}
	}
	p, err := c.LowerSource(tc.src)
	if err != nil {
		t.Fatal(err)
	}
	return lowered{c, p, tc.src}
}

// relevance is the slice ComputeRelevance computes over l's program.
func (l lowered) relevance() (*callgraph.Graph, *analysis.Relevance) {
	cg := callgraph.Build(l.p)
	return cg, analysis.ComputeRelevance(l.p, cg, analysis.SolvePointsTo(l.p, cg), l.c.TrackedTypes())
}

// check prepares and checks l's program, and renders the reports.
func (l lowered) check(t *testing.T) (*checker.Prepared, string) {
	prep, err := l.c.PrepareIR(context.Background(), l.p, l.text)
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.c.CheckPrepared(context.Background(), prep)
	if err != nil {
		t.Fatal(err)
	}
	return prep, checker.RenderReports(res.Reports)
}

// TestPreSliceMatchesWholeProgram holds the pre-slice — a check lowers only
// the functions ir.PreKeep keeps and stubs the rest — to whole-program
// lowering followed by the relevance slice, on callsThrower, the four paper
// subjects (all FSMs, and each alone), wide-sim 10×10 with lock,
// concurrency-sim, 20 seeded profiles, the gofront corpus and the
// self-check packages, at 1, 2 and 4 workers: every function the slice
// keeps is lowered; the site tables, every lowered body, every function's
// signature and MayThrow, the call graph and the slice are the whole
// program's, and at 2 workers so are the ICFET's method, node, leaf and
// call-edge IDs and the rendered reports.
func TestPreSliceMatchesWholeProgram(t *testing.T) {
	stubs := 0
	for _, tc := range presliceCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			if raceflag.Enabled && tc.name != "wide-sim-10x10/lock" {
				t.Skip("wide-sim, the one subject cut into parts, is enough to look for races")
			}
			ref := tc.wholeProgram(t)
			refCG, refRel := ref.relevance()
			refPrep, refReports := ref.check(t)
			for _, workers := range []int{1, 2, 4} {
				got := tc.preSliced(t, workers)
				where := fmt.Sprintf("%d workers", workers)
				p, w := got.p, ref.p
				for i, fn := range p.Funs {
					if fn.Stub {
						stubs++
						if refRel.KeepFunc(fn.Name) {
							t.Fatalf("%s: %s is stubbed, and the slice keeps it", where, fn.Name)
						}
					} else if d, wd := ir.Dump(fn), ir.Dump(w.Funs[i]); d != wd {
						t.Fatalf("%s: %s lowers otherwise:\n got:\n%s\n want:\n%s", where, fn.Name, d, wd)
					}
					if wf := w.Funs[i]; fn.Name != wf.Name || !slices.Equal(fn.Params, wf.Params) ||
						fn.RetType != wf.RetType || fn.MayThrow != wf.MayThrow {
						t.Fatalf("%s: function %d is %s%v %s throws=%v, whole program %s%v %s throws=%v", where, i,
							fn.Name, fn.Params, fn.RetType, fn.MayThrow, wf.Name, wf.Params, wf.RetType, wf.MayThrow)
					}
				}
				if p.NumAllocSites != w.NumAllocSites || p.NumCallSites != w.NumCallSites ||
					!slices.Equal(p.AllocSitePos, w.AllocSitePos) || !slices.Equal(p.AllocSiteType, w.AllocSiteType) ||
					!slices.Equal(p.CallSitePos, w.CallSitePos) {
					t.Fatalf("%s: site tables differ: %d alloc, %d call sites; whole program %d, %d",
						where, p.NumAllocSites, p.NumCallSites, w.NumAllocSites, w.NumCallSites)
				}
				cg, rel := got.relevance()
				if !maps.EqualFunc(cg.Callees, refCG.Callees, slices.Equal) || !maps.EqualFunc(cg.Callers, refCG.Callers, slices.Equal) ||
					!slices.Equal(cg.Roots(), refCG.Roots()) || !slices.EqualFunc(cg.SCCs, refCG.SCCs, slices.Equal) {
					t.Fatalf("%s: the call graph differs from the whole program's", where)
				}
				for _, fn := range w.Funs {
					if rel.KeepFunc(fn.Name) != refRel.KeepFunc(fn.Name) {
						t.Fatalf("%s: the slice keeps %s: %v, whole program %v", where, fn.Name, rel.KeepFunc(fn.Name), refRel.KeepFunc(fn.Name))
					}
				}
				if n, wn := rel.SlicedFunctions(p), refRel.SlicedFunctions(w); n != wn {
					t.Fatalf("%s: %d functions sliced, whole program %d", where, n, wn)
				} else if workers == 1 {
					lowered := 0
					for _, fn := range p.Funs {
						if !fn.Stub {
							lowered++
						}
					}
					t.Logf("%d functions, %d lowered, %d kept by the slice", len(p.Funs), lowered, len(p.Funs)-n)
				}
				// The rest is the check itself, which
				// TestParallelFrontendMatchesSerial and
				// TestWorkerCountLeavesCheckIdentical hold to one answer at
				// every worker count: it runs at the benchmark's two.
				if workers != 2 {
					continue
				}
				prep, reports := got.check(t)
				if err := sameICFET(icOf(prep), icOf(refPrep)); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if reports != refReports {
					t.Fatalf("%s: reports differ from the whole program's:\n got:\n%s\n want:\n%s", where, reports, refReports)
				}
			}
		})
	}
	if stubs == 0 {
		t.Error("vacuous: no function was stubbed across the subjects")
	}
}

func icOf(prep *checker.Prepared) *cfet.ICFET {
	ic, _ := prep.JoinInputs()
	return ic
}

// sameICFET compares what the engine's edges and the harness's probes name
// in an ICFET: methods, their node and leaf IDs, and call edges.
func sameICFET(got, want *cfet.ICFET) error {
	if len(got.Methods) != len(want.Methods) || len(got.CallEdges) != len(want.CallEdges) {
		return fmt.Errorf("%d methods, %d call edges; whole program %d, %d",
			len(got.Methods), len(got.CallEdges), len(want.Methods), len(want.CallEdges))
	}
	for i, m := range got.Methods {
		w := want.Methods[i]
		if m.Name != w.Name || m.SlicedAway != w.SlicedAway || !slices.Equal(m.NodeIDs, w.NodeIDs) || !slices.Equal(m.Leaves, w.Leaves) {
			return fmt.Errorf("method %d (%s) has other node or leaf IDs than the whole program's %s", i, m.Name, w.Name)
		}
	}
	for i, e := range got.CallEdges {
		w := want.CallEdges[i]
		if e.ID != w.ID || e.Caller != w.Caller || e.CallerNode != w.CallerNode || e.Callee != w.Callee || e.Site != w.Site {
			return fmt.Errorf("call edge %d is %+v, whole program %+v", i, *e, *w)
		}
	}
	return nil
}

// TestPreSliceKeepsLoweringErrors puts each error ir.Lower can return after
// Resolve accepted a unit into a function no property reaches. A check,
// which pre-slices, must lower that function all the same and fail with
// the whole-program error text. (lowerStmt's bad assignment target and bad
// expression statement, lowerObjExpr's non-object, the null throw, the bad
// unary and the unsupported condition form are rejected by the parser or
// Resolve before lowering can meet them.)
func TestPreSliceKeepsLoweringErrors(t *testing.T) {
	const unit = `
type Lock;
fun main() {
  var l: Lock = new Lock();
  l.lock();
  l.unlock();
  irrelevant(input());
  return;
}
fun same(b: bool): bool {
  return b;
}
`
	for _, tc := range []struct{ name, fun string }{
		{"bool literal as int", "fun irrelevant(n: int): bool {\n  return true;\n}\n"},
		{"comparison as int", "fun irrelevant(n: int): bool {\n  return n < 1;\n}\n"},
		{"equality as int", "fun irrelevant(n: int): bool {\n  var b: bool = n > 0;\n  return b == true;\n}\n"},
		{"call as condition", "fun irrelevant(n: int) {\n  if (same(n > 0)) {\n    n = n + 1;\n  }\n  return;\n}\n"},
		{"call as loop condition", "fun irrelevant(n: int) {\n  while (same(n > 0)) {\n    n = n - 1;\n  }\n  return;\n}\n"},
		{"call as bool value", "fun irrelevant(n: int) {\n  var b: bool = same(true);\n  return;\n}\n"},
		{"compared comparisons", "fun irrelevant(n: int) {\n  var b: bool = (n < 1) == (n > 2);\n  return;\n}\n"},
		{"bool literal compared", "fun irrelevant(n: int) {\n  var b: bool = same(true) == true;\n  return;\n}\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := unit + tc.fun
			prog, err := lang.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			info, err := lang.Resolve(prog)
			if err != nil {
				t.Fatalf("Resolve rejects the unit: %v", err)
			}
			if keep := ir.PreKeep(info); keep[len(keep)-1] {
				t.Fatal("the pre-slice keeps the failing function: the case tests nothing")
			}
			_, want := ir.Lower(info, ir.Options{})
			if want == nil {
				t.Fatal("whole-program lowering accepts the unit: the case tests nothing")
			}
			for _, workers := range []int{1, 2} {
				_, err := checker.New([]*fsm.FSM{fsm.BuiltinLock()}, checker.Options{Workers: workers}).LowerSource(src)
				if err == nil || err.Error() != "lower: "+want.Error() {
					t.Fatalf("%d workers: the check fails with %v, whole-program lowering with %v", workers, err, want)
				}
			}
		})
	}
}
