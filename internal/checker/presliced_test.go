package checker_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/grapple-system/grapple/internal/analysis"
	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/trace"
	"github.com/grapple-system/grapple/internal/workload"
)

// prepareWholeProgramSCCP is the reference order of the prepare: constant
// propagation over every function of the program first, then the relevance
// slice, with the whole program's verdicts handed to the CFET walker.
func prepareWholeProgramSCCP(t *testing.T, fsms []*fsm.FSM, src string) (*checker.Checker, *checker.Prepared) {
	t.Helper()
	p := lowerWide(t, src)
	pre, err := analysis.Run(p, analysis.PruneAnalyzers())
	if err != nil {
		t.Fatal(err)
	}
	c := checker.New(fsms, checker.WithCFET(checker.Options{WorkDir: t.TempDir()}, cfet.Options{BranchVerdict: pre.BranchVerdict}))
	prep, err := c.PrepareIR(context.Background(), p, src)
	if err != nil {
		t.Fatal(err)
	}
	return c, prep
}

// lastKeptDecides is a program whose last kept function, main, holds the
// only branch SCCP decides; filler is sliced away.
const lastKeptDecides = `
type Lock;
fun filler(n: int): int {
  var k: int = 2;
  if (k == 2) { n = n + 1; }
  return n;
}
fun worker(l: Lock) {
  l.lock();
  l.unlock();
}
fun main() {
  var l: Lock = new Lock();
  var mode: int = 1;
  var x: int = input();
  filler(x);
  worker(l);
  if (mode == 1) {
    l.lock();
  }
  if (x > 0) {
    l.unlock();
  }
}
`

// TestSlicedPreAnalysisMatchesWholeProgram holds the prepare, which runs
// SCCP only over the functions the relevance slice keeps, to the reference
// that runs it over every function before slicing: per method the same
// leaves, pruned, sliced and sliced-away counts, and byte-identical reports.
// The subjects are the four paper subjects with all four FSMs and with each
// alone, wide-sim 10×10 with lock, lastKeptDecides with lock, and 20 seeded
// random programs, each checked against one FSM.
func TestSlicedPreAnalysisMatchesWholeProgram(t *testing.T) {
	type tc struct {
		name string
		src  string
		fsms []*fsm.FSM
	}
	builtins := fsm.Builtins()
	var cases []tc
	for _, prof := range workload.Profiles() {
		src := workload.Generate(prof).Source
		cases = append(cases, tc{prof.Name + "/all", src, builtins})
		for _, f := range builtins {
			cases = append(cases, tc{prof.Name + "/" + f.Name, src, []*fsm.FSM{f}})
		}
	}
	cases = append(cases, tc{"wide-sim-10x10/lock", workload.Generate(workload.WideProfile(10, 10)).Source,
		[]*fsm.FSM{fsm.BuiltinLock()}})
	// The last function the slice keeps decides a branch of its own, so an
	// SCCP set that leaves out the last kept function changes its Pruned
	// count and its reports. (No generated subject's last kept function
	// decides one.)
	cases = append(cases, tc{"last-kept-decides/lock", lastKeptDecides, []*fsm.FSM{fsm.BuiltinLock()}})
	for seed := int64(1); seed <= 20; seed++ {
		f := builtins[seed%int64(len(builtins))]
		prof := workload.Profile{
			Name: fmt.Sprintf("seeded-%d", seed), Seed: seed, Services: 1, WorkersPerService: 3,
			IOTP: 1, LockTP: 1, ExcTP: 1, ExcFP: 1, SockTP: 1,
			CorrectPerBug: 1, FillerStmts: 2,
			LintDeadBranches: 2, LintUninitReads: 1, LintDeadStores: 1, LintUnusedAllocs: 1,
			LintNilRets: 1, LintDeadParams: 2, LintLeakyCalls: 1,
		}
		cases = append(cases, tc{prof.Name + "/" + f.Name, workload.Generate(prof).Source, []*fsm.FSM{f}})
	}

	var pruned, slicedAway int
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			refChecker, ref := prepareWholeProgramSCCP(t, tc.fsms, tc.src)
			c := checker.New(tc.fsms, checker.Options{WorkDir: t.TempDir()})
			prep, err := c.PrepareSource(context.Background(), tc.src)
			if err != nil {
				t.Fatal(err)
			}
			ic, _ := prep.JoinInputs()
			refIC, _ := ref.JoinInputs()
			if len(ic.Methods) != len(refIC.Methods) {
				t.Fatalf("%d methods, reference %d", len(ic.Methods), len(refIC.Methods))
			}
			for i, m := range ic.Methods {
				w := refIC.Methods[i]
				if m.Name != w.Name || !slices.Equal(m.Leaves, w.Leaves) ||
					m.Pruned != w.Pruned || m.Sliced != w.Sliced || m.SlicedAway != w.SlicedAway {
					t.Fatalf("method %s: %d leaves, pruned %d, sliced %d, slicedAway %v; reference %s: %d, %d, %d, %v",
						m.Name, len(m.Leaves), m.Pruned, m.Sliced, m.SlicedAway,
						w.Name, len(w.Leaves), w.Pruned, w.Sliced, w.SlicedAway)
				}
				pruned += m.Pruned
				if m.SlicedAway {
					slicedAway++
				}
			}
			got, err := c.CheckPrepared(context.Background(), prep)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refChecker.CheckPrepared(context.Background(), ref)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := checker.RenderReports(got.Reports), checker.RenderReports(want.Reports); g != w {
				t.Fatalf("reports differ from the whole-program order:\n got:\n%s\n want:\n%s", g, w)
			}
		})
	}
	// Both halves of the claim must be exercised: verdicts read inside kept
	// functions, and functions sliced away whose verdicts nobody asks for.
	if pruned == 0 || slicedAway == 0 {
		t.Errorf("vacuous: %d pruned branches, %d sliced-away methods across the subjects", pruned, slicedAway)
	}
}

// preAnalyzedFunctions prepares p under opts with a trace recorder on the
// scope and returns the pre-analysis span's functions arg and the ICFET.
func preAnalyzedFunctions(t *testing.T, fsms []*fsm.FSM, opts checker.Options, p *ir.Program) (int, *cfet.ICFET) {
	t.Helper()
	var jsonl bytes.Buffer
	rec := trace.NewWriters(nil, &jsonl)
	opts.WorkDir = t.TempDir()
	opts.Scope = trace.Scope{Rec: rec}
	prep, err := checker.New(fsms, opts).PrepareIR(context.Background(), p, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	ic, _ := prep.JoinInputs()
	functions, ok := spanArgs(t, jsonl.Bytes(), "pre-analysis")["functions"].(float64)
	if !ok {
		t.Fatal("the pre-analysis span has no functions arg")
	}
	return int(functions), ic
}

// TestPreAnalysisVisitsKeptFunctionsOnly is the pre-analysis work guard: on
// wide-sim 20×20 against lock, SCCP visits exactly the methods the slice
// keeps, under 5 % of the program (at 10×10 the 18 kept methods are 16 % of
// its 114); with nothing sliced — no FSMs, as the batch's shared prepare,
// or RecordPointsTo — it visits every function of wide-sim 10×10.
func TestPreAnalysisVisitsKeptFunctionsOnly(t *testing.T) {
	p := lowerWide(t, workload.Generate(workload.WideProfile(20, 20)).Source)
	lock := []*fsm.FSM{fsm.BuiltinLock()}

	got, ic := preAnalyzedFunctions(t, lock, checker.Options{}, p)
	kept := len(ic.Methods) - ic.SlicedFunctions()
	t.Logf("%d functions, %d kept by the slice, %d pre-analyzed", len(p.Funs), kept, got)
	if got != kept {
		t.Errorf("pre-analysis visited %d functions, the slice keeps %d", got, kept)
	}
	if float64(got) >= 0.05*float64(len(p.Funs)) {
		t.Errorf("pre-analysis visited %d of %d functions, want under 5 %%", got, len(p.Funs))
	}

	p = lowerWide(t, workload.Generate(workload.WideProfile(10, 10)).Source)
	for _, tc := range []struct {
		name string
		fsms []*fsm.FSM
		opts checker.Options
	}{
		{"no FSMs", nil, checker.Options{}},
		{"RecordPointsTo", lock, checker.Options{RecordPointsTo: true}},
	} {
		if got, _ := preAnalyzedFunctions(t, tc.fsms, tc.opts, p); got != len(p.Funs) {
			t.Errorf("%s: pre-analysis visited %d functions, want all %d", tc.name, got, len(p.Funs))
		}
	}
}

// spanArgs returns the args of the first span named name in a trace's
// event lines.
func spanArgs(t *testing.T, jsonl []byte, name string) map[string]any {
	t.Helper()
	for _, line := range bytes.Split(jsonl, []byte("\n")) {
		var ev struct {
			Name string
			Args map[string]any
		}
		if len(line) == 0 {
			continue
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Name == name {
			return ev.Args
		}
	}
	t.Fatalf("the trace has no %s span", name)
	return nil
}

// TestParseSpanReportsBytes: the parse span carries the unit's size in
// bytes and its line count, so parse throughput can be read off a trace;
// wide-sim 20×20 is cut into parts on two workers.
func TestParseSpanReportsBytes(t *testing.T) {
	src := workload.Generate(workload.WideProfile(20, 20)).Source
	var jsonl bytes.Buffer
	rec := trace.NewWriters(nil, &jsonl)
	opts := checker.Options{Workers: 2, Scope: trace.Scope{Rec: rec}}
	if _, err := checker.New(nil, opts).LowerSource(src); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	args := spanArgs(t, jsonl.Bytes(), "parse")
	if got, ok := args["bytes"].(float64); !ok || int(got) != len(src) {
		t.Errorf("parse span bytes arg %v, want %d", args["bytes"], len(src))
	}
	if got, ok := args["loc"].(float64); !ok || int(got) != strings.Count(src, "\n") {
		t.Errorf("parse span loc arg %v, want %d", args["loc"], strings.Count(src, "\n"))
	}
}

// loweredFunctions lowers src as a check under opts does, with a trace
// recorder on the scope, and returns the lower span's functions and
// lowered args.
func loweredFunctions(t *testing.T, fsms []*fsm.FSM, opts checker.Options, src string) (functions, lowered int) {
	t.Helper()
	var jsonl bytes.Buffer
	rec := trace.NewWriters(nil, &jsonl)
	opts.Scope = trace.Scope{Rec: rec}
	if _, err := checker.New(fsms, opts).LowerSource(src); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	args := spanArgs(t, jsonl.Bytes(), "lower")
	f, okF := args["functions"].(float64)
	l, okL := args["lowered"].(float64)
	if !okF || !okL {
		t.Fatalf("the lower span's args are %v, want functions and lowered", args)
	}
	return int(f), int(l)
}

// TestLowerVisitsPreKeptOnly is the lowering work guard: on wide-sim 20×20
// against lock, a check lowers the bodies of exactly the functions
// ir.PreKeep keeps, at most 10 % of the program (at 10×10 the 36 workers
// that hold a seeded pattern, and so handle an object, are a third of its
// 114 functions); with nothing sliced — no FSMs, as the batch's shared
// prepare, or RecordPointsTo — it lowers every function.
func TestLowerVisitsPreKeptOnly(t *testing.T) {
	src := workload.Generate(workload.WideProfile(20, 20)).Source
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := lang.Resolve(prog)
	if err != nil {
		t.Fatal(err)
	}
	preKept := 0
	for _, keep := range ir.PreKeep(info) {
		if keep {
			preKept++
		}
	}
	lock := []*fsm.FSM{fsm.BuiltinLock()}
	for _, workers := range []int{1, 2} {
		functions, lowered := loweredFunctions(t, lock, checker.Options{Workers: workers}, src)
		t.Logf("%d workers: %d functions, %d pre-kept, %d lowered", workers, functions, preKept, lowered)
		if lowered != preKept {
			t.Errorf("%d workers: lowered %d functions, the pre-slice keeps %d", workers, lowered, preKept)
		}
		if float64(lowered) > 0.10*float64(functions) {
			t.Errorf("%d workers: lowered %d of %d functions, want at most 10 %%", workers, lowered, functions)
		}
	}

	src = workload.Generate(workload.WideProfile(10, 10)).Source
	for _, tc := range []struct {
		name string
		fsms []*fsm.FSM
		opts checker.Options
	}{
		{"no FSMs", nil, checker.Options{}},
		{"RecordPointsTo", lock, checker.Options{RecordPointsTo: true}},
	} {
		if functions, lowered := loweredFunctions(t, tc.fsms, tc.opts, src); lowered != functions {
			t.Errorf("%s: lowered %d functions, want all %d", tc.name, lowered, functions)
		}
	}
}
