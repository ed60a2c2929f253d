// Package analysis is Grapple's IR-level pre-analysis subsystem: a
// pass-manager framework running cheap classical dataflow analyses over the
// lowered IR (internal/ir) before the expensive CFET/closure pipeline.
//
// It serves two consumers. `grapple lint` surfaces the passes' diagnostics
// (use-before-init, dead stores, constant conditions, unused allocations)
// directly to developers. The checker consumes the constant-propagation
// facts to skip statically-infeasible CFET subtrees before symbolic
// execution ever enumerates them — the classical "fast pass in front of the
// precise phase" layering of production typestate checkers.
//
// Analyses run per function over a shared ir.CFG; results flow between
// passes through the Pass.ResultOf dependency mechanism (the design follows
// golang.org/x/tools/go/analysis, shrunk to this IR).
package analysis

import (
	"errors"
	"fmt"
	"sort"

	"github.com/grapple-system/grapple/internal/callgraph"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
)

// Diagnostic is one lint finding.
type Diagnostic struct {
	// Pass is the reporting analyzer's name.
	Pass string
	// Code is the stable diagnostic code (e.g. "RD001"); see docs/lint.md.
	Code string
	// Pos is the source position of the finding.
	Pos lang.Pos
	// Func is the enclosing function.
	Func string
	// Message is the human-readable description.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s (%s, in %s)", d.Pos, d.Code, d.Message, d.Pass, d.Func)
}

// Analyzer is one analysis pass: a name, the passes it depends on, and a
// per-function Run that may report diagnostics and return a result value
// for dependents.
type Analyzer struct {
	// Name identifies the pass.
	Name string
	// Doc is a one-line description.
	Doc string
	// Requires lists analyzers whose per-function results this pass reads
	// via Pass.ResultOf. The manager runs them first.
	Requires []*Analyzer
	// Run executes the pass on one function. Exactly one of Run and
	// ProgramRun must be set.
	Run func(p *Pass) (any, error)
	// ProgramRun executes the pass once for the whole program, before any
	// per-function pass. Pass.Fn and Pass.CFG are nil; Pass.CG carries the
	// call graph. A program-scoped analyzer may only require other
	// program-scoped analyzers, and its single result is what dependents see
	// through ResultOf in every function.
	ProgramRun func(p *Pass) (any, error)
}

func (a *Analyzer) programScoped() bool { return a.ProgramRun != nil }

// Pass carries one analyzer invocation's inputs and sinks.
type Pass struct {
	Analyzer *Analyzer
	// Prog is the whole lowered program; Fn the function under analysis
	// (nil during a ProgramRun).
	Prog *ir.Program
	Fn   *ir.Func
	// CFG is Fn's control-flow graph, built once and shared by all passes
	// (nil during a ProgramRun).
	CFG *ir.CFG
	// CG is the program's call graph; set for ProgramRun invocations, built
	// once per Run when any program-scoped analyzer participates.
	CG *callgraph.Graph

	deps  map[*Analyzer]any
	diags *[]Diagnostic
}

// ResultOf returns the result of a required analyzer for this function.
// It panics when a is not in Analyzer.Requires (a bug in the pass).
func (p *Pass) ResultOf(a *Analyzer) any {
	r, ok := p.deps[a]
	if !ok {
		panic(fmt.Sprintf("analysis: %s did not declare a dependency on %s", p.Analyzer.Name, a.Name))
	}
	return r
}

// Reportf records a diagnostic against this pass.
func (p *Pass) Reportf(code string, pos lang.Pos, format string, args ...any) {
	fn := ""
	if p.Fn != nil {
		fn = p.Fn.Name
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pass: p.Analyzer.Name, Code: code, Pos: pos, Func: fn,
		Message: fmt.Sprintf(format, args...),
	})
}

// Result is the outcome of running a set of analyzers over a program.
type Result struct {
	// Diagnostics holds every finding, ordered by position then code.
	Diagnostics []Diagnostic
	// CondsDecided counts the If conditions the SCCP pass proved constant
	// in the analyzed functions.
	CondsDecided int64

	// facts maps analyzer -> function -> that pass's result.
	facts map[*Analyzer]map[*ir.Func]any
	// progFacts maps a program-scoped analyzer to its single result.
	progFacts map[*Analyzer]any
	// verdicts is the branch-verdict index: every analyzed function's
	// SCCPFacts.Verdicts merged into one map (an *ir.If belongs to exactly
	// one function, so the merge never collides). Only decided conditions
	// are stored. Run builds it once; afterwards it is only read, which is
	// what makes BranchVerdict safe for the concurrent CFET builds and
	// CheckPrepared callers that share one Result.
	verdicts map[*ir.If]int
}

// FactsOf returns an analyzer's per-function results ("" when it did not
// run). Consumers outside the pass pipeline (the checker) use this.
func (r *Result) FactsOf(a *Analyzer) map[*ir.Func]any {
	return r.facts[a]
}

// ProgramFactsOf returns a program-scoped analyzer's single result (nil
// when it did not run).
func (r *Result) ProgramFactsOf(a *Analyzer) any {
	return r.progFacts[a]
}

// BranchVerdict reports the statically-proven verdict for an If condition
// discovered by the SCCP pass: +1 the condition always holds, -1 it never
// holds, 0 unknown. It is one probe of the verdict index, whatever the
// program's size; the zero Result (no SCCP run) answers 0 everywhere.
func (r *Result) BranchVerdict(s *ir.If) int {
	return r.verdicts[s]
}

// Default returns every analyzer in dependency-safe order: the lint suite
// the `grapple lint` command runs. The interprocedural passes (backed by
// the whole-program points-to solution) come after the classical
// intraprocedural ones.
func Default() []*Analyzer {
	return []*Analyzer{ReachDef, DeadStore, SCCP, Unreachable, UnusedAlloc,
		NilDeref, LeakCall, DeadParam, GoroutineLeak, SharedSync}
}

// PruneAnalyzers returns just the passes the checker's infeasible-branch
// pruning needs (no diagnostics-only passes).
func PruneAnalyzers() []*Analyzer {
	return []*Analyzer{SCCP}
}

// Run executes the analyzers (plus their transitive requirements) over
// every function of the program: RunFuncs over prog.Funs.
func Run(prog *ir.Program, analyzers []*Analyzer) (*Result, error) {
	return RunFuncs(prog, analyzers, prog.Funs)
}

// RunFuncs executes the analyzers (plus their transitive requirements) over
// the functions funs of the program. Program-scoped analyzers (ProgramRun)
// go first, once, over the whole program; per-function analyzers then run
// over each function of funs with both kinds of requirement visible through
// ResultOf. A function outside funs has no facts and no branch verdicts.
// Invalid analyzer graphs are rejected up front with every problem
// aggregated into one error (not just the first), so a broken suite reads
// as one report.
func RunFuncs(prog *ir.Program, analyzers []*Analyzer, funs []*ir.Func) (*Result, error) {
	if err := validate(analyzers); err != nil {
		return nil, err
	}
	order, err := toposort(analyzers)
	if err != nil {
		return nil, err
	}
	res := &Result{
		facts:     map[*Analyzer]map[*ir.Func]any{},
		progFacts: map[*Analyzer]any{},
		verdicts:  map[*ir.If]int{},
	}
	var progOrder, fnOrder []*Analyzer
	for _, a := range order {
		if a.programScoped() {
			progOrder = append(progOrder, a)
		} else {
			fnOrder = append(fnOrder, a)
			res.facts[a] = map[*ir.Func]any{}
		}
	}
	var cg *callgraph.Graph
	if len(progOrder) > 0 {
		cg = callgraph.Build(prog)
	}
	for _, a := range progOrder {
		deps := map[*Analyzer]any{}
		for _, req := range a.Requires {
			deps[req] = res.progFacts[req]
		}
		p := &Pass{
			Analyzer: a, Prog: prog, CG: cg,
			deps: deps, diags: &res.Diagnostics,
		}
		out, err := a.ProgramRun(p)
		if err != nil {
			return nil, fmt.Errorf("analysis %s: %w", a.Name, err)
		}
		res.progFacts[a] = out
	}
	for _, fn := range funs {
		cfg := ir.BuildCFG(fn)
		for _, a := range fnOrder {
			deps := map[*Analyzer]any{}
			for _, req := range a.Requires {
				if req.programScoped() {
					deps[req] = res.progFacts[req]
				} else {
					deps[req] = res.facts[req][fn]
				}
			}
			p := &Pass{
				Analyzer: a, Prog: prog, Fn: fn, CFG: cfg, CG: cg,
				deps: deps, diags: &res.Diagnostics,
			}
			out, err := a.Run(p)
			if err != nil {
				return nil, fmt.Errorf("analysis %s: %s: %w", a.Name, fn.Name, err)
			}
			res.facts[a][fn] = out
		}
	}
	for _, facts := range res.facts[SCCP] {
		if sf, ok := facts.(*SCCPFacts); ok {
			res.CondsDecided += int64(len(sf.Verdicts))
			for s, v := range sf.Verdicts {
				res.verdicts[s] = v
			}
		}
	}
	sort.SliceStable(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Message < b.Message
	})
	return res, nil
}

// validate walks the transitive analyzer set and collects every structural
// problem — nil requirements, analyzers without exactly one of Run and
// ProgramRun, and program-scoped analyzers requiring per-function ones —
// into a single joined error, so a suite with several broken dependencies
// reports all of them at once.
func validate(in []*Analyzer) error {
	var problems []error
	seen := map[*Analyzer]bool{}
	var visit func(a *Analyzer, dependent string)
	visit = func(a *Analyzer, dependent string) {
		if a == nil {
			problems = append(problems,
				fmt.Errorf("analysis: %s requires a nil analyzer", dependent))
			return
		}
		if seen[a] {
			return
		}
		seen[a] = true
		if (a.Run == nil) == (a.ProgramRun == nil) {
			problems = append(problems,
				fmt.Errorf("analysis: %s must set exactly one of Run and ProgramRun", a.Name))
		}
		for _, req := range a.Requires {
			if req != nil && a.programScoped() && !req.programScoped() {
				problems = append(problems,
					fmt.Errorf("analysis: program-scoped %s requires per-function %s", a.Name, req.Name))
			}
			visit(req, a.Name)
		}
	}
	for _, a := range in {
		visit(a, "analyzer list")
	}
	return errors.Join(problems...)
}

// toposort orders analyzers so that requirements run before dependents,
// pulling in transitive requirements not listed explicitly.
func toposort(in []*Analyzer) ([]*Analyzer, error) {
	var out []*Analyzer
	state := map[*Analyzer]int{} // 0 unseen, 1 visiting, 2 done
	var visit func(a *Analyzer) error
	visit = func(a *Analyzer) error {
		switch state[a] {
		case 1:
			return fmt.Errorf("analysis: dependency cycle through %s", a.Name)
		case 2:
			return nil
		}
		state[a] = 1
		for _, req := range a.Requires {
			if err := visit(req); err != nil {
				return err
			}
		}
		state[a] = 2
		out = append(out, a)
		return nil
	}
	for _, a := range in {
		if err := visit(a); err != nil {
			return nil, err
		}
	}
	return out, nil
}
