// Package grapple is a single-machine, disk-based graph system for fully
// context-sensitive, path-sensitive finite-state property checking of large
// codebases — a from-scratch Go implementation of "Grapple: A Graph System
// for Static Finite-State Property Checking of Large-Scale Systems Code"
// (EuroSys 2019).
//
// Grapple takes (1) a program, (2) object types of interest, and (3) FSMs
// describing the legal states and transitions of those types; it tracks
// every object of every specified type through a context- and
// path-sensitive alias analysis and dataflow analysis — both formulated as
// dynamic transitive closures over disk-resident program graphs — and
// reports every object that some feasible path drives into an error state
// or leaves in a non-accepting state at program exit.
//
// Quick start:
//
//	res, err := grapple.Check(source, grapple.BuiltinCheckers(), grapple.Options{})
//	for _, r := range res.Reports {
//	    fmt.Println(r)
//	}
//
// The input language is MiniLang, a small Java-like language providing the
// constructs the analyses consume (allocation, assignment, field store/
// load, calls, branches, loops, exceptions); see the README for its
// grammar. FSMs can be the built-in checkers (Java-I/O, lock usage,
// exception handling, socket usage — the four properties of the paper's
// evaluation), parsed from a spec file, or built programmatically.
package grapple

import (
	"context"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/grapple-system/grapple/internal/analysis"
	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/fsm/packs"
	"github.com/grapple-system/grapple/internal/gofront"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/metrics"
	"github.com/grapple-system/grapple/internal/trace"
)

// FSM is a finite-state property specification for one object type.
type FSM struct {
	inner *fsm.FSM
}

// NewFSM creates an FSM for objects of the given type. The first state
// listed is the initial state; an implicit absorbing "Error" state is added
// and any (state, event) pair without a transition moves to it.
func NewFSM(name, objectType string, states ...string) (*FSM, error) {
	f, err := fsm.New(name, objectType, states...)
	if err != nil {
		return nil, err
	}
	return &FSM{inner: f}, nil
}

// SetInit selects the initial state by name.
func (f *FSM) SetInit(state string) error { return f.inner.SetInit(state) }

// SetAccept marks the states acceptable when the object's program exits.
func (f *FSM) SetAccept(states ...string) error { return f.inner.SetAccept(states...) }

// AddTransition adds "from --event--> to". Events are method names invoked
// on tracked objects; "new" is the implicit allocation event.
func (f *FSM) AddTransition(from, event, to string) error {
	return f.inner.AddTransition(from, event, to)
}

// Name returns the FSM's name.
func (f *FSM) Name() string { return f.inner.Name }

// Type returns the object type the FSM applies to.
func (f *FSM) Type() string { return f.inner.Type }

// ParseFSMs parses FSM specifications from the text format:
//
//	fsm io for FileWriter {
//	  states Init Open Close;
//	  init Init;
//	  accept Init Close;
//	  new:   Init -> Open;
//	  write: Open -> Open;
//	  close: Open -> Close;
//	}
func ParseFSMs(src string) ([]*FSM, error) {
	inner, err := fsm.ParseSpec(src)
	if err != nil {
		return nil, err
	}
	out := make([]*FSM, len(inner))
	for i, f := range inner {
		out[i] = &FSM{inner: f}
	}
	return out, nil
}

// BuiltinCheckers returns the four checkers of the paper's evaluation
// (§5): Java I/O, lock usage, exception handling, and socket usage.
func BuiltinCheckers() []*FSM {
	inner := fsm.Builtins()
	out := make([]*FSM, len(inner))
	for i, f := range inner {
		out[i] = &FSM{inner: f}
	}
	return out
}

// Kind classifies a warning.
type Kind = checker.Kind

// Warning kinds.
const (
	// KindError marks feasible event sequences reaching the FSM's error
	// state (write-after-close, unlock-before-lock, ...).
	KindError = checker.KindError
	// KindLeak marks objects left in a non-accepting state at program exit
	// (unclosed files/sockets, held locks, uncaught exceptions).
	KindLeak = checker.KindLeak
)

// Report is one warning.
type Report = checker.Report

// WitnessStep is one source-level step of a warning's witness path.
type WitnessStep = checker.WitnessStep

// Position is a source location.
type Position struct {
	Line int
	Col  int
}

// Options tunes a checking run. The zero value gives sensible defaults.
type Options struct {
	// WorkDir holds the on-disk graph partitions. A directory named here
	// holds both phases' closed graphs (alias/ and dataflow/) when Check
	// returns. When empty, a temporary directory is used and removed, and it
	// is written to only when a graph outgrows MemoryBudget: a check that
	// fits does no partition I/O.
	WorkDir string
	// MemoryBudget bounds each closure phase engine's in-memory edge data
	// in bytes; two partitions loaded together never exceed it (default
	// 256 MiB). Reports do not depend on it.
	MemoryBudget int64
	// Workers bounds the goroutines a check runs on (default GOMAXPROCS):
	// the edge-induction workers of both closure phases, and the
	// frontend's parse, resolve and lowering, which a MiniLang source of at
	// least 256 KiB spreads over that many (a Go unit is resolved and
	// lowered as one part). Reports do not depend on it.
	Workers int
	// UnrollDepth statically unrolls loops this many times (default 2).
	UnrollDepth int
	// DisableConstraintCache turns off memoization of solver verdicts
	// (used by the Table-4 ablation). Otherwise each compilation unit has one
	// memo, which both closure phases — and, in a batch, every instance of
	// the unit — share.
	DisableConstraintCache bool
	// Bind maps extra object type names onto FSM names; an FSM always
	// applies to its own declared type.
	Bind map[string]string
	// RecordPointsTo retains the alias phase's points-to facts so the
	// Result can answer "what objects does a variable point to under a
	// particular context?" (the query class the paper's cloning-based
	// design exists to support, §2.1). It turns off property-relevance
	// slicing, since that query class spans untracked variables too.
	RecordPointsTo bool
	// DumpDOT, when non-empty, writes the generated program graphs as
	// Graphviz files (alias.dot, dataflow.dot) into that directory.
	DumpDOT string
	// Journal checkpoints the engines' superstep state to per-phase run
	// journals under WorkDir after every superstep, so a crashed or killed
	// run can be continued with Resume instead of restarting (docs/
	// resume.md). Requires a persistent WorkDir to be useful.
	Journal bool
	// Resume continues a previously journaled run from WorkDir, replaying
	// each phase from its last durable checkpoint; the reports are identical
	// to an uninterrupted run. Requires WorkDir and implies Journal. A
	// missing journal, a damaged one, or one written for another source, FSM
	// definition, UnrollDepth, Bind or RecordPointsTo is an error — resume
	// never silently starts cold. In CheckAll, Resume instead reruns the
	// instances the batch log does not record finished, and refuses a log
	// written for another instance set (see BatchOptions).
	Resume bool
	// Obs configures the observability layer — execution tracing, the
	// progress heartbeat, and the pprof debug server (docs/observability.md).
	// The zero value disables all of it; enabling any of it never changes
	// the reports.
	Obs ObsOptions
}

// PointsToFact is one alias-phase result: under one clone of Method, Var
// may reference the object of type ObjType allocated at ObjPos, under
// Constraint ("true" when unconditional).
type PointsToFact = checker.PointsToFact

// PhaseStats summarizes one engine phase for the evaluation tables: the
// graph's size (Vertices, EdgesBefore, EdgesAfter), what the frontend removed
// before the phase ran (CFETPaths, PrunedBranches, SlicedFunctions,
// SlicedBranches, the TruncatedSubtrees the node budget cut, and in Go mode
// the havocked Unlowered constructs), and the
// engine's own counters — Iterations, Partitions, Repartitions, the solver
// and cache counts with SolveTime and the SolveLatency histogram, the
// partition store's and the crash-recovery journal's traffic in IO, and the
// phase's Figure-9 time split in Breakdown.
type PhaseStats = checker.PhaseStats

// IOStats is the partition store's traffic summary for one engine phase.
// Loads count reads that reached the disk, each one synchronous, and
// LoadLatency their disk time; CacheHits count loads served from the
// in-memory partition cache.
type IOStats = metrics.IOSnapshot

// LatencyCounts is a fixed-bucket latency histogram (per-bucket counts
// aligned with metrics.SolveLatencyBuckets).
type LatencyCounts = metrics.LatencyCounts

// SolveLatencyBuckets returns the exclusive upper bounds of the
// PhaseStats.SolveLatency histogram buckets (the final bucket is unbounded);
// pass it to LatencyCounts.String to render the histogram.
func SolveLatencyBuckets() []time.Duration { return metrics.SolveLatencyBuckets }

// Breakdown is the Figure-9 cost split (percent of summed component time).
type Breakdown struct {
	IOPct      float64
	DecodePct  float64
	SolvePct   float64
	ComputePct float64
}

// Result is the outcome of a checking run.
type Result struct {
	// Reports lists warnings, ordered by source position.
	Reports []Report
	// Alias and Dataflow summarize the two closure phases.
	Alias    PhaseStats
	Dataflow PhaseStats
	// GenTime is frontend + graph generation ("preprocessing" in Table 3);
	// ComputeTime covers both engine runs and FSM checking.
	GenTime     time.Duration
	ComputeTime time.Duration
	Breakdown   Breakdown
	// TrackedObjects is the number of allocation instances with FSMs.
	TrackedObjects int
	// PointsTo holds alias facts when Options.RecordPointsTo is set.
	PointsTo []PointsToFact
}

// QueryPointsTo returns the recorded alias facts for a variable of a
// method, across every clone and block. Requires Options.RecordPointsTo.
func (r *Result) QueryPointsTo(method, varName string) []PointsToFact {
	var out []PointsToFact
	for _, f := range r.PointsTo {
		if f.Method == method && f.Var == varName {
			out = append(out, f)
		}
	}
	return out
}

// checkerOptions lowers public Options into the internal checker's form.
func checkerOptions(opts Options) checker.Options {
	return checker.Options{
		WorkDir:                opts.WorkDir,
		UnrollDepth:            opts.UnrollDepth,
		MemoryBudget:           opts.MemoryBudget,
		Workers:                opts.Workers,
		DisableConstraintCache: opts.DisableConstraintCache,
		Bind:                   opts.Bind,
		RecordPointsTo:         opts.RecordPointsTo,
		DumpDOT:                opts.DumpDOT,
		Journal:                opts.Journal,
		Resume:                 opts.Resume,
	}
}

// publicResult converts the internal checker result.
func publicResult(res *checker.Result) *Result {
	io, dec, sol, comp := res.Breakdown.Percentages()
	return &Result{
		Reports:  res.Reports,
		Alias:    res.Alias,
		Dataflow: res.Dataflow,
		GenTime:  res.GenTime, ComputeTime: res.ComputeTime,
		Breakdown:      Breakdown{IOPct: io, DecodePct: dec, SolvePct: sol, ComputePct: comp},
		TrackedObjects: res.TrackedObjects,
		PointsTo:       res.PointsTo,
	}
}

// Check analyzes MiniLang source against the given FSM properties.
func Check(source string, fsms []*FSM, opts Options) (*Result, error) {
	inner := make([]*fsm.FSM, len(fsms))
	for i, f := range fsms {
		inner[i] = f.inner
	}
	obs, err := startObs(opts.Obs, opts.WorkDir)
	if err != nil {
		return nil, err
	}
	co := checkerOptions(opts)
	co.Scope = obs.scope()
	c := checker.New(inner, co)
	res, err := c.CheckSource(source)
	obsErr := obs.finish()
	if err != nil {
		return nil, err
	}
	if obsErr != nil {
		return nil, obsErr
	}
	return publicResult(res), nil
}

// CheckFile analyzes a MiniLang source file.
func CheckFile(path string, fsms []*FSM, opts Options) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("grapple: %w", err)
	}
	return Check(string(data), fsms, opts)
}

// Diagnostic is one lint finding: a stable code (see docs/lint.md), the
// source position, the enclosing function, and a message.
type Diagnostic = analysis.Diagnostic

// Lint parses and lowers MiniLang source, runs the IR-level dataflow lint
// passes (use-before-init, dead stores, constant conditions, unused
// allocations), and returns the findings ordered by source position. It does
// not run the alias/typestate pipeline, so it is cheap enough for an
// edit-compile loop.
func Lint(source string) ([]Diagnostic, error) { return LintWith(source, nil) }

// LintFile runs Lint on a source file.
func LintFile(path string) ([]Diagnostic, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("grapple: %w", err)
	}
	return Lint(string(data))
}

// lintRules maps each stable diagnostic code to the analyzer that emits it
// (two constant-condition codes share one analyzer).
var lintRules = map[string]*analysis.Analyzer{
	"RD001": analysis.ReachDef,
	"DS001": analysis.DeadStore,
	"CF001": analysis.Unreachable,
	"CF002": analysis.Unreachable,
	"UA001": analysis.UnusedAlloc,
	"ND001": analysis.NilDeref,
	"LK001": analysis.LeakCall,
	"DP001": analysis.DeadParam,
	"GR001": analysis.GoroutineLeak,
	"GR002": analysis.SharedSync,
}

// LintCodes returns every stable diagnostic code Lint can emit, sorted.
func LintCodes() []string {
	out := make([]string, 0, len(lintRules))
	for code := range lintRules {
		out = append(out, code)
	}
	sort.Strings(out)
	return out
}

// LintWith runs only the lint passes that emit the requested diagnostic
// codes (dependencies like the points-to solver are pulled in as needed but
// report nothing themselves). An unknown code is a usage error. An empty
// code list behaves like Lint.
func LintWith(source string, ruleCodes []string) ([]Diagnostic, error) {
	var passes []*analysis.Analyzer
	want := map[string]bool{}
	for _, code := range ruleCodes {
		a, ok := lintRules[code]
		if !ok {
			return nil, fmt.Errorf("unknown lint rule %q (known rules: %s)",
				code, strings.Join(LintCodes(), ", "))
		}
		want[code] = true
		if !slices.Contains(passes, a) {
			passes = append(passes, a)
		}
	}
	if len(ruleCodes) == 0 {
		passes = analysis.Default()
	}
	prog, err := lang.Parse(source)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	info, err := lang.Resolve(prog)
	if err != nil {
		return nil, fmt.Errorf("resolve: %w", err)
	}
	p, err := ir.Lower(info, ir.Options{})
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	res, err := analysis.Run(p, passes)
	if err != nil {
		return nil, err
	}
	if len(ruleCodes) == 0 {
		return res.Diagnostics, nil
	}
	// A shared analyzer can emit sibling codes the caller did not ask for
	// (CF001 vs CF002); keep only the requested ones.
	var out []Diagnostic
	for _, d := range res.Diagnostics {
		if want[d.Code] {
			out = append(out, d)
		}
	}
	return out, nil
}

// PropertyPack describes one entry of the built-in property-pack library:
// an FSM typestate property plus the Go binding rules that map real call
// patterns (os.Open, mu.Lock, rows.Close, ...) onto its alphabet. Packs are
// selected by name in CheckGoPackage and `grapple run -pack`.
type PropertyPack struct {
	// Name selects the pack.
	Name string
	// Doc is a one-line description.
	Doc string
	// Type is the tracked object type (gofront spelling, e.g. "os_File").
	Type string
	// FSMName is the name of the pack's FSM.
	FSMName string
}

// Packs lists the built-in property packs, sorted by name.
func Packs() []PropertyPack {
	all := packs.All()
	out := make([]PropertyPack, len(all))
	for i, p := range all {
		out[i] = PropertyPack{Name: p.Name, Doc: p.Doc, Type: p.FSM.Type, FSMName: p.FSM.Name}
	}
	return out
}

// GoPackage is a Go package lowered to MiniLang: the analyzable program
// text plus the machinery to map combined-unit report lines back to the
// original Go files.
type GoPackage struct {
	res *gofront.Result
}

// Source returns the lowered MiniLang program text.
func (g *GoPackage) Source() string { return g.res.Source() }

// Locate maps a combined-unit line (Report.Pos.Line, Diagnostic.Pos.Line)
// back to the original (Go file, line).
func (g *GoPackage) Locate(line int) (file string, goLine int) { return g.res.Locate(line) }

// Unlowered counts the Go constructs the frontend havocked (soundly
// over-approximated) instead of modeling precisely.
func (g *GoPackage) Unlowered() int { return g.res.Stats.Havocs }

// UnloweredByKind breaks Unlowered down by construct kind.
func (g *GoPackage) UnloweredByKind() map[string]int {
	out := make(map[string]int, len(g.res.Stats.ByKind))
	for k, v := range g.res.Stats.ByKind {
		out[k] = v
	}
	return out
}

// Functions is the number of Go functions and methods lowered (including
// lifted closures).
func (g *GoPackage) Functions() int { return g.res.Stats.Functions }

// Devirt reports the devirtualizer's interface-call partition: sites
// examined, resolved to a direct call, lowered to a path-split dispatch,
// and left open (havocked).
func (g *GoPackage) Devirt() (calls, direct, split, open int) {
	s := g.res.Stats
	return s.IfaceCalls, s.IfaceDirect, s.IfaceSplit, s.IfaceOpen
}

// resolvePacks maps pack names to library entries; at least one is required.
func resolvePacks(packNames []string) ([]*packs.Pack, error) {
	if len(packNames) == 0 {
		return nil, fmt.Errorf("grapple: checking Go source requires at least one property pack (have: %s)",
			strings.Join(packs.Names(), ", "))
	}
	out := make([]*packs.Pack, 0, len(packNames))
	seen := map[string]bool{}
	for _, name := range packNames {
		if seen[name] {
			continue
		}
		seen[name] = true
		p, err := packs.Get(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// checkLoweredGo runs the full pipeline on an already-lowered package. obs
// may be nil (no observability features enabled); ownership stays with the
// caller, which started it before lowering.
func checkLoweredGo(g *gofront.Result, selected []*packs.Pack, opts Options, obs *obsSession) (*Result, error) {
	inner := make([]*fsm.FSM, len(selected))
	for i, pk := range selected {
		inner[i] = pk.FSM
	}
	co := checkerOptions(opts)
	co.Scope = obs.scope()
	res, err := checker.New(inner, co).CheckGo(context.Background(), g)
	if err != nil {
		return nil, err
	}
	return publicResult(res), nil
}

// CheckGoPackage lowers the non-test .go files of dir through the Go
// frontend using the named property packs' binding rules, then runs the
// full pipeline — points-to, slicing, CFET construction, interval encoding,
// the disk engine, SMT path conditions — on the lowered program. Report
// positions are in the combined lowered unit; map them back with
// GoPackage.Locate.
func CheckGoPackage(dir string, packNames []string, opts Options) (*Result, *GoPackage, error) {
	return checkGo(packNames, opts, func(rules *gofront.Rules) (*gofront.Result, error) {
		return gofront.LowerPackage(dir, rules)
	})
}

// CheckGoFiles is CheckGoPackage over an explicit file list (one package).
func CheckGoFiles(paths []string, packNames []string, opts Options) (*Result, *GoPackage, error) {
	return checkGo(packNames, opts, func(rules *gofront.Rules) (*gofront.Result, error) {
		return gofront.LowerFiles(paths, rules)
	})
}

// checkGo is the body CheckGoPackage and CheckGoFiles share; lower is the
// one step they differ in.
func checkGo(packNames []string, opts Options, lower func(*gofront.Rules) (*gofront.Result, error)) (*Result, *GoPackage, error) {
	selected, err := resolvePacks(packNames)
	if err != nil {
		return nil, nil, err
	}
	obs, err := startObs(opts.Obs, opts.WorkDir)
	if err != nil {
		return nil, nil, err
	}
	sp := obs.scope().Start("gofront", "gofront-lower")
	g, err := lower(packs.MergedRules(selected))
	if err != nil {
		obs.finish()
		return nil, nil, err
	}
	sp.End(trace.Args{"funcs": len(g.Prog.Funs), "havocs": g.Stats.Havocs})
	res, err := checkLoweredGo(g, selected, opts, obs)
	obsErr := obs.finish()
	if err != nil {
		return nil, nil, err
	}
	if obsErr != nil {
		return nil, nil, obsErr
	}
	return res, &GoPackage{res: g}, nil
}

// LintGoPackage lowers the non-test .go files of dir and runs the IR-level
// lint passes on the result. packNames select whose binding rules shape the
// lowering (allocation and event mapping); empty means every pack's rules
// merged. Diagnostic positions map back through GoPackage.Locate.
func LintGoPackage(dir string, packNames []string, ruleCodes []string) ([]Diagnostic, *GoPackage, error) {
	var selected []*packs.Pack
	if len(packNames) == 0 {
		selected = packs.All()
	} else {
		var err error
		if selected, err = resolvePacks(packNames); err != nil {
			return nil, nil, err
		}
	}
	g, err := gofront.LowerPackage(dir, packs.MergedRules(selected))
	if err != nil {
		return nil, nil, err
	}
	// The lint reads the rendered text, parsed again, and not g.Prog, which
	// carries the Go files' positions: on g.Prog the diagnostics differ in
	// position and in number (102 against 106 on internal/storage).
	diags, err := LintWith(g.Source(), ruleCodes)
	if err != nil {
		return nil, nil, err
	}
	return diags, &GoPackage{res: g}, nil
}
