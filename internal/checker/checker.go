// Package checker implements Grapple's three-phase workflow (paper §2.2):
// phase 1 computes a fully context-sensitive, path-sensitive alias closure;
// phase 2 computes the path-sensitive dataflow/typestate closure, consulting
// phase 1's aliasing results held in memory; phase 3 checks the composed
// transition relations of every allocation-to-exit flow against the FSM
// specifications and emits bug reports.
package checker

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/grapple-system/grapple/internal/analysis"
	"github.com/grapple-system/grapple/internal/callgraph"
	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/engine"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/gofront"
	"github.com/grapple-system/grapple/internal/grammar"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/metrics"
	"github.com/grapple-system/grapple/internal/pgraph"
	"github.com/grapple-system/grapple/internal/smt"
	"github.com/grapple-system/grapple/internal/storage"
	"github.com/grapple-system/grapple/internal/symbolic"
	"github.com/grapple-system/grapple/internal/trace"
)

// Options configures a checking run: what a caller tunes, plus the Cache
// seam. Scope is decided above the checker and passed down unchanged. Each
// closure phase's engine options are runPhase's to build from these.
type Options struct {
	// WorkDir holds the engine's partition files. A directory named here
	// holds both phases' closed graphs when the check returns. When empty the
	// engines work in a temp dir that is removed on return, and write to it
	// only what MemoryBudget has no room for.
	WorkDir string
	// UnrollDepth is the static loop-unroll bound (default 2).
	UnrollDepth int
	// MemoryBudget bounds the bytes of edge data each closure phase's engine
	// holds in memory (paper §4.3); zero means the engine's 256 MiB.
	MemoryBudget int64
	// Workers bounds the goroutines a check runs on (default GOMAXPROCS):
	// both engines' edge-induction workers, and the frontend's resolve and
	// lowering (and a MiniLang unit's parse: see lowerSource).
	Workers int
	// Cache is the memo seam: when set, it replaces the constraint memo
	// PrepareIR would create (tests read it back, or inject one that evicts
	// nothing). Its keys are one compilation unit's encoded paths, so a
	// Checker carrying one must prepare one source.
	Cache *smt.Cache
	// DisableConstraintCache prepares without a constraint memo, so neither
	// phase memoizes solver verdicts (Table 4's "without caching"). It
	// overrides a caller-set Cache.
	DisableConstraintCache bool
	// Bind maps extra object type names to FSM names (an FSM always applies
	// to its own Type).
	Bind map[string]string
	// RecordPointsTo retains the phase-1 points-to facts on the Result so
	// callers can ask "what objects does a variable point to under a
	// particular context?" — the query class the paper's cloning-based
	// design exists to answer (§2.1).
	RecordPointsTo bool
	// DumpDOT, when non-empty, writes the generated program graphs as
	// Graphviz files (alias.dot, dataflow.dot) into that directory.
	DumpDOT string
	// Journal checkpoints both engine phases' superstep state to per-phase
	// run journals under WorkDir (docs/resume.md) so a crashed or killed run
	// can be continued with Resume. Useless (but harmless) without a
	// persistent WorkDir. An IR entry given no text refuses it.
	Journal bool
	// Resume continues a previously journaled run from WorkDir instead of
	// starting cold, replaying each phase from its last durable checkpoint.
	// It requires a non-empty WorkDir and implies Journal. A missing alias
	// journal is an error wrapping storage.ErrNoJournal, and a journal
	// written for another Checker.Fingerprint is rejected with
	// storage.ErrStale: resume never silently restarts from scratch, nor
	// replays another check's closure.
	Resume bool
	// Scope is the run's recorder and lane, progress tracker and fault set,
	// handed unchanged to both engines: a span per pipeline phase
	// (slicing, pre-analysis, CFET build, context cloning, both engine
	// closures, FSM checking) plus the engines' superstep and storage events,
	// the current phase for the heartbeat and status.json, and the crash
	// points of the engines' journal write path. Observation never changes
	// reports.
	Scope trace.Scope

	// cfet tunes ICFET construction; only this package's tests set it
	// (export_test.go). The checker fills in BranchVerdict from the
	// pre-analysis and SliceFunc/SliceBranch from the relevance slicer unless
	// they are set here: a BranchVerdict that always returns 0 builds the
	// unpruned CFET, a SliceFunc and SliceBranch that always return false the
	// unsliced one (the reference runs the property tests compare with).
	cfet cfet.Options
	// maxVariants is the engines' per-endpoint variant cap; zero means the
	// engine's default. CheckGo sets goMaxVariants, and this package's tests
	// lift it out of reach (export_test.go).
	maxVariants int
}

// goMaxVariants is the variant cap a Go unit is checked under. Real-Go
// subjects produce more per-edge path variants than hand-written MiniLang
// (lifted closures, defer flushing, and branch duplication multiply call
// edges per site), so the default widening cap loses the call/return balance
// that keeps helper frames honest. A higher cap keeps self-checks
// report-clean.
const goMaxVariants = 32

// PointsToFact is one phase-1 result: under clone Ctx of Method, variable
// Var (at CFET node Node) may reference the object allocated at ObjPos.
type PointsToFact struct {
	Ctx     uint32
	Method  string
	Var     string
	Node    uint64
	ObjType string
	ObjPos  lang.Pos
	// Conditional is true when the flow holds only under a nonempty path
	// constraint.
	Conditional bool
	// Constraint renders that path constraint ("true" when empty).
	Constraint string
}

// Kind classifies a warning.
type Kind uint8

// Warning kinds.
const (
	// KindError: some feasible event sequence drives the object into the
	// FSM's error state (e.g. write after close, unlock before lock).
	KindError Kind = iota
	// KindLeak: some feasible path reaches program exit with the object in
	// a non-accepting state (e.g. a never-closed socket).
	KindLeak
)

func (k Kind) String() string {
	if k == KindError {
		return "error-transition"
	}
	return "leak"
}

// WitnessStep is one step of a human-readable witness path: a source
// position plus what happens there (branch taken, call made, return).
type WitnessStep struct {
	Pos  lang.Pos
	Desc string
}

func (s WitnessStep) String() string {
	return fmt.Sprintf("%s: %s", s.Pos, s.Desc)
}

// Report is one warning.
type Report struct {
	FSM    string
	Type   string
	Kind   Kind
	Pos    lang.Pos
	Object string
	// States are the offending FSM states reachable at exit.
	States []string
	// Witness is the path encoding of one offending flow, and
	// WitnessConstraint its decoded path constraint.
	Witness           string
	WitnessConstraint string
	// Steps is the witness rendered as source-level steps (branches taken,
	// calls crossed) — the paper's "efficiently recover a path" (§1),
	// surfaced to the developer.
	Steps []WitnessStep
}

func (r Report) String() string {
	return fmt.Sprintf("[%s] %s %s at %s: exit states %v", r.FSM, r.Kind, r.Type, r.Pos, r.States)
}

// PhaseStats captures one engine run for the evaluation tables.
type PhaseStats struct {
	Vertices uint32
	// CFETPaths is the number of encoded CFET paths (leaves) the phase's
	// decoding works against; branch pruning shrinks it.
	CFETPaths int
	// PrunedBranches counts branch sites the pre-analysis resolved during
	// CFET construction.
	PrunedBranches int
	// SlicedFunctions counts methods the property-relevance slicer
	// collapsed to stubs (0 when the prepare did not slice: no FSMs, or
	// RecordPointsTo).
	SlicedFunctions int
	// SlicedBranches counts branch sites skipped because both arms were
	// property-irrelevant (0 when the prepare did not slice).
	SlicedBranches int
	// TruncatedSubtrees counts CFET subtrees the per-method node budget (or
	// the depth limit) cut: paths the phase's trees do not enumerate to
	// their ends. 0 when every tree was built whole.
	TruncatedSubtrees int
	// Unlowered counts Go constructs the frontend soundly over-approximated
	// (havocked) instead of modeling precisely. It is a frontend-wide count,
	// reported identically on both phases; always 0 in MiniLang mode.
	Unlowered int
	engine.Stats
}

// Result is the outcome of a checking run.
type Result struct {
	Reports  []Report
	Alias    PhaseStats
	Dataflow PhaseStats
	// GenTime is graph/ICFET generation (the paper's "preprocessing").
	GenTime time.Duration
	// ComputeTime covers both engine runs plus phase 3.
	ComputeTime time.Duration
	Breakdown   metrics.Snapshot
	// TrackedObjects is the number of objects with FSMs.
	TrackedObjects int
	// Flows is the number of phase-1 flowsTo facts extracted.
	Flows int
	// PointsTo holds the recorded phase-1 facts (Options.RecordPointsTo).
	PointsTo []PointsToFact
}

// QueryPointsTo returns the recorded facts for a variable of a method
// (every clone, every block), answering the §2.1 query class. It requires
// Options.RecordPointsTo.
func (r *Result) QueryPointsTo(method, varName string) []PointsToFact {
	var out []PointsToFact
	for _, f := range r.PointsTo {
		if f.Method == method && f.Var == varName {
			out = append(out, f)
		}
	}
	return out
}

// Checker runs the pipeline for a fixed set of FSM properties.
type Checker struct {
	FSMs []*fsm.FSM
	Opts Options
	// closed, which only this package's tests set, is shown each phase's
	// engine once the phase's consumer has read the closed graph, before
	// finishPhase persists it.
	closed func(ph phase, en *engine.Engine)
}

// New builds a checker.
func New(fsms []*fsm.FSM, opts Options) *Checker {
	if opts.UnrollDepth <= 0 {
		opts.UnrollDepth = 2
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	return &Checker{FSMs: fsms, Opts: opts}
}

// Fingerprint identifies the result of checking text (MiniLang source, or a
// lowered Go unit's gofront.Result.Source) with this Checker: an FNV-64a
// hash of the text, each FSM's definition (fsm.Fingerprint) in order, and
// the options that can change a report (optionsPrint). Each engine phase's
// journal tag, the batch log's tag and the batch's shared frontends key on
// it, so no result is reused for other input.
//
// A Go unit fingerprints under the Go variant cap CheckGo checks it with.
//
// What it leaves out cannot change a report, and a test holds each to that:
// WorkDir (TestScratchRunDoesNoPartitionIO), MemoryBudget
// (TestClosureInvariantAcrossBudgets, TestResumeOverRandomEditRefusedOrCold),
// Workers (TestWorkerCountLeavesCheckIdentical,
// TestResumeOverRandomEditRefusedOrCold), DisableConstraintCache and the
// Cache seam (TestOneMemoPerCompilationUnit), DumpDOT and Scope
// (TestTracingPreservesReports), and the CFET's BranchVerdict, SliceFunc and
// SliceBranch seams (TestPropertyPruningPreservesReports,
// TestPropertySlicingPreservesReports). Journal and Resume say how a result
// is kept, not what it is.
func (c *Checker) Fingerprint(text string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(text))
	fmt.Fprintf(h, "\x00%d %x", len(text), c.optionsPrint())
	for _, f := range c.FSMs {
		fmt.Fprintf(h, " %x", f.Fingerprint())
	}
	return h.Sum64()
}

// optionsPrint is the options part of Fingerprint: unroll depth, type
// bindings (fmt prints a map in key order), RecordPointsTo (which turns
// slicing off), the CFET's per-method node budget and the engine's variant
// cap: 0 for a MiniLang unit, goMaxVariants for a Go one. A Prepared records
// it; CheckPrepared refuses one prepared under others.
func (c *Checker) optionsPrint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "unroll %d bind %q pointsTo %t maxNodes %d maxVariants %d",
		c.Opts.UnrollDepth, c.Opts.Bind, c.Opts.RecordPointsTo, c.Opts.cfet.MaxNodesPerMethod, c.Opts.maxVariants)
	return h.Sum64()
}

// phase names one of the two engine closures and says how it differs from
// the other.
type phase struct {
	name string
	// coldOK lets a resumed check start this phase cold when it has no
	// journal: a run killed during the alias phase never created the
	// dataflow journal. (It starts journaled, so a later kill is resumable
	// there too.) The alias journal must exist — resume never silently
	// restarts from scratch.
	coldOK bool
}

var (
	aliasPhase    = phase{name: "alias"}
	dataflowPhase = phase{name: "dataflow", coldOK: true}
)

// runPhase runs one closure phase to fixpoint in its own engine under
// workDir/<phase>, over the prepared unit's ICFET and with its constraint
// memo: it builds the engine's options from the checker's and either starts
// cold or — under Options.Resume — continues from the phase's journal, whose
// tag is the check's Fingerprint with the phase name hashed after it. An
// unjournaled phase gets no tag, and so writes no journal.
func (c *Checker) runPhase(ctx context.Context, ph phase, workDir string, prep *Prepared, g *grammar.Grammar,
	edges []storage.Edge, numVerts uint32) (*engine.Engine, PhaseStats, error) {
	c.Opts.Scope.Progress.SetPhase(ph.name)
	ic := prep.ic
	opts := engine.Options{
		Dir:          filepath.Join(workDir, ph.name),
		MemoryBudget: c.Opts.MemoryBudget,
		Workers:      c.Opts.Workers,
		Cache:        prep.memo,
		MaxVariants:  c.Opts.maxVariants,
		Scope:        c.Opts.Scope,
	}
	if c.Opts.Journal || c.Opts.Resume {
		if prep.text == "" {
			return nil, PhaseStats{}, fmt.Errorf("checker: Journal/Resume need the unit's text, and this check was given none")
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%x %s", c.Fingerprint(prep.text), ph.name)
		opts.JournalTag = h.Sum64()
	}
	// The span opens first: building the engine is part of what the phase
	// costs.
	sp := c.Opts.Scope.Start("checker", "phase."+ph.name)
	en := engine.New(ic, g, opts)
	var st *engine.Stats
	var err error
	if c.Opts.Resume {
		st, err = en.ResumeContext(ctx, numVerts)
	}
	if !c.Opts.Resume || ph.coldOK && errors.Is(err, storage.ErrNoJournal) {
		st, err = en.RunContext(ctx, edges, numVerts)
	}
	if err != nil {
		return nil, PhaseStats{}, fmt.Errorf("%s phase: %w", ph.name, endErr(sp, err))
	}
	sp.End(trace.Args{"iterations": st.Iterations, "edges": st.EdgesAfter})
	return en, PhaseStats{
		Vertices: numVerts, Stats: *st,
		CFETPaths: ic.PathCount(), PrunedBranches: ic.PrunedBranches(),
		SlicedFunctions: ic.SlicedFunctions(), SlicedBranches: ic.SlicedBranches(),
		TruncatedSubtrees: ic.TruncatedSubtrees(),
	}, nil
}

// endErr ends the span of the step that failed with the error as its "error"
// argument — that step is the one a trace is opened to find — and returns err.
func endErr(sp trace.Span, err error) error {
	sp.End(trace.Args{"error": err.Error()})
	return err
}

// finishPhase ends a closure phase once its consumer (ExtractFlows,
// checkTyped) has read the closed graph: a WorkDir the caller named is theirs
// to keep, so what the run left in memory is written out to it — after the
// consumer, which therefore never reads back what was only just written — and
// a temp dir about to be removed gets nothing. The phase's statistics are taken
// again, to include the consumer's reads and this write.
func (c *Checker) finishPhase(ph phase, en *engine.Engine, st *PhaseStats) error {
	if c.closed != nil {
		c.closed(ph, en)
	}
	if c.Opts.WorkDir != "" {
		if err := en.Persist(); err != nil {
			return fmt.Errorf("%s phase: %w", ph.name, err)
		}
	}
	st.Stats = en.Stats()
	return nil
}

func (c *Checker) fsmFor(typ string) *fsm.FSM {
	for _, f := range c.FSMs {
		if f.Type == typ {
			return f
		}
	}
	if name, ok := c.Opts.Bind[typ]; ok {
		for _, f := range c.FSMs {
			if f.Name == name {
				return f
			}
		}
	}
	return nil
}

// CheckSource parses, lowers and checks a MiniLang compilation unit.
func (c *Checker) CheckSource(src string) (*Result, error) {
	return c.CheckSourceContext(context.Background(), src)
}

// CheckSourceContext is CheckSource with cooperative cancellation: the
// engine's fixpoint loops observe ctx, so a deadline or cancel aborts the
// run between partition-pair iterations (the batch scheduler's per-instance
// timeout mechanism).
func (c *Checker) CheckSourceContext(ctx context.Context, src string) (*Result, error) {
	p, err := c.lowerSource(src)
	if err != nil {
		return nil, err
	}
	return c.CheckIR(ctx, p, src)
}

// lowerSource runs the MiniLang frontend's first three stages — parse,
// resolve, lower — each under its own trace span, on up to Options.Workers
// goroutines. The result does not depend on the count: lang.ParseParallel,
// lang.ResolveParallel and ir.LowerKept give their serial forms' program
// and errors.
func (c *Checker) lowerSource(src string) (*ir.Program, error) {
	sp := c.Opts.Scope.Start("checker", "parse")
	prog, lines, err := lang.ParseParallel(src, c.Opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", endErr(sp, err))
	}
	sp.End(trace.Args{"functions": len(prog.Funs), "loc": lines, "bytes": len(src)})
	return c.resolveLower(prog)
}

// resolveLower is the frontend's resolve and lower stages over a parsed
// unit, MiniLang (lowerSource) or Go (CheckGo), each under its own span.
// A check that slices lowers only the functions the slice could keep
// (ir.PreKeep) and stubs the rest; the lower span's lowered arg counts the
// bodies lowered.
func (c *Checker) resolveLower(prog *lang.Program) (*ir.Program, error) {
	sp := c.Opts.Scope.Start("checker", "resolve")
	info, err := lang.ResolveParallel(prog, c.Opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("resolve: %w", endErr(sp, err))
	}
	sp.End(trace.Args{"functions": len(prog.Funs)})
	sp = c.Opts.Scope.Start("checker", "lower")
	var keep []bool
	if c.slices(c.Opts.cfet) {
		keep = ir.PreKeep(info)
	}
	p, err := ir.LowerKept(info, ir.Options{UnrollDepth: c.Opts.UnrollDepth}, c.Opts.Workers, keep)
	if err != nil {
		return nil, fmt.Errorf("lower: %w", endErr(sp, err))
	}
	lowered := 0
	for _, fn := range p.Funs {
		if !fn.Stub {
			lowered++
		}
	}
	sp.End(trace.Args{"functions": len(p.Funs), "lowered": lowered})
	return p, nil
}

// trackedTypes is the object types c's FSMs track: their own, and each
// type Options.Bind binds to one of them.
func (c *Checker) trackedTypes() map[string]bool {
	tracked := map[string]bool{}
	for _, f := range c.FSMs {
		tracked[f.Type] = true
	}
	for typ, name := range c.Opts.Bind {
		for _, f := range c.FSMs {
			if f.Name == name {
				tracked[typ] = true
			}
		}
	}
	return tracked
}

// slices reports whether a prepare under cfetOpts slices for c's FSMs.
// Slicing is property-directed, so it needs the properties: a checker
// without FSMs prepares the whole program, which is what lets one Prepared
// serve every property group (the batch). RecordPointsTo's query class
// spans untracked variables too, and an injected SliceFunc/SliceBranch
// replaces the slicer.
func (c *Checker) slices(cfetOpts cfet.Options) bool {
	return len(c.FSMs) > 0 && !c.Opts.RecordPointsTo && cfetOpts.SliceFunc == nil && cfetOpts.SliceBranch == nil
}

// CheckGo resolves, lowers and checks a Go unit the Go frontend produced, as
// CheckSourceContext does a MiniLang one, under the Go variant cap
// (goMaxVariants) unless this package's tests set another. Both phases'
// Unlowered is the frontend's havoc count.
func (c *Checker) CheckGo(ctx context.Context, g *gofront.Result) (*Result, error) {
	gc := c.forGo()
	p, err := gc.resolveLower(g.Prog)
	if err != nil {
		return nil, err
	}
	var text string // what a journal's tag fingerprints, rendered only for one
	if c.Opts.Journal || c.Opts.Resume {
		text = g.Source()
	}
	res, err := gc.CheckIR(ctx, p, text)
	if err != nil {
		return nil, err
	}
	res.Alias.Unlowered = g.Stats.Havocs
	res.Dataflow.Unlowered = g.Stats.Havocs
	return res, nil
}

// forGo is c as it checks a Go unit: under the Go variant cap, unless this
// package's tests set another.
func (c *Checker) forGo() *Checker {
	gc := *c
	if gc.Opts.maxVariants == 0 {
		gc.Opts.maxVariants = goMaxVariants
	}
	return &gc
}

// CheckIR checks a lowered program under a cancellation context; text is the
// source it was lowered from (see PrepareIR).
func (c *Checker) CheckIR(ctx context.Context, p *ir.Program, text string) (*Result, error) {
	prep, err := c.PrepareIR(ctx, p, text)
	if err != nil {
		return nil, err
	}
	return c.CheckPrepared(ctx, prep)
}

// Prepared is the front half of a subject's analysis: the frontend
// structures (IR, ICFET, context tree, alias graph) plus the phase-1 alias
// closure's flowsTo facts, everything phase 2 reads, and the compilation
// unit's constraint memo. It is immutable once built, but for the memo, which
// is safe for concurrent use. A checker with FSMs slices it for them; one
// prepared by a checker without FSMs is the whole program, so many property
// groups of the same subject can share it — including concurrently — instead
// of each re-running the frontend and the alias fixpoint. It records the
// options part of its fingerprint, and CheckPrepared refuses it on a Checker
// whose report-affecting options differ from the preparing Checker's.
type Prepared struct {
	ic    *cfet.ICFET
	pr    *pgraph.Program
	ag    *pgraph.AliasGraph
	flows pgraph.AliasResult
	text  string // what the unit was lowered from (PrepareIR)
	opts  uint64 // the preparing Checker's optionsPrint
	// memo is the unit's constraint memo (§4.3), keyed by encoded paths into
	// ic: the alias phase fills it, and every dataflow phase run against this
	// Prepared probes and extends it. Nil under DisableConstraintCache.
	memo *smt.Cache

	// escaped holds the allocation sites whose objects may leave the unit
	// through an entry function's return value; leak verdicts on them are
	// the unseen caller's to make (checkTyped skips them).
	escaped map[int32]bool

	// phase-1 halves of the eventual Result, copied into every
	// CheckPrepared output.
	alias       PhaseStats
	genTime     time.Duration
	computeTime time.Duration
	flowCount   int
	pointsTo    []PointsToFact
}

// PrepareSource parses, lowers and prepares a MiniLang compilation unit.
func (c *Checker) PrepareSource(ctx context.Context, src string) (*Prepared, error) {
	p, err := c.lowerSource(src)
	if err != nil {
		return nil, err
	}
	return c.PrepareIR(ctx, p, src)
}

// PrepareIR runs the frontend (points-to and, given FSMs, slicing, then the
// pre-analysis over the functions the slice keeps, ICFET, context tree,
// alias graph) and the phase-1 alias closure over a lowered program. The
// flowsTo facts the closure produced are held in memory, which is all phase
// 2 consults (§2.2); the alias engine's partitions outlive the call only in
// a WorkDir the caller named. It creates the unit's
// constraint memo, which the alias phase fills and every CheckPrepared on the
// result reuses. text is the source p was lowered from, which journal tags
// fingerprint; given "", Journal and Resume are refused.
func (c *Checker) PrepareIR(ctx context.Context, p *ir.Program, text string) (*Prepared, error) {
	workDir := c.Opts.WorkDir
	if c.Opts.Resume && workDir == "" {
		return nil, fmt.Errorf("checker: Resume requires a persistent WorkDir")
	}
	if workDir == "" {
		dir, err := os.MkdirTemp("", "grapple-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		workDir = dir
	}
	prep := &Prepared{text: text, opts: c.optionsPrint(), memo: c.Opts.Cache}
	if c.Opts.DisableConstraintCache {
		prep.memo = nil
	} else if prep.memo == nil {
		prep.memo = smt.NewCache(0)
	}

	// --- Frontend: slice + pre-analysis + ICFET (index) + context tree + alias graph. ---
	c.Opts.Scope.Progress.SetPhase("frontend")
	genStart := time.Now()
	cfetOpts := c.Opts.cfet
	sp := c.Opts.Scope.Start("checker", "callgraph")
	cg := callgraph.Build(p)
	sp.End(trace.Args{"functions": len(p.Funs)})
	var cloneOpts pgraph.Options
	var pts *analysis.PointsToResult
	if c.slices(cfetOpts) {
		sp = c.Opts.Scope.Start("checker", "points-to+slice")
		pts = analysis.SolvePointsTo(p, cg)
		rel := analysis.ComputeRelevance(p, cg, pts, c.trackedTypes())
		drop := func(name string) bool { return !rel.KeepFunc(name) }
		cfetOpts.SliceFunc = drop
		cfetOpts.SliceBranch = rel.InertBranch
		cloneOpts.Skip = drop
		sp.End(nil)
	}
	// Constant propagation runs after the slice, over the functions it keeps:
	// SCCP is per-function, and a sliced-away function is built as a stub
	// that asks for no verdict (docs/slicing.md).
	if cfetOpts.BranchVerdict == nil {
		sp = c.Opts.Scope.Start("checker", "pre-analysis")
		funs := p.Funs
		if drop := cfetOpts.SliceFunc; drop != nil {
			funs = nil
			for _, fn := range p.Funs {
				if !drop(fn.Name) {
					funs = append(funs, fn)
				}
			}
		}
		pre, err := analysis.RunFuncs(p, analysis.PruneAnalyzers(), funs)
		if err != nil {
			return nil, fmt.Errorf("pre-analysis: %w", endErr(sp, err))
		}
		cfetOpts.BranchVerdict = pre.BranchVerdict
		sp.End(trace.Args{"functions": len(funs), "condsDecided": pre.CondsDecided})
	}
	// The escaped set does not depend on the FSMs, so every prepare computes
	// it. Objects handed to an unseen caller through an entry function's
	// return are not leak candidates at our exit — the caller owns them now.
	// Entry functions are the call-graph roots: for a whole program that is
	// main (which returns nothing, so nothing escapes); for a library-style
	// unit it is every uncalled exported constructor.
	if pts == nil {
		pts = analysis.SolvePointsTo(p, cg)
	}
	prep.escaped = pts.EscapingSites(cg.Roots())
	// Objects shared with a spawned task are co-owned: the goroutine may still
	// release them after the spawner's exit, so "open at exit" is not evidence
	// of a leak for them either. Programs without spawn statements get an
	// empty set and identical verdicts.
	for site := range analysis.ComputeMHP(pts, cg).SharedSites {
		prep.escaped[site] = true
	}
	tab := symbolic.NewTable()
	sp = c.Opts.Scope.Start("checker", "cfet-build")
	ic, err := cfet.Build(p, tab, cfetOpts)
	if err != nil {
		return nil, fmt.Errorf("icfet: %w", endErr(sp, err))
	}
	sp.End(trace.Args{"paths": ic.PathCount(), "prunedBranches": ic.PrunedBranches(),
		"truncatedSubtrees": ic.TruncatedSubtrees()})
	sp = c.Opts.Scope.Start("checker", "context-clone")
	pr := pgraph.NewProgram(p, cg, ic, cloneOpts)
	ag := pgraph.BuildAlias(pr)
	sp.End(trace.Args{"vertices": ag.NumVerts, "edges": len(ag.Edges)})
	// The pointer grammar interns one store/load label pair per distinct
	// field; a program with enough fields to exhaust the 16-bit label space
	// must fail with the grammar's sized diagnostic, not analyze nonsense
	// NoLabel edges.
	if err := ag.Ptr.G.Err(); err != nil {
		return nil, err
	}
	prep.ic, prep.pr, prep.ag = ic, pr, ag
	prep.genTime = time.Since(genStart)
	if c.Opts.DumpDOT != "" {
		if err := dumpDOT(filepath.Join(c.Opts.DumpDOT, "alias.dot"), func(w *os.File) error {
			return ag.WriteAliasDOT(w, pr, ic)
		}); err != nil {
			return nil, err
		}
	}

	computeStart := time.Now()

	// --- Phase 1: path-sensitive alias closure. ---
	aliasEngine, alias, err := c.runPhase(ctx, aliasPhase, workDir, prep, ag.Ptr.G, ag.Edges, ag.NumVerts)
	if err != nil {
		return nil, err
	}

	// Extract flowsTo facts; held in memory for phase 2 (paper §2.2).
	sp = c.Opts.Scope.Start("checker", "extract-flows")
	flows, nflows, err := ExtractFlows(aliasEngine, ag)
	if err != nil {
		return nil, endErr(sp, err)
	}
	sp.End(trace.Args{"flows": nflows})
	if err := c.finishPhase(aliasPhase, aliasEngine, &alias); err != nil {
		return nil, err
	}
	prep.alias = alias
	prep.flows = flows
	prep.flowCount = nflows
	if c.Opts.RecordPointsTo {
		prep.pointsTo = pointsToFacts(pr, ag, flows, ic)
	}
	prep.computeTime = time.Since(computeStart)
	return prep, nil
}

// CheckPrepared runs phases 2 and 3 (dataflow/typestate closure plus FSM
// checking) against a prepared subject, using this Checker's FSM set. A
// subject prepared under other report-affecting options is refused.
func (c *Checker) CheckPrepared(ctx context.Context, prep *Prepared) (*Result, error) {
	if own := c.optionsPrint(); own != prep.opts {
		return nil, fmt.Errorf("checker: subject prepared under options %016x, checked under %016x", prep.opts, own)
	}
	workDir := c.Opts.WorkDir
	if workDir == "" {
		dir, err := os.MkdirTemp("", "grapple-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		workDir = dir
	}
	ic, pr, ag := prep.ic, prep.pr, prep.ag
	res := &Result{
		Alias:    prep.alias,
		GenTime:  prep.genTime,
		Flows:    prep.flowCount,
		PointsTo: prep.pointsTo,
	}

	// --- Phase 2: path-sensitive dataflow/typestate closure. ---
	c.Opts.Scope.Progress.SetPhase("dataflow-build")
	genStart := time.Now()
	sp := c.Opts.Scope.Start("checker", "dataflow-build")
	dg := pgraph.BuildDataflow(pr, prep.flows, ag, c.fsmFor)
	sp.End(trace.Args{"vertices": dg.NumVerts, "edges": len(dg.Edges), "tracked": len(dg.Tracked)})
	res.GenTime += time.Since(genStart)
	res.TrackedObjects = len(dg.Tracked)
	if c.Opts.DumpDOT != "" {
		if err := dumpDOT(filepath.Join(c.Opts.DumpDOT, "dataflow.dot"), func(w *os.File) error {
			return dg.WriteDataflowDOT(w, ic)
		}); err != nil {
			return nil, err
		}
	}

	computeStart := time.Now()
	dfEngine, dataflow, err := c.runPhase(ctx, dataflowPhase, workDir, prep, dg.D.G, dg.Edges, dg.NumVerts)
	if err != nil {
		return nil, err
	}

	// --- Phase 3: FSM checking of source->exit relations. ---
	c.Opts.Scope.Progress.SetPhase("fsm-check")
	sp = c.Opts.Scope.Start("checker", "fsm-check")
	res.Reports, err = checkTyped(dfEngine, dg, ic, prep.escaped)
	if err != nil {
		return nil, endErr(sp, err)
	}
	sp.End(trace.Args{"reports": len(res.Reports)})
	if err := c.finishPhase(dataflowPhase, dfEngine, &dataflow); err != nil {
		return nil, err
	}
	res.Dataflow = dataflow
	res.ComputeTime = prep.computeTime + time.Since(computeStart)
	res.Breakdown = prep.alias.Breakdown
	res.Breakdown.Add(dataflow.Breakdown)
	return res, nil
}

// dumpDOT writes one Graphviz file.
func dumpDOT(path string, write func(*os.File) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ExtractFlows turns a closed alias graph's flowsTo edges into per-object
// alias facts and counts distinct pointees per variable instance (for
// must-alias upgrades): what phase 2 reads of phase 1. It also returns how
// many facts it extracted.
func ExtractFlows(en *engine.Engine, ag *pgraph.AliasGraph) (pgraph.AliasResult, int, error) {
	flows := pgraph.AliasResult{
		Flows:    map[pgraph.ObjID][]pgraph.FlowTarget{},
		Pointees: map[pgraph.VarKey]int{},
	}
	varObjs := map[pgraph.VarKey]map[pgraph.ObjID]bool{}
	n := 0
	err := en.ForEach(func(e *storage.Edge) bool {
		if e.Label != ag.Ptr.FlowsTo {
			return true
		}
		obj, ok := ag.RevObj[e.Src]
		if !ok {
			return true
		}
		if int(e.Dst) >= len(ag.RevVar) || ag.RevVar[e.Dst] == nil {
			return true
		}
		vk := *ag.RevVar[e.Dst]
		flows.Flows[obj] = append(flows.Flows[obj], pgraph.FlowTarget{
			Var: vk, Enc: e.Enc.Clone(),
		})
		if varObjs[vk] == nil {
			varObjs[vk] = map[pgraph.ObjID]bool{}
		}
		varObjs[vk][obj] = true
		n++
		return true
	})
	for vk, objs := range varObjs {
		flows.Pointees[vk] = len(objs)
	}
	return flows, n, err
}

// pointsToFacts converts the in-memory alias results into queryable facts.
func pointsToFacts(pr *pgraph.Program, ag *pgraph.AliasGraph, flows pgraph.AliasResult, ic *cfet.ICFET) []PointsToFact {
	var out []PointsToFact
	objByID := map[pgraph.ObjID]pgraph.ObjInfo{}
	for _, o := range ag.Objects {
		objByID[o.ID] = o
	}
	for objID, targets := range flows.Flows {
		info := objByID[objID]
		for _, t := range targets {
			conjText := "true"
			conditional := false
			if conj, err := ic.Decode(t.Enc); err == nil && len(conj) > 0 {
				conditional = true
				conjText = conj.String(ic.Syms)
			}
			out = append(out, PointsToFact{
				Ctx:         t.Var.Ctx,
				Method:      pr.Method(t.Var.Ctx).Name,
				Var:         t.Var.Name,
				Node:        t.Var.Node,
				ObjType:     info.Type,
				ObjPos:      info.Pos,
				Conditional: conditional,
				Constraint:  conjText,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Method != b.Method {
			return a.Method < b.Method
		}
		if a.Var != b.Var {
			return a.Var < b.Var
		}
		if a.Ctx != b.Ctx {
			return a.Ctx < b.Ctx
		}
		return a.Node < b.Node
	})
	return out
}

// checkTyped inspects every closed source->exit edge (phase 3).
// explainWitness renders a path encoding as forward source-level steps:
// each interval contributes the branches taken between its endpoints, each
// call/return element the frame crossing.
func explainWitness(ic *cfet.ICFET, enc cfet.Enc) []WitnessStep {
	var steps []WitnessStep
	for _, el := range enc {
		switch el.Kind {
		case cfet.KInterval:
			if int(el.Method) >= len(ic.Methods) {
				continue
			}
			m := ic.Methods[el.Method]
			// Walk child-to-ancestor collecting branch decisions, then
			// reverse into execution order. The end's parent is looked up
			// once; from there the walk follows parent links.
			var rev []WitnessStep
			cur := el.End
			var pn *cfet.Node
			for cur != el.Start && cur != 0 {
				parent := cfet.Parent(cur)
				if pn == nil {
					pn = m.Node(parent)
				}
				if pn != nil && pn.HasCond {
					branch := "false"
					if cfet.IsTrueChild(cur) {
						branch = "true"
					}
					rev = append(rev, WitnessStep{
						Pos:  pn.CondPos,
						Desc: fmt.Sprintf("in %s: take the %s branch of (%s)", m.Name, branch, pn.CondText()),
					})
				}
				cur = parent
				if pn != nil {
					pn = pn.Parent
				}
			}
			for i := len(rev) - 1; i >= 0; i-- {
				steps = append(steps, rev[i])
			}
		case cfet.KCall:
			if int(el.Call) >= len(ic.CallEdges) {
				continue
			}
			ce := ic.CallEdges[el.Call]
			steps = append(steps, WitnessStep{
				Desc: fmt.Sprintf("call %s from %s", ic.Methods[ce.Callee].Name, ic.Methods[ce.Caller].Name),
			})
		case cfet.KRet:
			if int(el.Call) >= len(ic.CallEdges) {
				continue
			}
			ce := ic.CallEdges[el.Call]
			steps = append(steps, WitnessStep{
				Desc: fmt.Sprintf("return from %s to %s", ic.Methods[ce.Callee].Name, ic.Methods[ce.Caller].Name),
			})
		}
	}
	return steps
}

func checkTyped(en *engine.Engine, dg *pgraph.DataflowGraph, ic *cfet.ICFET, escaped map[int32]bool) ([]Report, error) {
	byEndpoint := map[[2]uint32]*pgraph.TrackedObj{}
	for i := range dg.Tracked {
		t := &dg.Tracked[i]
		byEndpoint[[2]uint32{t.Source, t.Exit}] = t
	}
	type repKey struct {
		site int32
		ctx  uint32
		fsm  string
		kind Kind
	}
	seen := map[repKey]bool{}
	var reports []Report
	err := en.ForEach(func(e *storage.Edge) bool {
		t, ok := byEndpoint[[2]uint32{e.Src, e.Dst}]
		if !ok || !dg.D.G.IsFinal(e.Label) {
			return true
		}
		states := e.Rel.Apply(t.FSM.Init)
		var bad []string
		kind := KindLeak
		for s := 0; s < len(t.FSM.States); s++ {
			if states&(1<<uint(s)) == 0 {
				continue
			}
			if s == fsm.ErrorState {
				kind = KindError
				bad = append(bad, t.FSM.States[s])
			} else if !t.FSM.IsAccept(s) {
				bad = append(bad, t.FSM.States[s])
			}
		}
		if len(bad) == 0 {
			return true
		}
		// A leak verdict says "still open when the program ends" — but an
		// object that escapes to an unseen caller doesn't end here, and the
		// release obligation went with it. Error states (a forbidden event
		// actually happened) stand regardless of ownership.
		if kind == KindLeak && escaped[t.Info.ID.Site] {
			return true
		}
		k := repKey{site: t.Info.ID.Site, ctx: t.Info.ID.Ctx, fsm: t.FSM.Name, kind: kind}
		if seen[k] {
			return true
		}
		seen[k] = true
		witnessConstraint := "true"
		if conj, derr := ic.Decode(e.Enc); derr == nil && len(conj) > 0 {
			witnessConstraint = conj.String(ic.Syms)
		}
		steps := explainWitness(ic, e.Enc)
		reports = append(reports, Report{
			FSM:               t.FSM.Name,
			Type:              t.Info.Type,
			Kind:              kind,
			Pos:               t.Info.Pos,
			Object:            t.Info.String(),
			States:            bad,
			Witness:           e.Enc.String(ic),
			WitnessConstraint: witnessConstraint,
			Steps:             steps,
		})
		return true
	})
	slices.SortStableFunc(reports, CompareReports)
	return reports, err
}

// CompareReports is the order warnings are output in, stably sorted. The key
// is total over everything a report is identified by — line, column, FSM,
// kind, object and type — because the edge-iteration order feeding
// checkTyped is not specified: a tie left unbroken (two objects flagged on
// the same line, say) would let the report stream flip between runs, and
// batch mode promises byte-identical merged reports regardless of scheduling.
func CompareReports(a, b Report) int {
	return cmp.Or(
		cmp.Compare(a.Pos.Line, b.Pos.Line),
		cmp.Compare(a.Pos.Col, b.Pos.Col),
		strings.Compare(a.FSM, b.FSM),
		cmp.Compare(a.Kind, b.Kind),
		strings.Compare(a.Object, b.Object),
		strings.Compare(a.Type, b.Type),
	)
}
