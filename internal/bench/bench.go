// Package bench regenerates every table and figure of the paper's
// evaluation (§5) over the simulated subjects: Table 1 (subjects), Table 2
// (TP/FP per checker), Table 3 (graph sizes and times), Figure 9 (cost
// breakdown), Table 4 (constraint caching), Table 5 (string-constraint
// naive engine), and the §5.3 traditional-implementation OOM result.
// cmd/grapple-bench drives this package; its tests run each table on mini-sim.
package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/grapple-system/grapple/internal/baseline"
	"github.com/grapple-system/grapple/internal/callgraph"
	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/engine"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/grammar"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/pgraph"
	"github.com/grapple-system/grapple/internal/smt"
	"github.com/grapple-system/grapple/internal/storage"
	"github.com/grapple-system/grapple/internal/symbolic"
	"github.com/grapple-system/grapple/internal/workload"
)

// RunOptions configures one subject analysis.
type RunOptions struct {
	// WorkDir for engine partitions (temp dir when empty).
	WorkDir string
	// MemoryBudget for the engine; small values exercise the out-of-core
	// path (default 8 MiB, which partitions the larger subjects).
	MemoryBudget int64
	// DisableCache turns off constraint memoization (Table 4's "without").
	DisableCache bool
}

// SubjectRun bundles one analyzed subject.
type SubjectRun struct {
	Subject *workload.Subject
	Result  *checker.Result
	Tally   *workload.Tally
	Total   time.Duration
}

// RunSubject generates and analyzes one subject.
func RunSubject(name string, opts RunOptions) (*SubjectRun, error) {
	p, ok := workload.ProfileByName(name)
	if !ok {
		return nil, fmt.Errorf("bench: unknown subject %q", name)
	}
	s := workload.Generate(p)
	workDir := opts.WorkDir
	if workDir == "" {
		dir, err := os.MkdirTemp("", "grapple-bench-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		workDir = dir
	}
	budget := opts.MemoryBudget
	if budget == 0 {
		budget = 8 << 20
	}
	c := checker.New(fsm.Builtins(), checker.Options{
		WorkDir:                workDir,
		MemoryBudget:           budget,
		DisableConstraintCache: opts.DisableCache,
	})
	start := time.Now()
	res, err := c.CheckSource(s.Source)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", name, err)
	}
	return &SubjectRun{
		Subject: s,
		Result:  res,
		Tally:   workload.Evaluate(s, res.Reports),
		Total:   time.Since(start),
	}, nil
}

// SubjectNames returns the four evaluation subjects in Table order.
func SubjectNames() []string {
	var out []string
	for _, p := range workload.Profiles() {
		out = append(out, p.Name)
	}
	return out
}

// Table1 renders subject characteristics (paper Table 1).
func Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1. Characteristics of subject programs.\n")
	fmt.Fprintf(&b, "%-15s %-12s %8s  %s\n", "Subject", "Version", "#LoC", "Description")
	for _, p := range workload.Profiles() {
		s := workload.Generate(p)
		fmt.Fprintf(&b, "%-15s %-12s %8d  %s\n", s.Name, s.Version, s.LoC, s.Description)
	}
	return b.String()
}

// Table2 renders TP/FP per checker per subject (paper Table 2).
func Table2(runs []*SubjectRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2. Bugs reported per checker (TP = true bugs, FP = false positives).\n")
	fmt.Fprintf(&b, "%-15s %9s %9s %9s %9s %11s\n", "Checker", "I/O", "lock", "except.", "socket", "total")
	fmt.Fprintf(&b, "%-15s %4s %4s %4s %4s %4s %4s %4s %4s %5s %5s\n",
		"", "TP", "FP", "TP", "FP", "TP", "FP", "TP", "FP", "TP", "FP")
	for _, r := range runs {
		pc := r.Tally.PerChecker
		tot := r.Tally.Totals()
		fmt.Fprintf(&b, "%-15s %4d %4d %4d %4d %4d %4d %4d %4d %5d %5d\n",
			r.Subject.Name,
			pc["io"].TP, pc["io"].FP,
			pc["lock"].TP, pc["lock"].FP,
			pc["exception"].TP, pc["exception"].FP,
			pc["socket"].TP, pc["socket"].FP,
			tot.TP, tot.FP)
	}
	return b.String()
}

// Table3 renders graph sizes and running times (paper Table 3): vertices,
// edges before/after computation, preprocessing/computation/total times.
func Table3(runs []*SubjectRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3. Grapple's performance.\n")
	fmt.Fprintf(&b, "%-15s %9s %10s %10s %10s %12s %12s\n",
		"Subject", "#V (K)", "#EB (K)", "#EA (K)", "PT", "CT", "TT")
	for _, r := range runs {
		v := int64(r.Result.Alias.Vertices) + int64(r.Result.Dataflow.Vertices)
		eb := r.Result.Alias.EdgesBefore + r.Result.Dataflow.EdgesBefore
		ea := r.Result.Alias.EdgesAfter + r.Result.Dataflow.EdgesAfter
		fmt.Fprintf(&b, "%-15s %9.1f %10.1f %10.1f %10s %12s %12s\n",
			r.Subject.Name,
			float64(v)/1e3, float64(eb)/1e3, float64(ea)/1e3,
			round(r.Result.GenTime), round(r.Result.ComputeTime), round(r.Total))
	}
	return b.String()
}

// Figure9 renders the per-component cost breakdown (paper Figure 9).
func Figure9(runs []*SubjectRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9. Performance breakdown (%% of summed component time).\n")
	fmt.Fprintf(&b, "%-15s %8s %18s %13s %17s\n",
		"Subject", "I/O", "Constraint lookup", "SMT solving", "Edge computation")
	for _, r := range runs {
		io, dec, sol, comp := r.Result.Breakdown.Percentages()
		fmt.Fprintf(&b, "%-15s %7.1f%% %17.1f%% %12.1f%% %16.1f%%\n",
			r.Subject.Name, io, dec, sol, comp)
	}
	return b.String()
}

// Table4Row is one subject's caching ablation.
type Table4Row struct {
	Subject     string
	Constraints int64
	Hits        int64
	HitRate     float64
	TimeNoCache time.Duration // total constraint-solving time without caching
	TimeCache   time.Duration // with caching
	Saving      float64
}

// Table4 runs each subject twice (cache off/on) and renders the caching
// effectiveness table (paper Table 4).
func Table4(names []string, opts RunOptions) (string, []Table4Row, error) {
	var rows []Table4Row
	for _, name := range names {
		noCacheOpts := opts
		noCacheOpts.DisableCache = true
		noCache, err := RunSubject(name, noCacheOpts)
		if err != nil {
			return "", nil, err
		}
		cacheOpts := opts
		cacheOpts.DisableCache = false
		withCache, err := RunSubject(name, cacheOpts)
		if err != nil {
			return "", nil, err
		}
		lookups := withCache.Result.Alias.CacheLookups + withCache.Result.Dataflow.CacheLookups
		hits := withCache.Result.Alias.CacheHits + withCache.Result.Dataflow.CacheHits
		toc := noCache.Result.Alias.SolveTime + noCache.Result.Dataflow.SolveTime
		twc := withCache.Result.Alias.SolveTime + withCache.Result.Dataflow.SolveTime
		row := Table4Row{
			Subject:     name,
			Constraints: lookups,
			Hits:        hits,
			TimeNoCache: toc,
			TimeCache:   twc,
		}
		if lookups > 0 {
			row.HitRate = float64(hits) / float64(lookups)
		}
		if toc > 0 {
			row.Saving = 1 - float64(twc)/float64(toc)
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4. Effectiveness of constraint caching.\n")
	fmt.Fprintf(&b, "%-15s %10s %10s %7s %10s %10s %8s\n",
		"Subject", "#Const.", "#Hits", "Rate", "TOC", "TWC", "Saving")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %10d %10d %6.1f%% %10s %10s %7.1f%%\n",
			r.Subject, r.Constraints, r.Hits, 100*r.HitRate,
			round(r.TimeNoCache), round(r.TimeCache), 100*r.Saving)
	}
	return b.String(), rows, nil
}

// aliasGraphFor rebuilds a subject's cloned program (its ICFET is pr.IC) and
// phase-1 alias graph for the baseline comparisons.
func aliasGraphFor(name string) (*pgraph.Program, *pgraph.AliasGraph, error) {
	p, ok := workload.ProfileByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("bench: unknown subject %q", name)
	}
	s := workload.Generate(p)
	prog, err := lang.Parse(s.Source)
	if err != nil {
		return nil, nil, err
	}
	info, err := lang.Resolve(prog)
	if err != nil {
		return nil, nil, err
	}
	irProg, err := ir.Lower(info, ir.Options{})
	if err != nil {
		return nil, nil, err
	}
	cg := callgraph.Build(irProg)
	ic, err := cfet.Build(irProg, symbolic.NewTable(), cfet.Options{})
	if err != nil {
		return nil, nil, err
	}
	pr := pgraph.NewProgram(irProg, cg, ic, pgraph.Options{})
	return pr, pgraph.BuildAlias(pr), nil
}

// Table5Row is one subject's Grapple-vs-naive comparison.
type Table5Row struct {
	Subject                string
	GrapplePartitions      int
	NaivePartitions        int
	GrappleIterations      int64
	NaiveIterations        int64
	GrappleConstraints     int64
	NaiveConstraints       int64
	GrappleTime, NaiveTime time.Duration
	NaiveDNF               bool
}

// Table5 compares the interval-encoding engine against the naive
// string-constraint engine on the path-sensitive alias analysis (paper
// Table 5). NaiveTimeout bounds each naive run (the paper's HBase naive
// run did not finish in 200 hours).
func Table5(names []string, workDir string, memoryBudget int64, naiveTimeout time.Duration) (string, []Table5Row, error) {
	if memoryBudget == 0 {
		memoryBudget = 512 << 10
	}
	if naiveTimeout == 0 {
		naiveTimeout = 2 * time.Minute
	}
	var rows []Table5Row
	for _, name := range names {
		pr, ag, err := aliasGraphFor(name)
		if err != nil {
			return "", nil, err
		}
		ic := pr.IC
		dir := workDir
		if dir == "" {
			d, err := os.MkdirTemp("", "grapple-t5-*")
			if err != nil {
				return "", nil, err
			}
			defer os.RemoveAll(d)
			dir = d
		}
		// Grapple engine.
		gStart := time.Now()
		en := engine.New(ic, ag.Ptr.G, engine.Options{
			Dir:          filepath.Join(dir, name+"-grapple"),
			MemoryBudget: memoryBudget,
			Cache:        smt.NewCache(0),
		})
		gStats, err := en.Run(cloneEdges(ag.Edges), ag.NumVerts)
		if err != nil {
			return "", nil, err
		}
		gTime := time.Since(gStart)

		// Naive string engine, same memory budget.
		se := baseline.NewStringEngine(ic, ag.Ptr.G, baseline.StringOptions{
			Dir:          filepath.Join(dir, name+"-naive"),
			MemoryBudget: memoryBudget,
			Timeout:      naiveTimeout,
		})
		nStats, err := se.Run(cloneEdges(ag.Edges), ag.NumVerts)
		if err != nil {
			return "", nil, err
		}
		rows = append(rows, Table5Row{
			Subject:            name,
			GrapplePartitions:  gStats.Partitions,
			NaivePartitions:    nStats.Partitions,
			GrappleIterations:  gStats.Iterations,
			NaiveIterations:    nStats.Iterations,
			GrappleConstraints: gStats.ConstraintsSolved,
			NaiveConstraints:   nStats.Constraints,
			GrappleTime:        gTime,
			NaiveTime:          nStats.Elapsed,
			NaiveDNF:           nStats.TimedOut,
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5. Comparison with the naive string-constraint implementation\n")
	fmt.Fprintf(&b, "(path-sensitive alias analysis; naive timeout %s => DNF).\n", naiveTimeout)
	fmt.Fprintf(&b, "%-15s %18s %18s %20s %22s\n",
		"Subject", "#Partition", "#Iteration", "#Constraint", "Time")
	fmt.Fprintf(&b, "%-15s %8s %9s %8s %9s %9s %10s %10s %11s\n",
		"", "Grapple", "naive", "Grapple", "naive", "Grapple", "naive", "Grapple", "naive")
	for _, r := range rows {
		naiveTime := round(r.NaiveTime)
		if r.NaiveDNF {
			naiveTime = ">" + naiveTime + " DNF"
		}
		fmt.Fprintf(&b, "%-15s %8d %9d %8d %9d %9d %10d %10s %11s\n",
			r.Subject,
			r.GrapplePartitions, r.NaivePartitions,
			r.GrappleIterations, r.NaiveIterations,
			r.GrappleConstraints, r.NaiveConstraints,
			round(r.GrappleTime), naiveTime)
	}
	return b.String(), rows, nil
}

// TableOOM runs the traditional in-memory implementation on each subject's
// full analysis (path-sensitive alias closure, then the dataflow/typestate
// closure with explicit constraint objects) under the given memory budget —
// the same budget under which the disk engine completes. Paper §5.3: the
// traditional approach "could not finish checking any of these programs —
// they all crashed with out-of-memory errors".
func TableOOM(names []string, memoryBudget int64, timeout time.Duration) (string, error) {
	if memoryBudget == 0 {
		memoryBudget = 8 << 20 // the Table-3 engine budget
	}
	if timeout == 0 {
		timeout = 2 * time.Minute
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Traditional (non-systemized) in-memory implementation, %d MiB budget\n", memoryBudget>>20)
	fmt.Fprintf(&b, "(explicit constraint objects on edges; alias phase then dataflow phase):\n")
	fmt.Fprintf(&b, "%-15s %-10s %12s %14s\n", "Subject", "Outcome", "Edges", "Peak bytes")
	for _, name := range names {
		outcome, edges, peak, err := runTraditionalFull(name, memoryBudget, timeout)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-15s %-10s %12d %14d\n", name, outcome, edges, peak)
	}
	return b.String(), nil
}

// runTraditionalFull drives both phases through the traditional baseline,
// using the real engine's phase-1 results to build the phase-2 graph (the
// traditional alias phase rarely survives long enough to provide them).
func runTraditionalFull(name string, budget int64, timeout time.Duration) (string, int64, int64, error) {
	ic, ag, dfEdges, err := graphsFor(name)
	if err != nil {
		return "", 0, 0, err
	}
	var totalEdges, peak int64
	st, runErr := baseline.RunTraditional(ic, ag.Ptr.G, ag.Edges, baseline.TraditionalOptions{
		MemoryBudget: budget, Timeout: timeout,
	})
	totalEdges += st.Edges
	peak += st.PeakBytes
	if st.OOM {
		return "OOM", totalEdges, peak, nil
	}
	if runErr != nil {
		return "DNF", totalEdges, peak, nil
	}
	d := grammar.NewDataflow()
	st2, runErr := baseline.RunTraditional(ic, d.G, dfEdges, baseline.TraditionalOptions{
		MemoryBudget: budget - st.PeakBytes, Timeout: timeout, UseRel: true,
	})
	totalEdges += st2.Edges
	if peak < st.PeakBytes+st2.PeakBytes {
		peak = st.PeakBytes + st2.PeakBytes
	}
	switch {
	case st2.OOM:
		return "OOM", totalEdges, peak, nil
	case runErr != nil:
		return "DNF", totalEdges, peak, nil
	}
	return "finished", totalEdges, peak, nil
}

// graphsFor builds a subject's alias graph and — via a real phase-1 run —
// its dataflow graph.
func graphsFor(name string) (*cfet.ICFET, *pgraph.AliasGraph, []storage.Edge, error) {
	pr, ag, err := aliasGraphFor(name)
	if err != nil {
		return nil, nil, nil, err
	}
	ic := pr.IC

	dir, err := os.MkdirTemp("", "grapple-oom-*")
	if err != nil {
		return nil, nil, nil, err
	}
	defer os.RemoveAll(dir)
	en := engine.New(ic, ag.Ptr.G, engine.Options{Dir: dir, Cache: smt.NewCache(0)})
	if _, err := en.Run(cloneEdges(ag.Edges), ag.NumVerts); err != nil {
		return nil, nil, nil, err
	}
	flows, _, err := checker.ExtractFlows(en, ag)
	if err != nil {
		return nil, nil, nil, err
	}
	builtins := fsm.Builtins()
	fsmFor := func(typ string) *fsm.FSM {
		for _, f := range builtins {
			if f.Type == typ {
				return f
			}
		}
		return nil
	}
	dg := pgraph.BuildDataflow(pr, flows, ag, fsmFor)
	return ic, ag, dg.Edges, nil
}

func cloneEdges(in []storage.Edge) []storage.Edge {
	out := make([]storage.Edge, len(in))
	copy(out, in)
	return out
}

func round(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return d.Round(time.Second).String()
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	default:
		return d.Round(10 * time.Microsecond).String()
	}
}
