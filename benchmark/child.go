package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	grapple "github.com/grapple-system/grapple"
)

// childEnv names the environment variable that turns the harness binary
// into one measured check: its value is the path of a childSpec. Every
// measured run is such a fresh process, so it is a cold CLI-style start and
// its rusage is that run's alone.
const childEnv = "GRAPPLE_BENCH_CHILD"

// childSpec tells a child what to check. It carries only source paths and
// options — never ground truth.
type childSpec struct {
	Inputs       []inputFile `json:"inputs"`
	FSMs         []string    `json:"fsms"`
	MemoryBudget int64       `json:"memory_budget"`
	Batch        bool        `json:"batch"`
	W            int         `json:"w"`
	WorkDir      string      `json:"work_dir"`
	TracePath    string      `json:"trace_path"`
	OutPath      string      `json:"out_path"`
}

// reportRec is the identity of one warning: what the verdict oracle scores
// and what the determinism hash covers. Witness text is left to the repo's
// golden tests.
type reportRec struct {
	Subject string   `json:"subject"`
	FSM     string   `json:"fsm"`
	Type    string   `json:"type"`
	Kind    string   `json:"kind"`
	Line    int      `json:"line"`
	Col     int      `json:"col"`
	Object  string   `json:"object"`
	States  []string `json:"states"`
}

// childResult is what a child writes to childSpec.OutPath.
type childResult struct {
	Reports []reportRec `json:"reports"`
	// CheckS is the duration of the Check/CheckAll call alone: the traced
	// wall the span coverage is measured against.
	CheckS float64 `json:"check_s"`
	// Counters are the C metrics of the layer table, read off the public
	// Result/BatchResult.
	Counters metrics `json:"counters"`
}

// exitIfChild turns a process started with childEnv set into one measured
// check; it returns only in the harness itself.
func exitIfChild() {
	spec := os.Getenv(childEnv)
	if spec == "" {
		return
	}
	if err := childMain(spec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// childMain runs one check described by the spec at specPath.
func childMain(specPath string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec childSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	fsms, err := selectFSMs(spec.FSMs)
	if err != nil {
		return err
	}
	sources := make([]string, len(spec.Inputs))
	for i, in := range spec.Inputs {
		src, err := os.ReadFile(in.Source)
		if err != nil {
			return err
		}
		sources[i] = string(src)
	}
	opts := grapple.Options{
		WorkDir:      spec.WorkDir,
		MemoryBudget: spec.MemoryBudget,
		Workers:      spec.W,
		Obs:          grapple.ObsOptions{TracePath: spec.TracePath},
	}
	var res childResult
	start := time.Now()
	if spec.Batch {
		subjects := make([]grapple.Subject, len(sources))
		for i, src := range sources {
			subjects[i] = grapple.Subject{Name: spec.Inputs[i].Name, Source: src}
		}
		opts.Workers = 1
		br, err := grapple.CheckAll(subjects, fsms, grapple.BatchOptions{Options: opts, BatchWorkers: spec.W})
		if err != nil {
			return err
		}
		res.CheckS = time.Since(start).Seconds()
		if failed := br.Failed(); len(failed) > 0 {
			return fmt.Errorf("instance %s/%s: %w", failed[0].Subject, failed[0].Group, failed[0].Err)
		}
		for _, r := range br.Reports {
			res.Reports = append(res.Reports, toRec(r.Subject, r.Report))
		}
		res.Counters = batchCounters(br)
	} else {
		if len(sources) != 1 {
			return fmt.Errorf("single check wants one source, got %d", len(sources))
		}
		r, err := grapple.Check(sources[0], fsms, opts)
		if err != nil {
			return err
		}
		res.CheckS = time.Since(start).Seconds()
		for _, rep := range r.Reports {
			res.Reports = append(res.Reports, toRec(spec.Inputs[0].Name, rep))
		}
		res.Counters = checkCounters(r)
	}
	sortReports(res.Reports)
	out, err := json.Marshal(&res)
	if err != nil {
		return err
	}
	return os.WriteFile(spec.OutPath, out, 0o644)
}

func selectFSMs(names []string) ([]*grapple.FSM, error) {
	all := grapple.BuiltinCheckers()
	if len(names) == 0 {
		return all, nil
	}
	var out []*grapple.FSM
	for _, n := range names {
		found := false
		for _, f := range all {
			if f.Name() == n {
				out = append(out, f)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("no built-in FSM named %q", n)
		}
	}
	return out, nil
}

func toRec(subject string, r grapple.Report) reportRec {
	return reportRec{
		Subject: subject, FSM: r.FSM, Type: r.Type, Kind: r.Kind.String(),
		Line: r.Pos.Line, Col: r.Pos.Col, Object: r.Object, States: r.States,
	}
}

func sortReports(rs []reportRec) {
	key := func(r reportRec) string {
		return fmt.Sprintf("%s|%08d|%08d|%s|%s|%s|%s|%v", r.Subject, r.Line, r.Col, r.FSM, r.Kind, r.Object, r.Type, r.States)
	}
	sort.SliceStable(rs, func(i, j int) bool { return key(rs[i]) < key(rs[j]) })
}

// phaseSum accumulates the engine/storage/smt counters of closure phases:
// two per check, two per instance of a batch.
type phaseSum struct {
	edgesBefore, edgesAfter, supersteps int64
	repartitions, solves, lookups, hits int64
	rejectedUnsat, rejectedConflict     int64
	solveTime                           time.Duration
	over100us                           int64
	partitions                          int
	io                                  grapple.IOStats
	slicedFuncs, prunedBranches, paths  int
	dfVertices, dfEdgesBefore           int64
}

func (s *phaseSum) addPhase(p grapple.PhaseStats) {
	s.edgesBefore += p.EdgesBefore
	s.edgesAfter += p.EdgesAfter
	s.supersteps += p.Iterations
	s.repartitions += p.Repartitions
	s.solves += p.ConstraintsSolved
	s.lookups += p.CacheLookups
	s.hits += p.CacheHits
	s.rejectedUnsat += p.RejectedUnsat
	s.rejectedConflict += p.RejectedConflict
	s.solveTime += p.SolveTime
	// SolveLatencyBuckets ends ..., <100µs, <500µs, <5ms, unbounded.
	bounds := grapple.SolveLatencyBuckets()
	for i, n := range p.SolveLatency {
		if i >= len(bounds) || bounds[i] > 100*time.Microsecond {
			s.over100us += n
		}
	}
	if p.Partitions > s.partitions {
		s.partitions = p.Partitions
	}
	s.io.Add(p.IO)
}

// addCheck adds one check's (or one batch instance's) two phases. The
// frontend counters are the same on both phases, so they come from one.
func (s *phaseSum) addCheck(alias, dataflow grapple.PhaseStats) {
	s.addPhase(alias)
	s.addPhase(dataflow)
	s.slicedFuncs += dataflow.SlicedFunctions
	s.prunedBranches += dataflow.PrunedBranches
	s.paths += dataflow.CFETPaths
	s.dfVertices += int64(dataflow.Vertices)
	s.dfEdgesBefore += dataflow.EdgesBefore
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

const mib = 1 << 20

func (s *phaseSum) counters() metrics {
	m := metrics{}
	induced := s.edgesAfter - s.edgesBefore
	candidates := s.lookups + s.rejectedConflict
	m.set("analysis.sliced_functions", float64(s.slicedFuncs), "count")
	m.set("analysis.pruned_branches", float64(s.prunedBranches), "count")
	m.set("cfet.paths", float64(s.paths), "count")
	m.set("pgraph.dataflow_vertices", float64(s.dfVertices), "count")
	m.set("pgraph.dataflow_edges_before", float64(s.dfEdgesBefore), "count")
	m.set("engine.supersteps", float64(s.supersteps), "count")
	m.set("engine.edges_after", float64(s.edgesAfter), "count")
	m.set("engine.induced_edges", float64(induced), "count")
	m.set("engine.candidates", float64(candidates), "count")
	m.set("engine.candidates_per_induced_edge", ratio(float64(candidates), float64(induced)), "ratio")
	m.set("engine.rejected_conflict", float64(s.rejectedConflict), "count")
	m.set("engine.rejected_unsat", float64(s.rejectedUnsat), "count")
	m.set("engine.partitions", float64(s.partitions), "count")
	m.set("engine.repartitions", float64(s.repartitions), "count")
	m.set("storage.read_mib", float64(s.io.BytesRead)/mib, "MiB")
	m.set("storage.written_mib", float64(s.io.BytesWritten)/mib, "MiB")
	m.set("storage.loads", float64(s.io.Loads), "count")
	m.set("storage.evictions", float64(s.io.Evictions), "count")
	m.set("storage.cache_hit_rate", ratio(float64(s.io.CacheHits), float64(s.io.CacheHits+s.io.Loads)), "ratio")
	m.set("storage.prefetch_hit_rate", ratio(float64(s.io.PrefetchHits), float64(s.io.Loads)), "ratio")
	m.set("smt.lookups", float64(s.lookups), "count")
	m.set("smt.cache_hit_rate", ratio(float64(s.hits), float64(s.lookups)), "ratio")
	m.set("smt.solves", float64(s.solves), "count")
	m.set("smt.solve_cpu_s", s.solveTime.Seconds(), "s")
	m.set("smt.solves_over_100us", float64(s.over100us), "count")
	return m
}

// checkCounters reads the C metrics off one Check result. The scheduler is
// not on this path, so its metrics are zero.
func checkCounters(r *grapple.Result) metrics {
	var s phaseSum
	s.addCheck(r.Alias, r.Dataflow)
	m := s.counters()
	m.set("pgraph.tracked_objects", float64(r.TrackedObjects), "count")
	m.set("engine.compute_pct", r.Breakdown.ComputePct, "%")
	m.set("storage.io_pct", r.Breakdown.IOPct, "%")
	m.set("smt.solve_pct", r.Breakdown.SolvePct, "%")
	m.set("smt.lookup_pct", r.Breakdown.DecodePct, "%")
	m.set("checker.gen_s", r.GenTime.Seconds(), "s")
	m.set("checker.compute_s", r.ComputeTime.Seconds(), "s")
	m.set("checker.reports", float64(len(r.Reports)), "count")
	m.zero("count", "scheduler.instances", "scheduler.prepares")
	m.zero("s", "scheduler.total_wait_s", "scheduler.total_run_s", "scheduler.max_run_s")
	m.zero("ratio", "scheduler.shared_cache_hit_rate")
	return m
}

// batchCounters reads the C metrics off a CheckAll result, summing over
// instances. BatchResult exposes no cost breakdown, generation/compute
// split or tracked-object count, so those read zero on batch workloads.
func batchCounters(br *grapple.BatchResult) metrics {
	var s phaseSum
	for _, in := range br.Instances {
		s.addCheck(in.Alias, in.Dataflow)
	}
	m := s.counters()
	m.zero("%", "engine.compute_pct", "storage.io_pct", "smt.solve_pct", "smt.lookup_pct")
	m.zero("count", "pgraph.tracked_objects")
	m.zero("s", "checker.gen_s", "checker.compute_s")
	m.set("checker.reports", float64(len(br.Reports)), "count")
	m.set("scheduler.instances", float64(len(br.Instances)), "count")
	m.set("scheduler.prepares", float64(br.FrontendPrepares), "count")
	m.set("scheduler.total_wait_s", br.Scheduler.TotalWait.Seconds(), "s")
	m.set("scheduler.total_run_s", br.Scheduler.TotalRun.Seconds(), "s")
	m.set("scheduler.max_run_s", br.Scheduler.MaxRun.Seconds(), "s")
	m.set("scheduler.shared_cache_hit_rate", br.CacheHitRate, "ratio")
	return m
}
