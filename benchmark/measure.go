package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// probeWorkload is the workload whose kept WorkDir the probes harvest: one
// partition per phase, so the partition files are the closed graph.
const probeWorkload = "closure-inmem"

// probeMinEdges is the least harvest the probes accept outside smoke mode.
const probeMinEdges = 10_000

func newRunner(cfg *config, w workloadDef, inputs []inputFile) *runner {
	return &runner{
		w: w, inputs: inputs, self: cfg.self, width: cfg.width,
		dir:         filepath.Join(cfg.scratch, "runs", w.Name),
		traces:      cfg.traces,
		checkTable2: w.Paper && cfg.seed == 0,
		pin:         pinFor(cfg, w.Name),
		rec:         cfg.rec,
		host:        cfg.host,
	}
}

// runSet is the measured runs of one workload on one seed.
type runSet struct {
	workload  string
	runs      []*runOutcome
	attempted int
	failed    int
	// problems says why runs failed or were incorrect, for the log.
	problems []string
}

// ok reports whether every attempted run finished, agreed with the first on
// the report hash, and scored no verdict error.
func (s *runSet) ok() bool { return s.failed == 0 && len(s.problems) == 0 && len(s.runs) > 0 }

func (s *runSet) verdictErrors() int {
	n := 0
	for _, r := range s.runs {
		n += r.Verdict.Errors + len(r.Verdict.Table2Mismatch)
	}
	return n
}

// add runs one more check, holds it to the oracle, the first run's hash and
// the pins, and keeps it.
func (s *runSet) add(r *runner) {
	s.attempted++
	oc, _, err := r.run(runOpts{})
	if err != nil {
		s.failed++
		s.problems = append(s.problems, err.Error())
		return
	}
	if len(s.runs) > 0 && oc.Hash != s.runs[0].Hash {
		s.failed++
		s.problems = append(s.problems, fmt.Sprintf("report stream hash %s differs from the first run's %s", oc.Hash, s.runs[0].Hash))
		return
	}
	if oc.Verdict.Errors > 0 {
		s.problems = append(s.problems, fmt.Sprintf("%d verdict errors (missed seeds + reports matching no seed)", oc.Verdict.Errors))
	}
	s.problems = append(s.problems, oc.Verdict.Table2Mismatch...)
	if len(s.runs) == 0 {
		s.problems = append(s.problems, r.pin.mismatch(oc)...)
	}
	s.runs = append(s.runs, oc)
}

// minRuns is the least number of checks a set of runs rests on.
const minRuns = 3

// measureRounds is the load loop of every mode: a closed loop, one check at
// a time, one check of each runner per round, so that drift over the session
// hits all workloads alike. It goes on while more says so.
func measureRounds(rs []*runner, more func(round int, sets []*runSet) bool) []*runSet {
	sets := make([]*runSet, len(rs))
	for i, r := range rs {
		sets[i] = &runSet{workload: r.w.Name}
	}
	for round := 0; more(round, sets); round++ {
		for i, r := range rs {
			sets[i].add(r)
		}
	}
	return sets
}

// forRounds stops measureRounds after n rounds: the full mode.
func forRounds(n int) func(int, []*runSet) bool {
	return func(round int, _ []*runSet) bool { return round < n }
}

// forWindow lets measureRounds measure its one workload for the given
// window, and at least minRuns checks of it: a driver run. A further check
// starts only if the mean cost so far of a check with its host-probe sample
// says it will end inside the window.
func forWindow(seconds float64) func(int, []*runSet) bool {
	start := time.Now()
	return func(_ int, sets []*runSet) bool {
		s := sets[0]
		if len(s.runs) < minRuns {
			return s.failed < minRuns
		}
		elapsed := time.Since(start).Seconds()
		return elapsed+elapsed/float64(s.attempted) <= seconds
	}
}

// sample returns one end-to-end metric's values over the set's runs.
func (s *runSet) sample(name string) sample {
	var out sample
	for _, r := range s.runs {
		out = append(out, r.endToEnd()[name].Value)
	}
	return out
}

// timed returns the runs' wall seconds as timed and the host's slowdown
// around each: what wall_s at reference speed is the quotient of.
func (s *runSet) timed() (wall, slowdown sample) {
	for _, r := range s.runs {
		wall = append(wall, r.WallS)
		slowdown = append(slowdown, r.Slowdown)
	}
	return wall, slowdown
}

// medians returns the median of every end-to-end metric over the runs.
func (s *runSet) medians() metrics {
	m := metrics{}
	if len(s.runs) == 0 {
		return m
	}
	for name, first := range s.runs[0].endToEnd() {
		m.set(name, median(s.sample(name)), first.Unit)
	}
	return m
}

// counterMedians returns the median of every counter over the runs, and the
// names of the counters that moved between runs although they are exact
// counts (smt.solves and its hit rate race on the shared cache and may).
func (s *runSet) counterMedians() (metrics, []string) {
	m := metrics{}
	var moved []string
	if len(s.runs) == 0 {
		return m, nil
	}
	for _, name := range s.runs[0].Counters.names() {
		first := s.runs[0].Counters[name]
		var vals sample
		for _, r := range s.runs {
			vals = append(vals, r.Counters[name].Value)
		}
		m.set(name, median(vals), first.Unit)
		exact := first.Unit == "count" && name != "smt.solves" && name != "smt.solves_over_100us"
		if exact && slices.Min(vals) != slices.Max(vals) {
			moved = append(moved, name)
		}
	}
	return m, moved
}

// report logs the set's health.
func (s *runSet) report(w io.Writer) {
	wall, slowdown := s.timed()
	fmt.Fprintf(w, "%s: %d runs attempted, %d failed, %d verdict errors; wall_s %.3f = as timed %.3f / host slowdown %.3f\n",
		s.workload, s.attempted, s.failed, s.verdictErrors(), []float64(s.sample("wall_s")), []float64(wall), []float64(slowdown))
	for _, p := range s.problems {
		fmt.Fprintf(w, "  %s: %s\n", s.workload, p)
	}
	if _, moved := s.counterMedians(); len(moved) > 0 {
		fmt.Fprintf(w, "  %s: exact counts moved between runs: %v\n", s.workload, moved)
	}
}

// layerMetrics makes the workload's one traced run and returns its per-layer
// metrics except the probes: counters (C) as medians over the untraced runs
// of base, span times (T) from the trace file and staged frontend calls (O).
// The traced run of probeWorkload keeps its WorkDir for the probes and
// returns its path.
func layerMetrics(cfg *config, r *runner, base *runSet) (m metrics, workDir string, err error) {
	m, _ = base.counterMedians()
	e2e := base.medians()
	wallS := e2e["wall_s"].Value

	tracedRun, art, err := r.run(runOpts{trace: true, keepWorkDir: r.w.Name == probeWorkload})
	if err != nil {
		return nil, "", err
	}
	if tracedRun.Hash != base.runs[0].Hash {
		return nil, "", fmt.Errorf("%s: tracing changed the report stream", r.w.Name)
	}
	sum, err := readTrace(art.tracePath)
	if err != nil {
		return nil, "", err
	}
	lanes := 1
	if r.w.Batch {
		lanes = r.width
	}
	tm := traceMetrics(sum, tracedRun.CheckS, lanes)
	printLayerSelfTimes(os.Stderr, r.w.Name, sum, tracedRun.CheckS*float64(lanes))
	if un := tm["trace.unattributed_pct"].Value; un > 5 && strings.HasPrefix(r.w.Name, "closure-") && !cfg.smoke {
		return nil, "", fmt.Errorf("%s: named spans cover only %.1f%% of the traced check, want at least 95%%", r.w.Name, 100-un)
	}
	m.merge(tm)
	m.set("trace.overhead_pct", 100*ratio(tracedRun.endToEnd()["wall_s"].Value-wallS, wallS), "%")
	closureNs := 1e9 * (tm["engine.alias_closure_s"].Value + tm["engine.dataflow_closure_s"].Value)
	m.set("engine.ns_per_induced_edge", ratio(closureNs, tracedRun.Counters["engine.induced_edges"].Value), "ns")
	m.set("engine.cpu_parallelism", ratio(e2e["cpu_s"].Value, wallS), "ratio")
	// total_run_s is as timed, so it is held against wall seconds as timed.
	timedWall, slowdown := base.timed()
	m.set("scheduler.utilisation", ratio(m["scheduler.total_run_s"].Value, float64(r.width)*median(timedWall)), "ratio")
	m.set("harness.timed_wall_s", median(timedWall), "s")
	m.set("harness.host_slowdown", median(slowdown), "ratio")

	sp := cfg.rec.Start(0, "harness", "staged-frontend")
	sm, err := stagedMetrics(r.inputs)
	sp.End(nil)
	if err != nil {
		return nil, "", err
	}
	m.merge(sm)
	return m, art.workDir, nil
}

// probes runs the P probes over the WorkDir a probeWorkload check kept; with
// no such WorkDir yet it runs that check first.
func probes(cfg *config, inmem *runner, workDir string) (metrics, error) {
	if workDir == "" {
		_, art, err := inmem.run(runOpts{keepWorkDir: true})
		if err != nil {
			return nil, err
		}
		workDir = art.workDir
	}
	src, err := os.ReadFile(inmem.inputs[0].Source)
	if err != nil {
		return nil, err
	}
	fsms, err := selectFSMs(inmem.w.FSMs)
	if err != nil {
		return nil, err
	}
	minEdges := probeMinEdges
	if cfg.smoke {
		minEdges = 100
	}
	sp := cfg.rec.Start(0, "harness", "probe")
	defer sp.End(nil)
	return probeMetrics(string(src), fsms, workDir, cfg.scratch, minEdges)
}

// printLayerSelfTimes prints the traced run's span decomposition: self time
// per layer, and what no named span covers.
func printLayerSelfTimes(w io.Writer, name string, sum *traceSummary, available float64) {
	fmt.Fprintf(w, "%s: span self time by layer (of %.3f s traced)\n", name, available)
	var layers []string
	for l := range sum.selfByLayer {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(w, "  %-12s %9.3f s %5.1f %%\n", l, sum.selfByLayer[l], 100*ratio(sum.selfByLayer[l], available))
	}
	un := available - sum.covered
	fmt.Fprintf(w, "  %-12s %9.3f s %5.1f %%\n", "unattributed", un, 100*ratio(un, available))
}
