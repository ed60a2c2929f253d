package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"slices"
	"strings"

	"github.com/grapple-system/grapple/internal/workload"
)

// hostRecord says where a result was measured. Two results are comparable
// only on the same host record: no parallel speed-up is read off different
// core counts, no wall time off different CPUs or Go versions.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	W          int    `json:"w"`
	GOMAXPROCS int    `json:"gomaxprocs"` // of every measured child
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func thisHost(width int) hostRecord {
	h := hostRecord{NProc: runtime.NumCPU(), W: width, GOMAXPROCS: width, GoVersion: runtime.Version(), CPUModel: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// commit names the checked-out commit; the driver's checkouts are not git
// repositories, so "unknown" is a normal answer.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// e2eSample is one end-to-end metric of one workload over a set of runs.
type e2eSample struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Values sample  `json:"values"`
}

// workloadResult is one workload's rows of a result file.
type workloadResult struct {
	EndToEnd      map[string]e2eSample                  `json:"end_to_end"`
	PerLayer      metrics                               `json:"per_layer,omitempty"`
	VerdictErrors int                                   `json:"verdict_errors"`
	FailedRuns    int                                   `json:"failed_runs"`
	Runs          int                                   `json:"runs"`
	Hash          string                                `json:"hash"`
	Tally         map[string]map[string]workload.Counts `json:"tally"`
	MovedCounts   []string                              `json:"moved_counts,omitempty"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Host      hostRecord                `json:"host"`
	Commit    string                    `json:"commit"`
	Seed      int64                     `json:"seed"`
	SetupS    e2eSample                 `json:"setup_s"`
	Workloads map[string]workloadResult `json:"workloads"`
}

func summarize(vals sample, unit string) e2eSample {
	return e2eSample{Unit: unit, Median: median(vals), Min: slices.Min(vals), Max: slices.Max(vals), N: len(vals), Values: vals}
}

// measureAll sets up once (the median of setupReps set-ups) and runs every
// workload n times, round-robin.
func measureAll(cfg *config, n int) (*resultFile, map[string]*runner, map[string]*runSet, error) {
	ws := cfg.workloads()
	reps := setupReps
	if cfg.smoke {
		reps = 1
	}
	inputs, setupTimes, err := setUp(cfg, ws, reps)
	if err != nil {
		return nil, nil, nil, err
	}
	rs := make([]*runner, len(ws))
	for i, w := range ws {
		rs[i] = newRunner(cfg, w, inputs[w.Name])
	}
	runners := map[string]*runner{}
	sets := map[string]*runSet{}
	for i, s := range measureRounds(rs, forRounds(n)) {
		runners[s.workload], sets[s.workload] = rs[i], s
	}
	res := &resultFile{
		Host: thisHost(cfg.width), Commit: commit(), Seed: cfg.seed,
		SetupS:    summarize(setupTimes, "s"),
		Workloads: map[string]workloadResult{},
	}
	for _, w := range ws {
		s := sets[w.Name]
		wr := workloadResult{
			EndToEnd: map[string]e2eSample{}, VerdictErrors: s.verdictErrors(),
			FailedRuns: s.failed, Runs: s.attempted,
		}
		if len(s.runs) > 0 {
			wr.Hash, wr.Tally = s.runs[0].Hash, s.runs[0].Verdict.Tally
			for name, first := range s.runs[0].endToEnd() {
				wr.EndToEnd[name] = summarize(s.sample(name), first.Unit)
			}
			_, wr.MovedCounts = s.counterMedians()
		}
		res.Workloads[w.Name] = wr
	}
	return res, runners, sets, nil
}

// fullRun is `go run ./benchmark`: every workload end to end, then one
// traced run per workload and the probes for the per-layer metrics.
func fullRun(cfg *config, stdout io.Writer, n int, out string) error {
	res, runners, sets, err := measureAll(cfg, n)
	if err != nil {
		return err
	}
	good := true
	var probeDir string
	for _, w := range cfg.workloads() {
		s := sets[w.Name]
		s.report(os.Stderr)
		if !s.ok() {
			good = false
			continue
		}
		lm, workDir, err := layerMetrics(cfg, runners[w.Name], s)
		if err != nil {
			return err
		}
		if workDir != "" {
			probeDir = workDir
		}
		wr := res.Workloads[w.Name]
		wr.PerLayer = lm
		res.Workloads[w.Name] = wr
	}
	if good {
		pm, err := probes(cfg, runners[probeWorkload], probeDir)
		if err != nil {
			return err
		}
		for _, wr := range res.Workloads {
			wr.PerLayer.merge(pm)
		}
	}
	printResult(stdout, cfg, res)
	if out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !good {
		return errIncorrect
	}
	return nil
}

// printResult prints every metric by name and unit, one workload at a time.
func printResult(w io.Writer, cfg *config, res *resultFile) {
	h := res.Host
	fmt.Fprintf(w, "host: nproc=%d W=%d GOMAXPROCS=%d %s %q commit=%s seed=%d\n",
		h.NProc, h.W, h.GOMAXPROCS, h.GoVersion, h.CPUModel, res.Commit, res.Seed)
	fmt.Fprintf(w, "setup_s %.4f s (median of %d set-ups)\n", res.SetupS.Median, res.SetupS.N)
	for _, wd := range cfg.workloads() {
		wr := res.Workloads[wd.Name]
		fmt.Fprintf(w, "\n== %s  (hash %s)\n", wd.Name, wr.Hash)
		fmt.Fprintf(w, "  %-40s %14s %14s %14s %3s %s\n", "end-to-end", "median", "min", "max", "n", "unit")
		for _, name := range []string{"wall_s", "cpu_s", "peak_rss_mib", "edges_per_s"} {
			e := wr.EndToEnd[name]
			fmt.Fprintf(w, "  %-40s %14.6g %14.6g %14.6g %3d %s\n", name, e.Median, e.Min, e.Max, e.N, e.Unit)
		}
		fmt.Fprintf(w, "  %-40s %14d %14s %14s %3d count\n", "verdict_errors", wr.VerdictErrors, "", "", wr.Runs)
		fmt.Fprintf(w, "  %-40s %14d %14s %14s %3d count\n", "failed_runs", wr.FailedRuns, "", "", wr.Runs)
		if len(wr.MovedCounts) > 0 {
			fmt.Fprintf(w, "  exact counts that moved between runs: %v\n", wr.MovedCounts)
		}
		if len(wr.PerLayer) > 0 {
			fmt.Fprintf(w, "  per-layer (one traced run; counters are medians of the untraced runs)\n")
			printMetrics(w, "  ", wr.PerLayer)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the comparer needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// compareSamples rules on one metric of one workload: "unresolved" when
// either side's interquartile spread is wider than the bound (the data
// cannot tell), "regressed" when b's median is worse than a's by more than
// the bound, else "agree". setup_s is held to its medians only, as the
// driver holds it: a set has three set-ups, too few for quartiles.
func compareSamples(a, b sample, ms metricSpec) (verdict string, detail string) {
	spread := func(s sample) float64 {
		q1, q3 := quartiles(s)
		return ratio(q3-q1, median(s))
	}
	ma, mb := median(a), median(b)
	worse := ratio(mb-ma, ma)
	if ms.Better == "higher" {
		worse = -worse
	}
	sa, sb := spread(a), spread(b)
	detail = fmt.Sprintf("median %.6g -> %.6g (%+.1f%% worse, bound %.0f%%, spread %.1f%% / %.1f%%)",
		ma, mb, 100*worse, 100*ms.Bound, 100*sa, 100*sb)
	switch {
	case ms.Name != "setup_s" && (sa > ms.Bound || sb > ms.Bound):
		return "unresolved", detail
	case worse > ms.Bound:
		return "regressed", detail
	}
	return "agree", detail
}

// compareResults prints a verdict per end-to-end metric × workload and
// reports whether all agree.
func compareResults(w io.Writer, spec *benchmarkSpec, a, b *resultFile) bool {
	all := true
	row := func(workload, name, verdict, detail string) {
		fmt.Fprintf(w, "%-14s %-16s %-10s %s\n", workload, name, verdict, detail)
		if verdict != "agree" {
			all = false
		}
	}
	for _, ms := range spec.EndToEnd {
		if ms.Name == "setup_s" {
			v, d := compareSamples(a.SetupS.Values, b.SetupS.Values, ms)
			row("(all)", ms.Name, v, d)
			continue
		}
		for _, wl := range spec.Workloads {
			wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
			v, d := compareSamples(wa.EndToEnd[ms.Name].Values, wb.EndToEnd[ms.Name].Values, ms)
			row(wl.Name, ms.Name, v, d)
		}
	}
	for _, wl := range spec.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		for _, c := range []struct {
			name string
			a, b int
		}{{"verdict_errors", wa.VerdictErrors, wb.VerdictErrors}, {"failed_runs", wa.FailedRuns, wb.FailedRuns}} {
			v := "agree"
			if c.a != 0 || c.b != 0 {
				v = "regressed"
			}
			row(wl.Name, c.name, v, fmt.Sprintf("%d -> %d (must be 0)", c.a, c.b))
		}
		if wa.Hash != wb.Hash {
			row(wl.Name, "hash", "regressed", wa.Hash+" -> "+wb.Hash)
		}
	}
	return all
}

// compareFiles diffs two result files; it refuses results from different
// hosts or seeds.
func compareFiles(stdout io.Writer, specPath, pathA, pathB string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	var files [2]resultFile
	for i, p := range []string{pathA, pathB} {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if files[0].Host != files[1].Host {
		return fmt.Errorf("refusing to compare: host records differ: %+v vs %+v", files[0].Host, files[1].Host)
	}
	if files[0].Seed != files[1].Seed {
		return fmt.Errorf("refusing to compare: seeds differ: %d vs %d", files[0].Seed, files[1].Seed)
	}
	if !compareResults(stdout, spec, &files[0], &files[1]) {
		return errIncorrect
	}
	return nil
}

// selfCheck makes two complete sets of runs of the same binary and requires
// every end-to-end metric × workload to agree within its bound: what the
// benchmark cannot resolve against itself it cannot resolve between commits.
func selfCheck(cfg *config, stdout io.Writer, specPath string, n int) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	var sets [2]*resultFile
	for i := range sets {
		res, _, runSets, err := measureAll(cfg, n)
		if err != nil {
			return err
		}
		for _, s := range runSets {
			s.report(os.Stderr)
		}
		sets[i] = res
	}
	if !compareResults(stdout, spec, sets[0], sets[1]) {
		return errIncorrect
	}
	return nil
}

// pin is what the default seed must reproduce for one workload: the report
// stream hash and the TP/FP/FN tally.
type pin struct {
	Hash  string                                `json:"hash"`
	Tally map[string]map[string]workload.Counts `json:"tally"`
}

//go:embed pins.json
var pinsJSON []byte

// pinFor returns the workload's pin; nil off the default seed and in smoke
// mode, where only verdict errors and hash agreement are required.
func pinFor(cfg *config, name string) *pin {
	if cfg.seed != 0 || cfg.smoke {
		return nil
	}
	var pins map[string]*pin
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		panic("benchmark: pins.json: " + err.Error())
	}
	return pins[name]
}

// mismatch lists how a run departs from the pin; nil pins accept anything.
func (p *pin) mismatch(oc *runOutcome) []string {
	if p == nil {
		return nil
	}
	var out []string
	if oc.Hash != p.Hash {
		out = append(out, fmt.Sprintf("report stream hash %s, pinned %s", oc.Hash, p.Hash))
	}
	if !reflect.DeepEqual(oc.Verdict.Tally, p.Tally) {
		out = append(out, fmt.Sprintf("tally %v, pinned %v", oc.Verdict.Tally, p.Tally))
	}
	return out
}
