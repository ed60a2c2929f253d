// Command benchmark is the repository's time-to-verdict benchmark: five
// workloads run through the public API, each measured check in a fresh child
// process, every run scored against the generator's seeded ground truth.
// README.md in this directory says why each workload exists and which
// end-to-end metric each per-layer metric should move.
//
//	go run ./benchmark                 every workload, end to end and per layer
//	go run ./benchmark -selfcheck      two sets of runs of one binary must agree
//	go run ./benchmark -compare A B    diff two result files written with -out
//	bash benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
//	                                   one driver run (BENCHMARK.json's command)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"github.com/grapple-system/grapple/internal/trace"
)

// config is one harness invocation's settings.
type config struct {
	seed    int64
	self    string // this binary: every measured check re-executes it
	scratch string // inputs, WorkDirs and set-up builds; removed on exit
	traces  string // the traced runs' span files and the harness's own; kept
	smoke   bool   // mini subjects: the smoke test's mode
	width   int    // W
	// rec records the harness's own stages as spans next to the program's
	// trace files.
	rec *trace.Recorder
	// host is the control every time metric is scaled by (hostprobe.go).
	host *hostProbe
}

func (c *config) workloads() []workloadDef {
	if c.smoke {
		return smokeWorkloads()
	}
	return workloads()
}

func main() {
	exitIfChild()
	os.Exit(harnessMain(os.Args[1:], os.Stdout))
}

// harnessMain parses flags, runs the selected mode with its results going to
// stdout, and returns the exit code.
func harnessMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "driver mode: run this one workload and print one JSON result line")
		seed         = fs.Int64("seed", 0, "draws a seeded function-order variant of the fixed corpus; 0 is the corpus as generated")
		seconds      = fs.Float64("seconds", 20, "driver mode: how long the closed loop of checks measures")
		traced       = fs.Int("trace", 0, "driver mode: 0 prints the end-to-end metrics, 1 the per-layer metrics of one traced run")
		rounds       = fs.Int("n", 5, "full mode: measured runs per workload (never below 3)")
		selfcheck    = fs.Bool("selfcheck", false, "run two complete sets of runs and require every end-to-end metric to agree within its bound")
		compare      = fs.Bool("compare", false, "compare the two result files given as arguments")
		out          = fs.String("out", "", "full mode: write the result file here")
		smoke        = fs.Bool("smoke", false, "swap every workload's subjects for workload.MiniProfile()")
		scratch      = fs.String("scratch", ".bench_build/scratch", "scratch directory for builds, inputs and WorkDirs; the trace files stay in its traces subdirectory")
		specPath     = fs.String("spec", "BENCHMARK.json", "the benchmark contract: metric names, units and bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare wants two result files")
			return 2
		}
		return fail(compareFiles(stdout, *specPath, fs.Arg(0), fs.Arg(1)))
	}
	if *rounds < minRuns && !*smoke {
		fmt.Fprintln(os.Stderr, "benchmark: -n must be at least", minRuns)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	cfg := &config{seed: *seed, self: self, smoke: *smoke, width: loadWidth()}
	// One subdirectory per invocation for the bulky files, removed on exit.
	// The trace files are small and have fixed names, so the last
	// invocation's stay for reading and never pile up.
	cfg.scratch = filepath.Join(*scratch, strconv.Itoa(os.Getpid()))
	cfg.traces = filepath.Join(*scratch, "traces")
	for _, dir := range []string{cfg.scratch, cfg.traces} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fail(err)
		}
	}
	defer os.RemoveAll(cfg.scratch)
	rec, err := trace.Open(filepath.Join(cfg.traces, "harness.trace.json"))
	if err != nil {
		return fail(err)
	}
	cfg.rec = rec
	defer rec.Close()
	cfg.host = newHostProbe(cfg.width, cfg.smoke)

	switch {
	case *workloadName != "":
		return fail(driverRun(cfg, stdout, *workloadName, *seconds, *traced == 1))
	case *selfcheck:
		return fail(selfCheck(cfg, stdout, *specPath, *rounds))
	default:
		return fail(fullRun(cfg, stdout, *rounds, *out))
	}
}

// errIncorrect marks a run whose results were printed but must not pass:
// verdict errors, failed runs, or metrics that did not agree.
var errIncorrect = fmt.Errorf("benchmark: results are not acceptable")

func fail(err error) int {
	if err == nil {
		return 0
	}
	if err != errIncorrect {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	return 1
}

// driverResult is the one JSON line a driver run ends with.
type driverResult struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// driverRun is one run as BENCHMARK.json's command makes it: set up, then
// either a closed loop of untraced checks for the end-to-end metrics or one
// traced check plus probes for the per-layer metrics.
func driverRun(cfg *config, stdout io.Writer, name string, seconds float64, traced bool) error {
	w, ok := findWorkload(cfg.workloads(), name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	ws := []workloadDef{w}
	inmem, _ := findWorkload(cfg.workloads(), probeWorkload)
	if traced && w.Name != probeWorkload {
		ws = append(ws, inmem) // the probes harvest from it
	}
	reps := setupReps
	if traced {
		reps = 1 // set-up time belongs to the end-to-end metrics
	}
	inputs, setupTimes, err := setUp(cfg, ws, reps)
	if err != nil {
		return err
	}
	r := newRunner(cfg, w, inputs[w.Name])
	res := driverResult{Metrics: metrics{}}
	var set *runSet
	if traced {
		set = measureRounds([]*runner{r}, forRounds(minRuns))[0]
		if set.ok() {
			lm, workDir, err := layerMetrics(cfg, r, set)
			if err != nil {
				return err
			}
			pm, err := probes(cfg, newRunner(cfg, inmem, inputs[probeWorkload]), workDir)
			if err != nil {
				return err
			}
			lm.merge(pm)
			res.Metrics = lm
		}
	} else {
		set = measureRounds([]*runner{r}, forWindow(seconds))[0]
		res.Metrics = set.medians()
		res.Metrics.set("setup_s", median(setupTimes), "s")
	}
	set.report(os.Stderr)
	res.Correct, res.Attempted, res.Failed = set.ok(), set.attempted, set.failed
	line, err := json.Marshal(&res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !set.ok() {
		return errIncorrect
	}
	return nil
}
