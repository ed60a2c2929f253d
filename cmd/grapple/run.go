package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	grapple "github.com/grapple-system/grapple"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

// checkFlags is the flag set `grapple run` and `grapple batch` share, lowered
// onto grapple.Options in one place.
type checkFlags struct {
	fsmFiles                multiFlag
	workDir                 string
	mem                     int64
	unroll                  int
	jsonOut, stats, verbose bool
	journal, resume         bool
	tracePath, pprofAddr    string
	progress                time.Duration
}

func (c *checkFlags) register(fs *flag.FlagSet) {
	fs.Var(&c.fsmFiles, "fsm", "FSM specification file (repeatable)")
	fs.StringVar(&c.workDir, "workdir", "", "partition directory (temporary if empty)")
	fs.Int64Var(&c.mem, "mem", 0, "engine memory budget in bytes (per instance under batch)")
	fs.IntVar(&c.unroll, "unroll", 0, "static loop unroll depth")
	fs.BoolVar(&c.jsonOut, "json", false, "emit reports as JSON lines")
	fs.BoolVar(&c.stats, "stats", false, "print statistics (stderr)")
	fs.BoolVar(&c.verbose, "v", false, "verbose reports")
	fs.BoolVar(&c.journal, "journal", false, "checkpoint to -workdir (engine state after every superstep; under batch, each finished instance) for crash recovery")
	fs.BoolVar(&c.resume, "resume", false, "continue a previous -journal run from -workdir (implies -journal)")
	fs.StringVar(&c.tracePath, "trace", "", "write a Chrome trace-event JSON file here (plus <file>.events.jsonl) covering every pipeline phase")
	fs.DurationVar(&c.progress, "progress", 0, "emit a one-line heartbeat to stderr at this interval (and rewrite status.json under -workdir)")
	fs.StringVar(&c.pprofAddr, "pprof", "", "serve net/http/pprof and live progress counters on this address (e.g. localhost:6060)")
}

func (c *checkFlags) validate() error {
	if (c.journal || c.resume) && c.workDir == "" {
		return fmt.Errorf("-journal/-resume require -workdir (the journal lives there)")
	}
	return nil
}

// options lowers the shared flags; the subcommands set what only they offer.
func (c *checkFlags) options(stderr io.Writer) grapple.Options {
	return grapple.Options{
		WorkDir:      c.workDir,
		MemoryBudget: c.mem,
		UnrollDepth:  c.unroll,
		Journal:      c.journal,
		Resume:       c.resume,
		Obs: grapple.ObsOptions{
			TracePath:      c.tracePath,
			Progress:       c.progress,
			ProgressWriter: stderr,
			PprofAddr:      c.pprofAddr,
		},
	}
}

// fsms loads the -fsm specifications, or the built-in checkers without any.
func (c *checkFlags) fsms() ([]*grapple.FSM, error) {
	if len(c.fsmFiles) == 0 {
		return grapple.BuiltinCheckers(), nil
	}
	var fsms []*grapple.FSM
	for _, path := range c.fsmFiles {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		parsed, err := grapple.ParseFSMs(string(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		fsms = append(fsms, parsed...)
	}
	return fsms, nil
}

// jsonReport is the machine-readable warning format (-json).
type jsonReport struct {
	File              string   `json:"file"`
	Line              int      `json:"line"`
	Col               int      `json:"col"`
	FSM               string   `json:"fsm"`
	Kind              string   `json:"kind"`
	Type              string   `json:"type"`
	States            []string `json:"states"`
	Object            string   `json:"object,omitempty"`
	Witness           string   `json:"witness,omitempty"`
	WitnessConstraint string   `json:"witnessConstraint,omitempty"`
}

// loadSources concatenates MiniLang files into one compilation unit and
// returns a locator mapping combined line numbers back to (file, line).
func loadSources(paths []string) (string, func(int) (string, int), error) {
	type fileSpan struct {
		name      string
		startLine int // 1-based first line in the combined unit
		lines     int
	}
	var spans []fileSpan
	var combined strings.Builder
	lineCount := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return "", nil, err
		}
		text := string(data)
		if !strings.HasSuffix(text, "\n") {
			text += "\n"
		}
		n := strings.Count(text, "\n")
		spans = append(spans, fileSpan{name: path, startLine: lineCount + 1, lines: n})
		combined.WriteString(text)
		lineCount += n
	}
	locate := func(line int) (string, int) {
		for i := len(spans) - 1; i >= 0; i-- {
			if line >= spans[i].startLine {
				return spans[i].name, line - spans[i].startLine + 1
			}
		}
		return paths[0], line
	}
	return combined.String(), locate, nil
}

// run is the testable CLI core; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) (int, error) {
	if len(args) > 0 && args[0] == "lint" {
		return runLint(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "batch" {
		return runBatch(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "run" {
		// `grapple run` is an explicit alias of the default mode.
		args = args[1:]
	}
	fs := flag.NewFlagSet("grapple", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cf checkFlags
	cf.register(fs)
	var packNames multiFlag
	fs.Var(&packNames, "pack", "property pack for Go input (repeatable; see -packs)")
	listPacks := fs.Bool("packs", false, "list the built-in property packs and exit")
	query := fs.String("query", "", "points-to query 'method.variable' (e.g. main.w)")
	dotDir := fs.String("dot", "", "write program graphs as Graphviz files into this directory")
	if err := fs.Parse(args); err != nil {
		return 2, nil // flag package already printed the error
	}
	if err := cf.validate(); err != nil {
		return 2, err
	}
	if *listPacks {
		for _, p := range grapple.Packs() {
			fmt.Fprintf(stdout, "%-18s %s (tracks %s, fsm %s)\n", p.Name, p.Doc, p.Type, p.FSMName)
		}
		return 0, nil
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: grapple [run] [flags] program.ml [more.ml ...]")
		fmt.Fprintln(stderr, "       grapple [run] [flags] -pack name ./gopkg | file.go ...")
		fmt.Fprintln(stderr, "       grapple lint [flags] program.ml [more.ml ...]")
		fs.PrintDefaults()
		return 2, nil
	}

	opts := cf.options(stderr)
	opts.DumpDOT = *dotDir
	if goArgs(fs.Args()) {
		return runGo(fs.Args(), packNames, opts, &cf, stdout, stderr)
	}
	if len(packNames) > 0 {
		return 2, fmt.Errorf("-pack selects property packs for Go input (.go files or a package directory); got MiniLang sources")
	}
	fsms, err := cf.fsms()
	if err != nil {
		return 2, err
	}

	// Line numbers are reported against the combined unit; locate maps back.
	combined, locate, err := loadSources(fs.Args())
	if err != nil {
		return 2, err
	}
	opts.RecordPointsTo = *query != ""
	res, err := grapple.Check(combined, fsms, opts)
	if err != nil {
		return 2, err
	}

	if *query != "" {
		dot := strings.LastIndex(*query, ".")
		if dot <= 0 || dot == len(*query)-1 {
			return 2, fmt.Errorf("bad -query %q: want method.variable", *query)
		}
		method, varName := (*query)[:dot], (*query)[dot+1:]
		facts := res.QueryPointsTo(method, varName)
		if len(facts) == 0 {
			fmt.Fprintf(stdout, "%s.%s points to nothing\n", method, varName)
		}
		seen := map[string]bool{}
		for _, f := range facts {
			file, line := locate(f.ObjPos.Line)
			cond := ""
			if f.Conditional {
				cond = " under " + f.Constraint
			}
			key := fmt.Sprintf("%s.%s (clone %d) -> %s allocated at %s:%d%s",
				method, varName, f.Ctx, f.ObjType, file, line, cond)
			if seen[key] {
				continue
			}
			seen[key] = true
			fmt.Fprintln(stdout, key)
		}
	}

	return cf.emit(stdout, stderr, res, locate), nil
}

// emit prints the reports and, under -stats, the statistics, and returns the
// exit code: 1 with reports, 0 without.
func (c *checkFlags) emit(stdout, stderr io.Writer, res *grapple.Result, locate func(int) (string, int)) int {
	emitReports(stdout, res.Reports, locate, c.jsonOut, c.verbose)
	// Statistics go to stderr so they never corrupt piped report streams;
	// -stats -json makes them one machine-readable object.
	switch {
	case c.stats && c.jsonOut:
		emitStatsJSON(stderr, res)
	case c.stats:
		emitStats(stderr, res)
	}
	if len(res.Reports) > 0 {
		return 1
	}
	return 0
}

// emitReports prints warnings, mapping combined-unit lines through locate.
func emitReports(stdout io.Writer, reports []grapple.Report, locate func(int) (string, int), jsonOut, verbose bool) {
	for _, r := range reports {
		file, line := locate(r.Pos.Line)
		if jsonOut {
			out, _ := json.Marshal(jsonReport{
				File: file, Line: line, Col: r.Pos.Col,
				FSM: r.FSM, Kind: r.Kind.String(), Type: r.Type,
				States: r.States, Object: r.Object,
				Witness: r.Witness, WitnessConstraint: r.WitnessConstraint,
			})
			fmt.Fprintln(stdout, string(out))
			continue
		}
		fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s: %s object may exit in state(s) %s\n",
			file, line, r.Pos.Col, r.FSM, r.Kind, r.Type,
			strings.Join(r.States, ","))
		if verbose {
			fmt.Fprintf(stdout, "    object:     %s\n    witness:    %s\n    constraint: %s\n",
				r.Object, r.Witness, r.WitnessConstraint)
			for _, step := range r.Steps {
				if step.Pos.Line > 0 {
					sf, sl := locate(step.Pos.Line)
					fmt.Fprintf(stdout, "    step:       %s:%d: %s\n", sf, sl, step.Desc)
				} else {
					fmt.Fprintf(stdout, "    step:       %s\n", step.Desc)
				}
			}
		}
	}
}

// emitStats prints the -stats block (to stderr, keeping stdout clean for
// piped report streams).
func emitStats(w io.Writer, res *grapple.Result) {
	fmt.Fprintf(w, "\ntracked objects: %d\n", res.TrackedObjects)
	fmt.Fprintf(w, "cfet paths: %d (pruned branches: %d, truncated subtrees: %d)\n",
		res.Alias.CFETPaths, res.Alias.PrunedBranches, res.Alias.TruncatedSubtrees)
	fmt.Fprintf(w, "sliced functions: %d (sliced branches: %d)\n",
		res.Alias.SlicedFunctions, res.Alias.SlicedBranches)
	if res.Alias.Unlowered > 0 {
		fmt.Fprintf(w, "unlowered constructs (havocked): %d\n", res.Alias.Unlowered)
	}
	printPhase(w, "alias", res.Alias)
	printPhase(w, "dataflow", res.Dataflow)
	io := res.Alias.IO
	io.Add(res.Dataflow.IO)
	fmt.Fprintf(w, "io: %s\n", io)
	fmt.Fprintf(w, "io latency: %s\n", io.LatencyString())
	solve := res.Alias.SolveLatency
	solve.Add(res.Dataflow.SolveLatency)
	fmt.Fprintf(w, "solve latency: %s\n", solve.String(grapple.SolveLatencyBuckets()))
	fmt.Fprintf(w, "preprocessing %v, computation %v\n", res.GenTime, res.ComputeTime)
	fmt.Fprintf(w, "breakdown: I/O %.1f%% | constraint lookup %.1f%% | SMT solving %.1f%% | edge computation %.1f%%\n",
		res.Breakdown.IOPct, res.Breakdown.DecodePct, res.Breakdown.SolvePct, res.Breakdown.ComputePct)
}

// emitStatsJSON is the machine-readable -stats -json form: one JSON object
// on stderr. Durations are nanoseconds; the latency histograms are
// per-bucket counts whose bounds are in the *BucketsNs arrays.
func emitStatsJSON(w io.Writer, res *grapple.Result) {
	bounds := grapple.SolveLatencyBuckets()
	boundsNs := make([]int64, len(bounds))
	for i, b := range bounds {
		boundsNs[i] = b.Nanoseconds()
	}
	out, _ := json.Marshal(struct {
		TrackedObjects        int                `json:"trackedObjects"`
		Alias                 grapple.PhaseStats `json:"alias"`
		Dataflow              grapple.PhaseStats `json:"dataflow"`
		GenTimeNs             int64              `json:"genTimeNs"`
		ComputeTimeNs         int64              `json:"computeTimeNs"`
		Breakdown             grapple.Breakdown  `json:"breakdown"`
		SolveLatencyBucketsNs []int64            `json:"solveLatencyBucketsNs"`
	}{
		TrackedObjects:        res.TrackedObjects,
		Alias:                 res.Alias,
		Dataflow:              res.Dataflow,
		GenTimeNs:             res.GenTime.Nanoseconds(),
		ComputeTimeNs:         res.ComputeTime.Nanoseconds(),
		Breakdown:             res.Breakdown,
		SolveLatencyBucketsNs: boundsNs,
	})
	fmt.Fprintln(w, string(out))
}

func printPhase(w io.Writer, name string, p grapple.PhaseStats) {
	fmt.Fprintf(w, "%-9s V=%d EB=%d EA=%d iterations=%d partitions=%d repartitions=%d solved=%d cache=%d/%d\n",
		name+":", p.Vertices, p.EdgesBefore, p.EdgesAfter, p.Iterations,
		p.Partitions, p.Repartitions, p.ConstraintsSolved, p.CacheHits, p.CacheLookups)
}
