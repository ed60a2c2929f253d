// Command grapple-bench regenerates the paper's evaluation artifacts
// (DESIGN.md §3) over the simulated subjects, plus the ablation and
// measurement tables benchmark/ has no workload for yet:
//
//	grapple-bench -table <name>     one table
//	grapple-bench -figure <name>    one figure
//	grapple-bench -all              everything
//
// Run it without arguments for the list of names: the artifacts slice below
// is the only place they are spelled.
//
// -subjects restricts the subject set (comma separated), -mem sets the
// engine memory budget, -naive-timeout bounds each naive run, -godir picks
// the real-Go package of the gofront table.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/grapple-system/grapple/internal/bench"
)

// env is what the runners share: the flags, and the per-subject analyses
// Tables 2 and 3 and Figure 9 all render from.
type env struct {
	names        []string
	opts         bench.RunOptions
	goDir        string
	naiveTimeout time.Duration
	runs         []*bench.SubjectRun
}

// subjectRuns analyzes every subject once, on first use.
func (e *env) subjectRuns() ([]*bench.SubjectRun, error) {
	if e.runs != nil {
		return e.runs, nil
	}
	for _, name := range e.names {
		fmt.Fprintf(os.Stderr, "analyzing %s...\n", name)
		run, err := bench.RunSubject(name, e.opts)
		if err != nil {
			return nil, err
		}
		e.runs = append(e.runs, run)
	}
	return e.runs, nil
}

// artifact is one table or figure: which flag selects it under which name, a
// one-line note, and the runner. -all runs them in slice order.
type artifact struct {
	kind, name string
	note       string
	run        func(*env) (string, error)
}

var artifacts = []artifact{
	{"table", "1", "subject characteristics (Table 1)", func(*env) (string, error) {
		return bench.Table1(), nil
	}},
	{"table", "2", "TP/FP per checker (Table 2)", func(e *env) (string, error) {
		runs, err := e.subjectRuns()
		return bench.Table2(runs), err
	}},
	{"table", "3", "graph sizes and times (Table 3)", func(e *env) (string, error) {
		runs, err := e.subjectRuns()
		return bench.Table3(runs), err
	}},
	{"figure", "9", "cost breakdown (Figure 9)", func(e *env) (string, error) {
		runs, err := e.subjectRuns()
		return bench.Figure9(runs), err
	}},
	{"table", "4", "constraint-caching ablation, each subject twice (Table 4)", func(e *env) (string, error) {
		return text(bench.Table4(e.names, e.opts))
	}},
	{"table", "5", "naive string-engine comparison (Table 5)", func(e *env) (string, error) {
		return text(bench.Table5(e.names, "", 0, e.naiveTimeout))
	}},
	{"table", "gofront", "synthetic subjects vs a real Go package (-godir)", func(e *env) (string, error) {
		return text(bench.GofrontTable(e.names, e.goDir, ""))
	}},
	{"table", "resume", "journal overhead and kill-at-midpoint resume latency, each subject four times", func(e *env) (string, error) {
		return text(bench.ResumeTable(e.names, ""))
	}},
	{"table", "oom", "traditional in-memory OOM result (§5.3)", func(e *env) (string, error) {
		return bench.TableOOM(e.names, 0, e.naiveTimeout)
	}},
}

// text drops the typed rows a table function returns beside its rendering.
func text[R any](out string, _ R, err error) (string, error) { return out, err }

// names joins the names one flag accepts, for its help string.
func names(kind string) string {
	var out []string
	for _, a := range artifacts {
		if a.kind == kind {
			out = append(out, a.name)
		}
	}
	return strings.Join(out, "|")
}

func main() {
	table := flag.String("table", "", "table to regenerate: "+names("table"))
	figure := flag.String("figure", "", "figure to regenerate: "+names("figure"))
	all := flag.Bool("all", false, "regenerate every table and figure")
	goDir := flag.String("godir", "internal/storage", "real-Go package for -table gofront")
	subjects := flag.String("subjects", "", "comma-separated subject subset")
	mem := flag.Int64("mem", 8<<20, "engine memory budget in bytes")
	naiveTimeout := flag.Duration("naive-timeout", 2*time.Minute, "per-subject naive-engine timeout (DNF beyond)")
	flag.Parse()

	e := &env{
		names:        bench.SubjectNames(),
		opts:         bench.RunOptions{MemoryBudget: *mem},
		goDir:        *goDir,
		naiveTimeout: *naiveTimeout,
	}
	if *subjects != "" {
		e.names = strings.Split(*subjects, ",")
	}
	selected := map[string]string{"table": *table, "figure": *figure}
	ran := false
	for _, a := range artifacts {
		if !*all && selected[a.kind] != a.name {
			continue
		}
		ran = true
		fmt.Fprintf(os.Stderr, "%s %s: %s...\n", a.kind, a.name, a.note)
		out, err := a.run(e)
		if err != nil {
			fmt.Fprintln(os.Stderr, "grapple-bench:", err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
	if !ran {
		fmt.Fprintln(os.Stderr, "usage: grapple-bench -all | -table <name> | -figure <name>")
		for _, a := range artifacts {
			fmt.Fprintf(os.Stderr, "  -%-6s %-8s %s\n", a.kind, a.name, a.note)
		}
		os.Exit(2)
	}
}
