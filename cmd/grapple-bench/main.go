// Command grapple-bench regenerates the paper's evaluation artifacts
// (DESIGN.md §3) over the simulated subjects:
//
//	grapple-bench -table 1          subject characteristics (Table 1)
//	grapple-bench -table 2          TP/FP per checker (Table 2)
//	grapple-bench -table 3          graph sizes and times (Table 3)
//	grapple-bench -figure 9         cost breakdown (Figure 9)
//	grapple-bench -table 4          constraint-caching ablation (Table 4)
//	grapple-bench -table 5          naive string-engine comparison (Table 5)
//	grapple-bench -table oom        traditional in-memory OOM result (§5.3)
//	grapple-bench -table batch      batch-scheduler scaling vs worker count
//	grapple-bench -table io         partition-store traffic, prefetch on/off
//	grapple-bench -table resume     journal overhead and kill-at-midpoint resume latency
//	grapple-bench -table obs        observability (tracing + progress) overhead
//	grapple-bench -table prune      infeasible-branch pruning ablation
//	grapple-bench -table slice      property-relevance slicing ablation
//	grapple-bench -table gofront    synthetic subjects vs a real Go package
//	grapple-bench -table hotpath    zero-copy decode ablation and edge-join cost
//	grapple-bench -table devirt     devirtualization rate and concurrency-lint cost
//	grapple-bench -all              everything above
//
// -subjects restricts the subject set (comma separated), -mem sets the
// engine memory budget, -naive-timeout bounds each naive run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/grapple-system/grapple/internal/bench"
)

func main() {
	table := flag.String("table", "", "table to regenerate: 1|2|3|4|5|oom|prune|slice|batch|io|resume|obs|gofront|hotpath|devirt")
	hotpathJSON := flag.String("hotpath-json", "", "also write -table hotpath rows to this JSON file")
	hotpathBefore := flag.String("hotpath-before", "", "earlier hotpath JSON from the same host; its join numbers become join_ns_per_edge_before")
	goDir := flag.String("godir", "internal/storage", "real-Go package for -table gofront")
	figure := flag.String("figure", "", "figure to regenerate: 9")
	all := flag.Bool("all", false, "regenerate every table and figure")
	subjects := flag.String("subjects", "", "comma-separated subject subset")
	mem := flag.Int64("mem", 8<<20, "engine memory budget in bytes")
	naiveTimeout := flag.Duration("naive-timeout", 2*time.Minute, "per-subject naive-engine timeout (DNF beyond)")
	flag.Parse()

	names := bench.SubjectNames()
	if *subjects != "" {
		names = strings.Split(*subjects, ",")
	}
	if !*all && *table == "" && *figure == "" {
		fmt.Fprintln(os.Stderr, "usage: grapple-bench -all | -table 1|2|3|4|5|oom|prune|slice|batch|io|resume|obs|gofront|hotpath|devirt | -figure 9")
		os.Exit(2)
	}

	want := func(t string) bool { return *all || *table == t }
	opts := bench.RunOptions{MemoryBudget: *mem}

	if want("1") {
		fmt.Println(bench.Table1())
	}

	var runs []*bench.SubjectRun
	needRuns := want("2") || want("3") || *all || *figure == "9"
	if needRuns {
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "analyzing %s...\n", name)
			run, err := bench.RunSubject(name, opts)
			if err != nil {
				fatal(err)
			}
			runs = append(runs, run)
		}
	}
	if want("2") {
		fmt.Println(bench.Table2(runs))
	}
	if want("3") {
		fmt.Println(bench.Table3(runs))
	}
	if *all || *figure == "9" {
		fmt.Println(bench.Figure9(runs))
	}
	if want("4") {
		fmt.Fprintln(os.Stderr, "running caching ablation (each subject twice)...")
		out, _, err := bench.Table4(names, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
	}
	if want("5") {
		fmt.Fprintln(os.Stderr, "running naive string-engine comparison...")
		out, _, err := bench.Table5(names, "", 0, *naiveTimeout)
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
	}
	if want("prune") {
		fmt.Fprintln(os.Stderr, "running pruning ablation (each subject twice)...")
		out, _, err := bench.PruneAblation(names, "")
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
	}
	if want("slice") {
		fmt.Fprintln(os.Stderr, "running slicing ablation (each subject x each property, twice)...")
		out, _, err := bench.SliceAblation(names, "")
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
	}
	if want("gofront") {
		fmt.Fprintln(os.Stderr, "running gofront bridge comparison (synthetic subjects + real Go)...")
		out, _, err := bench.GofrontTable(names, *goDir, "")
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
	}
	if want("devirt") {
		fmt.Fprintln(os.Stderr, "running devirtualization + concurrency-lint measurement (real Go packages)...")
		out, _, err := bench.DevirtTable([]string{
			"testdata/gofront", "testdata/ablation",
			"internal/storage", "internal/engine", "internal/trace",
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
	}
	if want("io") {
		fmt.Fprintln(os.Stderr, "running partition-store I/O measurement (each subject twice)...")
		out, _, err := bench.IOTable(names, "")
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
	}
	if want("hotpath") {
		fmt.Fprintln(os.Stderr, "running hot-path measurement (decode modes + edge join, each subject)...")
		out, rows, err := bench.HotpathTable(names, "")
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
		if *hotpathBefore != "" {
			if err := bench.WithHotpathBefore(rows, *hotpathBefore); err != nil {
				fatal(err)
			}
		}
		if *hotpathJSON != "" {
			if err := bench.WriteHotpathJSON(*hotpathJSON, rows); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *hotpathJSON)
		}
	}
	if want("resume") {
		fmt.Fprintln(os.Stderr, "running checkpoint/resume measurement (each subject four times)...")
		out, _, err := bench.ResumeTable(names, "")
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
	}
	if want("obs") {
		fmt.Fprintln(os.Stderr, "running observability-overhead measurement (each subject six times)...")
		out, _, err := bench.ObsTable(names, "")
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
	}
	if want("batch") {
		fmt.Fprintln(os.Stderr, "running batch-scheduler scaling (each subject x each property, 5 configs)...")
		out, _, err := bench.BatchScaling(names, "")
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
	}
	if *all || *table == "oom" {
		fmt.Fprintln(os.Stderr, "running traditional in-memory baseline...")
		out, err := bench.TableOOM(names, 0, *naiveTimeout)
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "grapple-bench:", err)
	os.Exit(1)
}
