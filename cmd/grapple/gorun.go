package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	grapple "github.com/grapple-system/grapple"
)

// goArgs reports whether the positional arguments name Go input: a single
// package directory, or one or more .go files.
func goArgs(args []string) bool {
	for _, a := range args {
		if strings.HasSuffix(a, ".go") {
			return true
		}
		if st, err := os.Stat(a); err == nil && st.IsDir() {
			return true
		}
	}
	return false
}

// goOpts carries the main flag set into the Go-mode runner.
type goOpts struct {
	args      []string
	packs     []string
	workDir   string
	mem       int64
	unroll    int
	jsonOut   bool
	stats     bool
	verbose   bool
	dotDir    string
	noPrune   bool
	noSlice   bool
	journal   bool
	resume    bool
	tracePath string
	progress  time.Duration
	pprofAddr string
}

// runGo checks real Go input against the selected property packs through
// the gofront lowering and the full engine pipeline.
func runGo(o goOpts, stdout, stderr io.Writer) (int, error) {
	if len(o.packs) == 0 {
		fmt.Fprintln(stderr, "grapple: Go input requires -pack; available packs:")
		for _, p := range grapple.Packs() {
			fmt.Fprintf(stderr, "  %-18s %s\n", p.Name, p.Doc)
		}
		return 2, nil
	}
	var dirs, files []string
	for _, a := range o.args {
		if st, err := os.Stat(a); err == nil && st.IsDir() {
			dirs = append(dirs, a)
		} else {
			files = append(files, a)
		}
	}
	if len(dirs) > 1 || (len(dirs) == 1 && len(files) > 0) {
		return 2, fmt.Errorf("go input must be one package directory or a list of .go files")
	}
	prune := grapple.PruneDefault
	if o.noPrune {
		prune = grapple.PruneOff
	}
	slice := grapple.SliceDefault
	if o.noSlice {
		slice = grapple.SliceOff
	}
	opts := grapple.Options{
		WorkDir:      o.workDir,
		MemoryBudget: o.mem,
		UnrollDepth:  o.unroll,
		DumpDOT:      o.dotDir,
		Prune:        prune,
		Slice:        slice,
		Journal:      o.journal,
		Resume:       o.resume,
		Obs: grapple.ObsOptions{
			TracePath:      o.tracePath,
			Progress:       o.progress,
			ProgressWriter: stderr,
			PprofAddr:      o.pprofAddr,
		},
	}
	var (
		res *grapple.Result
		pkg *grapple.GoPackage
		err error
	)
	if len(dirs) == 1 {
		res, pkg, err = grapple.CheckGoPackage(dirs[0], o.packs, opts)
	} else {
		res, pkg, err = grapple.CheckGoFiles(files, o.packs, opts)
	}
	if err != nil {
		return 2, err
	}
	emitReports(stdout, res.Reports, pkg.Locate, o.jsonOut, o.verbose)
	if o.stats {
		if o.jsonOut {
			emitStatsJSON(stderr, res)
		} else {
			emitStats(stderr, res)
			fmt.Fprintf(stderr, "lowered functions: %d, havocked constructs: %d\n",
				pkg.Functions(), pkg.Unlowered())
			if calls, direct, split, open := pkg.Devirt(); calls > 0 {
				fmt.Fprintf(stderr, "interface calls: %d (direct %d, split %d, open %d)\n",
					calls, direct, split, open)
			}
		}
	}
	if len(res.Reports) > 0 {
		return 1, nil
	}
	return 0, nil
}
