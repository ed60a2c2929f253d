package main

import (
	"fmt"
	"io"
	"os"
	"strings"

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

// runGo checks real Go input against the selected property packs through
// the gofront lowering and the full engine pipeline.
func runGo(args, packs []string, opts grapple.Options, cf *checkFlags, stdout, stderr io.Writer) (int, error) {
	if len(packs) == 0 {
		fmt.Fprintln(stderr, "grapple: Go input requires -pack; available packs:")
		for _, p := range grapple.Packs() {
			fmt.Fprintf(stderr, "  %-18s %s\n", p.Name, p.Doc)
		}
		return 2, nil
	}
	var dirs, files []string
	for _, a := range args {
		if st, err := os.Stat(a); err == nil && st.IsDir() {
			dirs = append(dirs, a)
		} else {
			files = append(files, a)
		}
	}
	if len(dirs) > 1 || (len(dirs) == 1 && len(files) > 0) {
		return 2, fmt.Errorf("go input must be one package directory or a list of .go files")
	}
	var (
		res *grapple.Result
		pkg *grapple.GoPackage
		err error
	)
	if len(dirs) == 1 {
		res, pkg, err = grapple.CheckGoPackage(dirs[0], packs, opts)
	} else {
		res, pkg, err = grapple.CheckGoFiles(files, packs, opts)
	}
	if err != nil {
		return 2, err
	}
	code := cf.emit(stdout, stderr, res, pkg.Locate)
	if cf.stats && !cf.jsonOut {
		fmt.Fprintf(stderr, "lowered functions: %d, havocked constructs: %d\n",
			pkg.Functions(), pkg.Unlowered())
		if calls, direct, split, open := pkg.Devirt(); calls > 0 {
			fmt.Fprintf(stderr, "interface calls: %d (direct %d, split %d, open %d)\n",
				calls, direct, split, open)
		}
	}
	return code, nil
}
