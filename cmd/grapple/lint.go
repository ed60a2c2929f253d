package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"

	grapple "github.com/grapple-system/grapple"
)

// jsonDiagnostic is the machine-readable lint finding format (-json).
type jsonDiagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Code    string `json:"code"`
	Pass    string `json:"pass"`
	Func    string `json:"func"`
	Message string `json:"message"`
}

// runLint implements `grapple lint`: it runs only the IR-level dataflow
// passes — no alias/typestate pipeline — and exits 0 when the program is
// clean, 1 when diagnostics were found, 2 on usage or parse errors.
func runLint(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("grapple lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON lines")
	rules := fs.String("rules", "", "comma-separated diagnostic codes to run (e.g. ND001,LK001); default all")
	var packNames multiFlag
	fs.Var(&packNames, "pack", "property pack whose binding rules shape Go lowering (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2, nil // flag package already printed the error
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: grapple lint [flags] program.ml [more.ml ...]")
		fmt.Fprintln(stderr, "       grapple lint [flags] ./gopkg")
		fs.PrintDefaults()
		return 2, nil
	}
	var ruleCodes []string
	for _, code := range strings.Split(*rules, ",") {
		if code = strings.TrimSpace(code); code != "" {
			ruleCodes = append(ruleCodes, code)
		}
	}

	var (
		diags  []grapple.Diagnostic
		locate func(int) (string, int)
	)
	if goArgs(fs.Args()) {
		if fs.NArg() != 1 {
			return 2, fmt.Errorf("go lint takes one package directory")
		}
		ds, pkg, err := grapple.LintGoPackage(fs.Arg(0), packNames, ruleCodes)
		if err != nil {
			return 2, err
		}
		diags, locate = ds, pkg.Locate
	} else {
		if len(packNames) > 0 {
			return 2, fmt.Errorf("-pack applies to Go input; got MiniLang sources")
		}
		combined, loc, err := loadSources(fs.Args())
		if err != nil {
			return 2, err
		}
		ds, err := grapple.LintWith(combined, ruleCodes)
		if err != nil {
			return 2, err
		}
		diags, locate = ds, loc
	}
	for _, d := range diags {
		file, line := locate(d.Pos.Line)
		if *jsonOut {
			out, _ := json.Marshal(jsonDiagnostic{
				File: file, Line: line, Col: d.Pos.Col,
				Code: d.Code, Pass: d.Pass, Func: d.Func, Message: d.Message,
			})
			fmt.Fprintln(stdout, string(out))
			continue
		}
		fmt.Fprintf(stdout, "%s:%d:%d: %s: %s (in %s)\n",
			file, line, d.Pos.Col, d.Code, d.Message, d.Func)
	}
	if len(diags) > 0 {
		return 1, nil
	}
	return 0, nil
}
