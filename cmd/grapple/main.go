// Command grapple checks MiniLang programs against finite-state property
// specifications and reports FSM violations (paper §2.2's workflow as a
// command-line tool).
//
// Usage:
//
//	grapple [run] [flags] program.ml [more.ml ...]
//	grapple run -pack <name> [flags] ./gopkg | files.go ...
//	grapple run -packs
//	grapple lint [flags] program.ml [more.ml ...]
//	grapple lint -pack <name> [flags] ./gopkg
//	grapple batch [flags] [path ...]
//
// Multiple MiniLang source files are concatenated into one compilation
// unit. A directory or .go arguments select Go mode: the package is lowered
// through the gofront bridge using the selected property packs' binding
// rules and checked by the unchanged pipeline, with reports mapped back to
// Go file:line (docs/gofront.md). The batch subcommand instead treats every
// path (and every -profile workload subject) as its own compilation unit
// and checks the whole set under a bounded-worker scheduler with a shared
// constraint cache, emitting one deterministic merged report stream; see
// docs/batch.md.
//
// Flags:
//
//	-fsm file      FSM spec file (repeatable); default: built-in checkers
//	-pack name     property pack for Go input (repeatable)
//	-packs         list the property-pack library and exit
//	-workdir dir   partition directory; holds both closed graphs on return
//	               (default: temporary, written only when -mem is outgrown)
//	-mem bytes     engine memory budget (default 256 MiB)
//	-unroll n      loop unroll depth (default 2)
//	-json          emit reports as JSON (one object per line)
//	-stats         print phase statistics and the cost breakdown (stderr)
//	-v             verbose reports (witness encodings and constraints)
//	-journal       checkpoint engine state to -workdir every superstep
//	-resume        continue a killed -journal run from its last checkpoint
//	-trace file    write a Chrome trace-event JSON file (plus .events.jsonl)
//	-progress dur  heartbeat line to stderr (and status.json under -workdir)
//	-pprof addr    serve net/http/pprof and live progress counters
//
// -journal/-resume require -workdir and guarantee that a run killed at any
// superstep boundary resumes to a byte-identical report; a missing, corrupt,
// or stale journal makes -resume exit 2 instead of silently starting cold
// (docs/resume.md). `grapple batch` accepts the same pair at instance
// granularity: -resume reruns only the instances a previous -journal batch
// did not finish.
//
// A check runs on up to GOMAXPROCS goroutines: the engine's edge joins
// and, for a source of at least 256 KiB, the frontend's parse, resolve and
// lowering (grapple.Options.Workers, which the CLI leaves at its default).
// Reports do not depend on the count.
//
// -stats writes to stderr so piped -json report streams on stdout stay
// clean; -stats -json renders the statistics as one JSON object instead.
// -trace/-progress/-pprof are observation-only — reports are byte-identical
// with them on or off (docs/observability.md).
//
// Exit status: 0 no warnings, 1 warnings found, 2 usage/analysis error.
package main

import (
	"fmt"
	"os"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "grapple:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}
