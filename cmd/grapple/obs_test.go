package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestTraceGoldenIdentity is the CLI half of the observation-only contract:
// stdout with the full observability stack on (-trace, -progress, a workdir
// for status.json) must be byte-identical to a bare run, and the artifacts
// must be well-formed.
func TestTraceGoldenIdentity(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "p.ml", leakySrc)
	work := filepath.Join(dir, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "trace.json")

	var bareOut, bareErr bytes.Buffer
	codeBare, errBare := run([]string{"-v", prog}, &bareOut, &bareErr)

	var obsOut, obsErr bytes.Buffer
	codeObs, errObs := run([]string{
		"-v", "-trace", tracePath, "-progress", "1ms", "-workdir", work, prog,
	}, &obsOut, &obsErr)

	if errBare != nil || errObs != nil || codeBare != 1 || codeObs != 1 {
		t.Fatalf("codes=%d/%d errs=%v/%v", codeBare, codeObs, errBare, errObs)
	}
	if bareOut.String() != obsOut.String() {
		t.Fatalf("stdout differs with observability on:\nbare: %q\nobs:  %q",
			bareOut.String(), obsOut.String())
	}

	// The trace must be a loadable Chrome trace-event document covering the
	// pipeline phases, with a parallel JSONL stream.
	names := traceSpanNames(t, tracePath)
	for _, want := range []string{"parse", "resolve", "lower", "callgraph", "pre-analysis", "cfet-build", "phase.alias", "phase.dataflow", "fsm-check", "superstep"} {
		if !names[want] {
			t.Errorf("trace missing %q span (have %v)", want, names)
		}
	}
	events, err := os.ReadFile(tracePath + ".events.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(events)), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("JSONL line does not parse: %v: %q", err, line)
		}
	}

	// The heartbeat leaves a final status.json in the workdir.
	status, err := os.ReadFile(filepath.Join(work, "status.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Phase         string `json:"phase"`
		UpdatedUnixMs int64  `json:"updatedUnixMs"`
	}
	if err := json.Unmarshal(status, &snap); err != nil {
		t.Fatalf("status.json does not parse: %v", err)
	}
	if snap.Phase == "" || snap.UpdatedUnixMs == 0 {
		t.Fatalf("status.json incomplete: %s", status)
	}
}

// traceSpanNames reads a Chrome trace-event document and returns the names
// of the events it holds; an empty or unreadable trace fails the test.
func traceSpanNames(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace is empty")
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
	}
	return names
}

// TestGoTraceHasFrontendSpans: a Go check resolves and lowers its unit in the
// checker, as a MiniLang check does, so its trace holds the same resolve and
// lower spans after the Go frontend's own.
func TestGoTraceHasFrontendSpans(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "leak.go", leakyGoSrc)
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var out, errb bytes.Buffer
	if code, err := run([]string{"run", "-pack", "file-handle", "-trace", tracePath, dir}, &out, &errb); err != nil || code != 1 {
		t.Fatalf("code=%d err=%v stderr=%q", code, err, errb.String())
	}
	names := traceSpanNames(t, tracePath)
	for _, want := range []string{"gofront-lower", "resolve", "lower", "callgraph", "cfet-build", "phase.alias", "phase.dataflow", "fsm-check"} {
		if !names[want] {
			t.Errorf("trace missing %q span (have %v)", want, names)
		}
	}
}

// TestStatsJSONWellFormed pins the -stats -json contract: stdout carries
// only report JSON, stderr carries exactly one machine-readable stats
// object.
func TestStatsJSONWellFormed(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "p.ml", leakySrc)
	var out, errb bytes.Buffer
	code, err := run([]string{"-json", "-stats", prog}, &out, &errb)
	if err != nil || code != 1 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var rep map[string]any
		if err := json.Unmarshal([]byte(line), &rep); err != nil {
			t.Fatalf("stdout line is not report JSON: %v: %q", err, line)
		}
	}
	var stats struct {
		TrackedObjects int            `json:"trackedObjects"`
		Alias          map[string]any `json:"alias"`
		Dataflow       map[string]any `json:"dataflow"`
		GenTimeNs      int64          `json:"genTimeNs"`
	}
	if err := json.Unmarshal(errb.Bytes(), &stats); err != nil {
		t.Fatalf("stderr is not one stats object: %v: %q", err, errb.String())
	}
	if stats.TrackedObjects == 0 || stats.Alias == nil || stats.Dataflow == nil {
		t.Fatalf("stats object incomplete: %s", errb.String())
	}
	if _, ok := stats.Alias["SolveLatency"]; !ok {
		t.Fatalf("stats missing SolveLatency histogram: %s", errb.String())
	}
}

// TestBatchStatsJSONWellFormed is the batch analogue.
func TestBatchStatsJSONWellFormed(t *testing.T) {
	var out, errb bytes.Buffer
	code, err := run([]string{"batch", "-profile", "mini-sim", "-json", "-stats"}, &out, &errb)
	if err != nil || code != 1 {
		t.Fatalf("code=%d err=%v stderr=%q", code, err, errb.String())
	}
	var stats struct {
		Instances    int              `json:"instances"`
		Subjects     int              `json:"subjects"`
		WallNs       int64            `json:"wallNs"`
		InstanceList []map[string]any `json:"instanceList"`
	}
	if err := json.Unmarshal(errb.Bytes(), &stats); err != nil {
		t.Fatalf("stderr is not one stats object: %v: %q", err, errb.String())
	}
	if stats.Instances == 0 || stats.Subjects != 1 || len(stats.InstanceList) != stats.Instances {
		t.Fatalf("batch stats incomplete: %s", errb.String())
	}
}

// TestProgressHeartbeatEmits drives -progress at a tiny interval over the
// batch path (slow enough to tick) and requires at least one heartbeat line.
func TestProgressHeartbeatEmits(t *testing.T) {
	var out, errb bytes.Buffer
	start := time.Now()
	code, err := run([]string{"batch", "-profile", "mini-sim", "-progress", "1ms"}, &out, &errb)
	if err != nil || code != 1 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	if time.Since(start) >= time.Millisecond && !strings.Contains(errb.String(), "grapple:") {
		t.Fatalf("no heartbeat on stderr: %q", errb.String())
	}
}
