package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const defectiveSrc = `
type FileWriter;
fun main() {
  var c: int = input();
  var u: int;
  var x: int = u + 1;
  var w: FileWriter = new FileWriter();
  if (0 > 1) {
    c = c + 7;
  }
  if (x > c) {
    return;
  }
  return;
}
`

func TestLintCleanExitsZero(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "p.ml", `
type FileWriter;
fun main() {
  var w: FileWriter = new FileWriter();
  w.close();
  return;
}
`)
	var out, errb bytes.Buffer
	code, err := run([]string{"lint", prog}, &out, &errb)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v out=%q", code, err, out.String())
	}
	if out.Len() != 0 {
		t.Fatalf("clean program produced output: %q", out.String())
	}
}

func TestLintFindingsExitOne(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "p.ml", defectiveSrc)
	var out, errb bytes.Buffer
	code, err := run([]string{"lint", prog}, &out, &errb)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exit code %d, want 1\n%s", code, out.String())
	}
	for _, want := range []string{"RD001", "CF002", "UA001", "p.ml:6:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in output:\n%s", want, out.String())
		}
	}
}

func TestLintJSONOutput(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "p.ml", defectiveSrc)
	var out, errb bytes.Buffer
	code, err := run([]string{"lint", "-json", prog}, &out, &errb)
	if err != nil || code != 1 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("want >=3 JSON findings, got %d:\n%s", len(lines), out.String())
	}
	sawRD := false
	for _, line := range lines {
		var d jsonDiagnostic
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("bad json %q: %v", line, err)
		}
		if d.File != prog || d.Line <= 0 || d.Code == "" || d.Func != "main" {
			t.Fatalf("incomplete diagnostic: %+v", d)
		}
		if d.Code == "RD001" {
			sawRD = true
			if d.Line != 6 {
				t.Fatalf("RD001 line %d, want 6", d.Line)
			}
		}
	}
	if !sawRD {
		t.Fatalf("no RD001 in %s", out.String())
	}
}

func TestLintMultiFileLocations(t *testing.T) {
	dir := t.TempDir()
	lib := writeFile(t, dir, "lib.ml", `
type FileWriter;
fun helper(w: FileWriter) {
  w.close();
  return;
}
`)
	mainSrc := writeFile(t, dir, "main.ml", `
fun main() {
  var w: FileWriter = new FileWriter();
  helper(w);
  var u: int;
  var x: int = u + 1;
  if (x > 0) {
    return;
  }
  return;
}
`)
	var out, errb bytes.Buffer
	code, err := run([]string{"lint", lib, mainSrc}, &out, &errb)
	if err != nil || code != 1 {
		t.Fatalf("code=%d err=%v out=%q", code, err, out.String())
	}
	// The defect is in main.ml line 6; the diagnostic must map back to it.
	if !strings.Contains(out.String(), "main.ml:6:") {
		t.Fatalf("cross-file location mapping wrong: %q", out.String())
	}
}

func TestLintRulesFilter(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "p.ml", defectiveSrc)
	var out, errb bytes.Buffer
	code, err := run([]string{"lint", "-rules", "RD001,UA001", prog}, &out, &errb)
	if err != nil || code != 1 {
		t.Fatalf("code=%d err=%v out=%q", code, err, out.String())
	}
	for _, want := range []string{"RD001", "UA001"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in filtered output:\n%s", want, out.String())
		}
	}
	// CF002 fires on defectiveSrc but was not requested.
	if strings.Contains(out.String(), "CF002") {
		t.Errorf("unrequested CF002 in filtered output:\n%s", out.String())
	}
}

func TestLintUnknownRuleExitsTwo(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "p.ml", defectiveSrc)
	var out, errb bytes.Buffer
	code, err := run([]string{"lint", "-rules", "ND001,XX999", prog}, &out, &errb)
	if code != 2 {
		t.Fatalf("unknown-rule exit code %d, want 2", code)
	}
	if err == nil || !strings.Contains(err.Error(), "unknown lint rule") {
		t.Fatalf("unknown-rule error %v, want mention of unknown lint rule", err)
	}
}

func TestLintUsageAndParseErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code, _ := run([]string{"lint"}, &out, &errb); code != 2 {
		t.Fatalf("no-args exit code %d", code)
	}
	if code, _ := run([]string{"lint", "/nonexistent/file.ml"}, &out, &errb); code != 2 {
		t.Fatalf("missing-file exit code %d", code)
	}
	dir := t.TempDir()
	bad := writeFile(t, dir, "bad.ml", "fun main( {")
	if code, _ := run([]string{"lint", bad}, &out, &errb); code != 2 {
		t.Fatalf("parse-error exit code %d", code)
	}
}

// TestRunNoPruneFlag: pruning is not a switch. The constant branch is pruned
// on every run (-stats shows it) and the retired -noprune flag is a usage error.
func TestRunNoPruneFlag(t *testing.T) {
	dir := t.TempDir()
	// mode > 1 is constant: the pre-analysis decides the branch.
	prog := writeFile(t, dir, "prune.ml", `
type FileWriter;
fun main() {
  var mode: int = 3;
  var w: FileWriter = new FileWriter();
  if (mode > 1) {
    w.write();
  } else {
    w.write();
  }
  return;
}
`)
	checkRetiredSwitch(t, prog, "pruned branches: 1", "-noprune")
}

// TestRunNoSliceFlag: slicing is not a switch. A function that touches no
// tracked object is sliced on every run (-stats shows it) and the retired
// -noslice flag is a usage error.
func TestRunNoSliceFlag(t *testing.T) {
	dir := t.TempDir()
	// tune touches no tracked object, so the slicer drops it.
	prog := writeFile(t, dir, "slice.ml", `
type FileWriter;
fun tune(n: int) {
  var k: int = n + 2;
  k = k * 3;
  return;
}
fun main() {
  var cfg: int = input();
  tune(cfg);
  var w: FileWriter = new FileWriter();
  if (cfg > 4) {
    w.write();
  }
  return;
}
`)
	checkRetiredSwitch(t, prog, "sliced functions: 1", "-noslice")
}

// checkRetiredSwitch runs prog with -stats, expecting the leak report and stat,
// then with the retired flag, expecting exit 2.
func checkRetiredSwitch(t *testing.T, prog, stat, retired string) {
	t.Helper()
	// Stats land on stderr, so the run gets its own stderr buffer.
	var out, stats bytes.Buffer
	code, err := run([]string{"-stats", prog}, &out, &stats)
	if err != nil || code != 1 || !strings.Contains(out.String(), "[io]") {
		t.Fatalf("code=%d err=%v reports:\n%s", code, err, out.String())
	}
	if !strings.Contains(stats.String(), stat) {
		t.Fatalf("stats lack %q:\n%s", stat, stats.String())
	}
	if code, _ := run([]string{retired, prog}, &out, &stats); code != 2 {
		t.Fatalf("%s exit code %d, want 2", retired, code)
	}
}
