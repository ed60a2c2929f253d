package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunResumeRequiresWorkdir(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "p.ml", leakySrc)
	for _, flag := range []string{"-resume", "-journal"} {
		var out, errb bytes.Buffer
		code, err := run([]string{flag, prog}, &out, &errb)
		if code != 2 || err == nil || !strings.Contains(err.Error(), "-workdir") {
			t.Fatalf("%s without -workdir: code=%d err=%v", flag, code, err)
		}
	}
}

func TestRunResumeMissingJournalExits2(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "p.ml", leakySrc)
	var out, errb bytes.Buffer
	code, err := run([]string{"-resume", "-workdir", t.TempDir(), prog}, &out, &errb)
	if code != 2 || err == nil || !strings.Contains(err.Error(), "journal") {
		t.Fatalf("-resume with no journal: code=%d err=%v", code, err)
	}
}

// TestRunJournalThenResume journals a complete run, then resumes it: the
// resumed invocation replays the completed checkpoints and must print the
// same reports with the same exit code.
func TestRunJournalThenResume(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "p.ml", leakySrc)
	work := t.TempDir()
	var out1, err1 bytes.Buffer
	code1, err := run([]string{"-journal", "-workdir", work, prog}, &out1, &err1)
	if err != nil || code1 != 1 {
		t.Fatalf("journaled run: code=%d err=%v", code1, err)
	}
	var out2, err2 bytes.Buffer
	code2, err := run([]string{"-resume", "-workdir", work, prog}, &out2, &err2)
	if err != nil || code2 != 1 {
		t.Fatalf("resumed run: code=%d err=%v", code2, err)
	}
	if out1.String() != out2.String() {
		t.Fatalf("resumed output differs:\n%q\nvs\n%q", out2.String(), out1.String())
	}
}

func TestBatchResumeFlagValidation(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "p.ml", leakySrc)
	var out, errb bytes.Buffer
	code, err := run([]string{"batch", "-resume", prog}, &out, &errb)
	if code != 2 || err == nil || !strings.Contains(err.Error(), "-workdir") {
		t.Fatalf("batch -resume without -workdir: code=%d err=%v", code, err)
	}
}

// TestBatchJournalThenResume journals a complete batch, then resumes it:
// every instance restores from the completion log and the merged JSON
// stream must be byte-identical.
func TestBatchJournalThenResume(t *testing.T) {
	dir := t.TempDir()
	a := writeFile(t, dir, "a.ml", leakySrc)
	b := writeFile(t, dir, "b.ml", `
type Socket;
fun main() {
  var s: Socket = new Socket();
  s.connect();
  return;
}
`)
	work := t.TempDir()
	var out1, err1 bytes.Buffer
	code1, err := run([]string{"batch", "-json", "-journal", "-workdir", work, a, b}, &out1, &err1)
	if err != nil || code1 != 1 {
		t.Fatalf("journaled batch: code=%d err=%v stderr=%s", code1, err, err1.String())
	}
	var out2, err2 bytes.Buffer
	code2, err := run([]string{"batch", "-json", "-resume", "-workdir", work, a, b}, &out2, &err2)
	if err != nil || code2 != 1 {
		t.Fatalf("resumed batch: code=%d err=%v stderr=%s", code2, err, err2.String())
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Fatalf("resumed merged stream differs:\n%q\nvs\n%q", out2.String(), out1.String())
	}
}

// TestBatchResumeEditedSubjectExits2: a batch log records the sources it was
// written for, so resuming after a subject was edited is refused, not
// answered with the old reports.
func TestBatchResumeEditedSubjectExits2(t *testing.T) {
	dir := t.TempDir()
	a := writeFile(t, dir, "a.ml", leakySrc)
	work := t.TempDir()
	var out1, err1 bytes.Buffer
	if code, err := run([]string{"batch", "-journal", "-workdir", work, a}, &out1, &err1); err != nil || code != 1 {
		t.Fatalf("journaled batch: code=%d err=%v stderr=%s", code, err, err1.String())
	}
	writeFile(t, dir, "a.ml", leakySrc+"\nfun unused() { return; }\n")
	var out2, err2 bytes.Buffer
	code, err := run([]string{"batch", "-resume", "-workdir", work, a}, &out2, &err2)
	if code != 2 || err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("resume over an edited subject: code=%d err=%v stdout=%q", code, err, out2.String())
	}
}

// TestBatchResumeEditedFSMBodyExits2: a batch log records the FSM
// definitions it was written for, not just their names, so resuming with a
// spec whose io FSM now accepts only Init — same name, edited body — is
// refused, not answered with the old reports.
func TestBatchResumeEditedFSMBodyExits2(t *testing.T) {
	dir := t.TempDir()
	a := writeFile(t, dir, "a.ml", leakySrc)
	spec := func(accept string) string {
		return writeFile(t, dir, "io.fsm", `
fsm io for FileWriter {
  states Init Open Close;
  init Init;
  accept `+accept+`;
  new: Init -> Open;
  write: Open -> Open;
  close: Open -> Close;
}
`)
	}
	work := t.TempDir()
	var out1, err1 bytes.Buffer
	if code, err := run([]string{"batch", "-journal", "-workdir", work, "-fsm", spec("Init Close"), a}, &out1, &err1); err != nil || code != 1 {
		t.Fatalf("journaled batch: code=%d err=%v stderr=%s", code, err, err1.String())
	}
	var out2, err2 bytes.Buffer
	code, err := run([]string{"batch", "-resume", "-workdir", work, "-fsm", spec("Init"), a}, &out2, &err2)
	if code != 2 || err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("resume with an edited FSM body: code=%d err=%v stdout=%q", code, err, out2.String())
	}
}

// TestRunResumeSameShapeEditExits2: a run journal belongs to the source it
// was written for. Flipping one comparison keeps the graph's shape, yet
// resuming over the edit is refused rather than answered with the old
// closure's reports.
func TestRunResumeSameShapeEditExits2(t *testing.T) {
	dir := t.TempDir()
	src := `
type FileWriter;
fun main() {
  var w: FileWriter = new FileWriter();
  var n: int = input();
  if (n > 0) {
    w.close();
  }
  return;
}
`
	prog := writeFile(t, dir, "p.ml", src)
	work := t.TempDir()
	var out1, err1 bytes.Buffer
	if code, err := run([]string{"-journal", "-workdir", work, prog}, &out1, &err1); err != nil || code != 1 {
		t.Fatalf("journaled run: code=%d err=%v", code, err)
	}
	writeFile(t, dir, "p.ml", strings.Replace(src, "n > 0", "n < 0", 1))
	var out2, err2 bytes.Buffer
	code, err := run([]string{"-resume", "-workdir", work, prog}, &out2, &err2)
	if code != 2 || err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("resume over a same-shape edit: code=%d err=%v stdout=%q", code, err, out2.String())
	}
}

// TestBatchResumeOtherUnrollExits2: a batch log belongs to the unroll depth
// it was written under. The loop below writes after a close only on a second
// iteration, so a cold -unroll 2 batch reports it and an -unroll 1 one does
// not; resuming the -unroll 1 log with -unroll 2 is refused, not answered
// with the clean result.
func TestBatchResumeOtherUnrollExits2(t *testing.T) {
	dir := t.TempDir()
	a := writeFile(t, dir, "a.ml", `
type FileWriter;
fun main() {
  var w: FileWriter = new FileWriter();
  var n: int = input();
  var i: int = 0;
  while (i < n) {
    if (i == 1) {
      w.close();
    }
    i = i + 1;
  }
  w.write();
  w.close();
  return;
}
`)
	var cold, coldErr bytes.Buffer
	if code, err := run([]string{"batch", "-unroll", "2", a}, &cold, &coldErr); err != nil || code != 1 || !strings.Contains(cold.String(), "error-transition") {
		t.Fatalf("cold -unroll 2 batch: code=%d err=%v stdout=%q", code, err, cold.String())
	}
	work := t.TempDir()
	var out1, err1 bytes.Buffer
	if code, err := run([]string{"batch", "-unroll", "1", "-journal", "-workdir", work, a}, &out1, &err1); err != nil || code != 0 {
		t.Fatalf("journaled -unroll 1 batch: code=%d err=%v stdout=%q", code, err, out1.String())
	}
	var out2, err2 bytes.Buffer
	code, err := run([]string{"batch", "-unroll", "2", "-resume", "-workdir", work, a}, &out2, &err2)
	if code != 2 || err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("resume at another unroll depth: code=%d err=%v stdout=%q", code, err, out2.String())
	}
}

// TestGoResumeEditedFileExits2: a Go run's journal belongs to the lowered
// unit's text, so resuming after a .go file was edited — one comparison
// flipped, the graph's shape kept — is refused.
func TestGoResumeEditedFileExits2(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "leak.go", leakyGoSrc)
	work := t.TempDir()
	var out1, err1 bytes.Buffer
	if code, err := run([]string{"run", "-pack", "file-handle", "-journal", "-workdir", work, dir}, &out1, &err1); err != nil || code != 1 {
		t.Fatalf("journaled Go run: code=%d err=%v stderr=%s", code, err, err1.String())
	}
	writeFile(t, dir, "leak.go", strings.Replace(leakyGoSrc, "err != nil", "err == nil", 1))
	var out2, err2 bytes.Buffer
	code, err := run([]string{"run", "-pack", "file-handle", "-resume", "-workdir", work, dir}, &out2, &err2)
	if code != 2 || err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("resume over an edited .go file: code=%d err=%v stdout=%q", code, err, out2.String())
	}
}
