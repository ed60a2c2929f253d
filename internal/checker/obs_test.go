package checker

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/trace"
)

// obsIdentitySubjects are small programs spanning the behaviours the
// pipeline instruments: branches (pruning + path conditions), aliasing,
// interprocedural flow, loops, and a clean program with no reports.
var obsIdentitySubjects = []struct {
	name string
	src  string
}{
	{"branchy-leak", `
type FileWriter;
fun main() {
  var out: FileWriter = null;
  var x: int = input();
  if (x >= 0) {
    out = new FileWriter();
    out.write();
  }
  if (x < 0) {
    out.close();
  }
  return;
}`},
	{"alias-interproc", `
type FileWriter;
fun shut(w: FileWriter) {
  w.close();
  return;
}
fun main() {
  var a: FileWriter = new FileWriter();
  var b: FileWriter = a;
  b.write();
  shut(a);
  var c: FileWriter = new FileWriter();
  c.write();
  return;
}`},
	{"looped-clean", `
type FileWriter;
fun main() {
  var w: FileWriter = new FileWriter();
  var i: int = 0;
  while (i < 3) {
    w.write();
    i = i + 1;
  }
  w.close();
  return;
}`},
}

// TestTracingPreservesReports is the observation-only property test: for
// every subject, a run with the full observability stack attached (trace
// recorder + progress tracker) must produce reports deep-equal to a bare
// run — same order, same witnesses, same constraints.
func TestTracingPreservesReports(t *testing.T) {
	for _, sub := range obsIdentitySubjects {
		t.Run(sub.name, func(t *testing.T) {
			bare := New(fsm.Builtins(), Options{WorkDir: t.TempDir()})
			resBare, err := bare.CheckSource(sub.src)
			if err != nil {
				t.Fatal(err)
			}

			var chrome, jsonl bytes.Buffer
			rec := trace.NewWriters(&chrome, &jsonl)
			prog := trace.NewProgress()
			traced := New(fsm.Builtins(), Options{
				WorkDir:  t.TempDir(),
				Trace:    rec,
				TraceTID: rec.Thread("checker-test"),
				Progress: prog,
			})
			resTraced, err := traced.CheckSource(sub.src)
			if err != nil {
				t.Fatal(err)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(resBare.Reports, resTraced.Reports) {
				t.Fatalf("reports differ with tracing on:\nbare:   %v\ntraced: %v",
					resBare.Reports, resTraced.Reports)
			}
			// renderReports (resume_test.go) serializes every report field;
			// the two streams must agree byte for byte.
			if renderReports(resBare.Reports) != renderReports(resTraced.Reports) {
				t.Fatal("rendered reports differ with tracing on")
			}
			if rec.EventCount() == 0 {
				t.Fatal("trace recorded no events")
			}
			// The frontend's stages are spanned from the source text on.
			for _, span := range []string{"parse", "resolve", "lower", "callgraph", "pre-analysis", "cfet-build"} {
				if !bytes.Contains(jsonl.Bytes(), []byte(`"name":"`+span+`"`)) {
					t.Errorf("trace has no %q span", span)
				}
			}
			if prog.Snapshot().Phase != "fsm-check" {
				t.Fatalf("final phase %q, want fsm-check", prog.Snapshot().Phase)
			}
		})
	}
}
