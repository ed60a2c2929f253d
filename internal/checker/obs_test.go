package checker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
// recorder + progress tracker) and its graphs dumped as DOT must produce
// reports deep-equal to a bare run — same order, same witnesses, same
// constraints.
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
				WorkDir: t.TempDir(),
				DumpDOT: t.TempDir(),
				Scope:   trace.Scope{Rec: rec, Progress: prog}.Lane("checker-test"),
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

// TestFailedPhaseKeepsItsSpan: the trace of a run that dies in some step —
// a frontend stage or a closure phase — must still hold that step's span,
// carrying the error: the step that failed is the one the trace is opened to
// find. A context cancelled before the check starts fails the alias phase at
// its first superstep.
func TestFailedPhaseKeepsItsSpan(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		cancel    bool
		// span is the step that must end with the error; the check returns
		// that error behind prefix.
		span, prefix string
	}{
		{name: "syntax error", src: "fun main( {", span: "parse", prefix: "parse: "},
		{name: "undefined name", src: "fun main() {\n  y = 1;\n  return;\n}", span: "resolve", prefix: "resolve: "},
		{name: "cancelled", src: obsIdentitySubjects[0].src, cancel: true, span: "phase.alias", prefix: "alias phase: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var jsonl bytes.Buffer
			rec := trace.NewWriters(nil, &jsonl)
			ctx, cancel := context.WithCancel(context.Background())
			if tc.cancel {
				cancel()
			}
			defer cancel()
			c := New(fsm.Builtins(), Options{WorkDir: t.TempDir(), Scope: trace.Scope{Rec: rec}})
			_, err := c.CheckSourceContext(ctx, tc.src)
			if err == nil || tc.cancel && !errors.Is(err, context.Canceled) {
				t.Fatalf("check returned %v", err)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			var span struct {
				Args map[string]any `json:"args"`
			}
			for _, line := range bytes.Split(jsonl.Bytes(), []byte("\n")) {
				if bytes.Contains(line, []byte(`"name":"`+tc.span+`"`)) {
					if err := json.Unmarshal(line, &span); err != nil {
						t.Fatal(err)
					}
				}
			}
			if msg, _ := span.Args["error"].(string); msg == "" || tc.prefix+msg != err.Error() {
				t.Fatalf("%s span args %v, want the error %q behind %q; trace:\n%s", tc.span, span.Args, err, tc.prefix, jsonl.Bytes())
			}
		})
	}
}
