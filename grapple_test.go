package grapple

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const leaky = `
type FileWriter;
fun main() {
  var w: FileWriter = new FileWriter();
  w.write();
  return;
}`

func TestCheckBuiltins(t *testing.T) {
	res, err := Check(leaky, BuiltinCheckers(), Options{WorkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 || res.Reports[0].Kind != KindLeak {
		t.Fatalf("reports: %v", res.Reports)
	}
	if res.TrackedObjects != 1 {
		t.Fatalf("tracked: %d", res.TrackedObjects)
	}
	if res.Alias.EdgesAfter == 0 || res.Dataflow.EdgesAfter == 0 {
		t.Fatal("phase stats empty")
	}
}

func TestCheckFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prog.ml")
	if err := os.WriteFile(path, []byte(leaky), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := CheckFile(path, BuiltinCheckers(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 {
		t.Fatalf("reports: %v", res.Reports)
	}
	if _, err := CheckFile(filepath.Join(t.TempDir(), "missing.ml"), nil, Options{}); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestCustomFSMAPI(t *testing.T) {
	f, err := NewFSM("session", "Session", "Fresh", "Active", "Ended")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetInit("Fresh"); err != nil {
		t.Fatal(err)
	}
	if err := f.SetAccept("Fresh", "Ended"); err != nil {
		t.Fatal(err)
	}
	for _, tr := range [][3]string{
		{"Fresh", "new", "Fresh"},
		{"Fresh", "begin", "Active"},
		{"Active", "use", "Active"},
		{"Active", "end", "Ended"},
	} {
		if err := f.AddTransition(tr[0], tr[1], tr[2]); err != nil {
			t.Fatal(err)
		}
	}
	if f.Name() != "session" || f.Type() != "Session" {
		t.Fatal("accessors wrong")
	}
	src := `
type Session;
fun main() {
  var s: Session = new Session();
  s.begin();
  s.use();
  return;
}`
	res, err := Check(src, []*FSM{f}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 || res.Reports[0].Kind != KindLeak {
		t.Fatalf("unended session must leak: %v", res.Reports)
	}
}

func TestParseFSMsAPI(t *testing.T) {
	fs, err := ParseFSMs(`
fsm io for FileWriter {
  states Init Open Close;
  init Init;
  accept Init Close;
  new:   Init -> Open;
  close: Open -> Close;
}`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Check(leaky, fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// write is undefined for this stripped FSM: Error transition expected.
	if len(res.Reports) != 1 || res.Reports[0].Kind != KindError {
		t.Fatalf("reports: %v", res.Reports)
	}
}

func TestBindOption(t *testing.T) {
	src := `
type AuditLog;
fun main() {
  var l: AuditLog = new AuditLog();
  l.write();
  return;
}`
	res, err := Check(src, BuiltinCheckers(), Options{Bind: map[string]string{"AuditLog": "io"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 {
		t.Fatalf("bound type not tracked: %v", res.Reports)
	}
}

func TestParseErrorSurfaces(t *testing.T) {
	_, err := Check("fun main( {", BuiltinCheckers(), Options{})
	if err == nil || !strings.Contains(err.Error(), "parse") {
		t.Fatalf("want parse error, got %v", err)
	}
}

func TestDisableCacheStillCorrect(t *testing.T) {
	a, err := Check(leaky, BuiltinCheckers(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Check(leaky, BuiltinCheckers(), Options{DisableConstraintCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Reports) != len(b.Reports) {
		t.Fatal("cache must not change results")
	}
	if b.Dataflow.CacheLookups != 0 {
		t.Fatal("cache was consulted while disabled")
	}
}

// TestGoInputHonoursUnrollDepth: Go input is lowered under Options.UnrollDepth
// like MiniLang is, so a deeper unroll of a loop that branches gives the CFET
// more paths to encode.
func TestGoInputHonoursUnrollDepth(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loop.go")
	src := `package loop

import "os"

func Touch(names []string, n int) error {
	for i := 0; i < n; i++ {
		f, err := os.Open(names[i])
		if err != nil {
			return err
		}
		if i > 2 {
			f.Close()
			continue
		}
		f.Close()
	}
	return nil
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	prev := 0
	for _, depth := range []int{1, 2, 4} {
		res, _, err := CheckGoFiles([]string{path}, []string{"file-handle"}, Options{UnrollDepth: depth})
		if err != nil {
			t.Fatal(err)
		}
		paths := res.Alias.CFETPaths
		t.Logf("unroll depth %d: %d CFET paths", depth, paths)
		if paths <= prev {
			t.Fatalf("unroll depth %d gives %d CFET paths, not more than the %d of the shallower unroll", depth, paths, prev)
		}
		prev = paths
	}
}

// TestCheckGoCheckerPackage checks internal/checker with the mutex pack. The
// package binds closures to variables and then uses them as values
// (Checker.PrepareIR's drop), which the Go frontend once lowered into a
// reference to a variable it never declared: resolve failed and the check
// exited 2.
func TestCheckGoCheckerPackage(t *testing.T) {
	res, _, err := CheckGoPackage(filepath.Join("internal", "checker"), []string{"mutex"}, Options{WorkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d reports", len(res.Reports))
}

func TestQueryPointsTo(t *testing.T) {
	src := `
type R;
fun pick(a: R, b: R, n: int): R {
  if (n > 0) {
    return a;
  }
  return b;
}
fun main() {
  var x: R = new R();
  var y: R = new R();
  var z: R = pick(x, y, input());
  return;
}`
	res, err := Check(src, BuiltinCheckers(), Options{RecordPointsTo: true})
	if err != nil {
		t.Fatal(err)
	}
	facts := res.QueryPointsTo("main", "z")
	// z may reference both allocations (via pick's two returns).
	types := map[int]bool{}
	for _, f := range facts {
		if f.ObjType != "R" {
			t.Fatalf("bad fact: %+v", f)
		}
		types[f.ObjPos.Line] = true
	}
	if len(types) != 2 {
		t.Fatalf("z should point to 2 allocation sites, got %d (%+v)", len(types), facts)
	}
	// Without the option, nothing is recorded.
	res2, err := Check(src, BuiltinCheckers(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.PointsTo) != 0 {
		t.Fatal("facts recorded without opt-in")
	}
}
