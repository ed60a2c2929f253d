package ir

import (
	"strings"
	"testing"

	"github.com/grapple-system/grapple/internal/lang"
)

func mustLower(t *testing.T, src string, opts Options) *Program {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := lang.Resolve(prog)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	p, err := Lower(info, opts)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p
}

func TestLowerFigure3b(t *testing.T) {
	src := `
type FileWriter;
fun main() {
  var out: FileWriter = null;
  var o: FileWriter = null;
  var x: int = input();
  var y: int = x;
  if (x >= 0) {
    out = new FileWriter();
    o = out;
    y = y - 1;
  } else {
    y = y + 1;
  }
  if (y > 0) {
    out.write();
    o.close();
  }
  return;
}`
	p := mustLower(t, src, Options{})
	main := p.FunByName["main"]
	d := Dump(main)
	for _, want := range []string{
		"x = opaque()",
		"y = x",
		"if x >= 0 {",
		"out = new FileWriter() [site 0]",
		"o = out",
		"if y > 0 {",
		"event out.write()",
		"event o.close()",
	} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
	if p.NumAllocSites != 1 {
		t.Errorf("alloc sites = %d", p.NumAllocSites)
	}
}

func TestLowerShortCircuit(t *testing.T) {
	src := `
fun f(a: int, b: int) {
  if (a > 0 && b > 0) {
    return;
  }
  return;
}`
	p := mustLower(t, src, Options{})
	d := Dump(p.FunByName["f"])
	// a>0 && b>0 becomes nested ifs.
	if !strings.Contains(d, "if a > 0 {") {
		t.Fatalf("missing outer if:\n%s", d)
	}
	if strings.Count(d, "if b > 0 {") != 1 {
		t.Fatalf("inner if count wrong:\n%s", d)
	}
}

func TestLowerOrDuplicatesThen(t *testing.T) {
	src := `
type R;
fun f(a: int) {
  var r: R = null;
  if (a > 0 || a < -5) {
    r = new R();
  }
  return;
}`
	p := mustLower(t, src, Options{})
	d := Dump(p.FunByName["f"])
	// then-branch is duplicated, but both copies keep allocation site 0.
	if got := strings.Count(d, "new R() [site 0]"); got != 2 {
		t.Fatalf("want 2 copies of site 0, got %d:\n%s", got, d)
	}
}

func TestLowerWhileUnroll(t *testing.T) {
	src := `
fun f(n: int) {
  var i: int = 0;
  while (i < n) {
    i = i + 1;
  }
  return;
}`
	p := mustLower(t, src, Options{UnrollDepth: 3})
	d := Dump(p.FunByName["f"])
	if got := strings.Count(d, "if i < n {"); got != 3 {
		t.Fatalf("unroll depth: got %d conditionals\n%s", got, d)
	}
}

func TestLowerTempsFlattenExpressions(t *testing.T) {
	src := `fun f(a: int, b: int): int { return a + b * 2 - 1; }`
	p := mustLower(t, src, Options{})
	d := Dump(p.FunByName["f"])
	if !strings.Contains(d, "$t3 = b * 2") {
		t.Fatalf("expected temp for b*2:\n%s", d)
	}
	if !strings.Contains(d, "return $t1") {
		t.Fatalf("expected flattened return:\n%s", d)
	}
}

func TestExceptionLocalCatch(t *testing.T) {
	src := `
type IOError;
fun main() {
  var log: IOError = null;
  try {
    throw new IOError();
  } catch (e: IOError) {
    log = e;
  }
  return;
}`
	p := mustLower(t, src, Options{})
	main := p.FunByName["main"]
	if main.MayThrow {
		t.Fatal("fully handled throw must not mark MayThrow")
	}
	d := Dump(main)
	if !strings.Contains(d, "e = $t1") {
		t.Errorf("handler should bind thrown object:\n%s", d)
	}
	if !strings.Contains(d, "catch-bind e [from call -1]") {
		t.Errorf("missing catch-bind:\n%s", d)
	}
	if strings.Contains(d, "throw-exit") {
		t.Errorf("no exceptional exit expected:\n%s", d)
	}
	// Control continues after the try: the trailing return must be present.
	if !strings.Contains(d, "return") {
		t.Errorf("missing return:\n%s", d)
	}
}

func TestExceptionUncaughtPropagates(t *testing.T) {
	src := `
type IOError;
fun risky() {
  throw new IOError();
}
fun caller() {
  risky();
  return;
}
fun main() {
  try {
    caller();
  } catch (e) {
    return;
  }
  return;
}`
	p := mustLower(t, src, Options{})
	if !p.FunByName["risky"].MayThrow {
		t.Fatal("risky must be MayThrow")
	}
	if !p.FunByName["caller"].MayThrow {
		t.Fatal("caller must inherit MayThrow")
	}
	if p.FunByName["main"].MayThrow {
		t.Fatal("main handles the exception")
	}
	dRisky := Dump(p.FunByName["risky"])
	if !strings.Contains(dRisky, "$exc = $t1") || !strings.Contains(dRisky, "throw-exit") {
		t.Errorf("risky should set $exc and exceptional-exit:\n%s", dRisky)
	}
	dCaller := Dump(p.FunByName["caller"])
	if !strings.Contains(dCaller, "if opq") {
		t.Errorf("caller should branch on opaque throw condition:\n%s", dCaller)
	}
	if !strings.Contains(dCaller, "catch-bind $exc [from call") {
		t.Errorf("caller should propagate callee exc:\n%s", dCaller)
	}
	dMain := Dump(p.FunByName["main"])
	if !strings.Contains(dMain, "catch-bind e [from call") {
		t.Errorf("main should catch callee exc:\n%s", dMain)
	}
	if strings.Contains(dMain, "throw-exit") {
		t.Errorf("main must not exit exceptionally:\n%s", dMain)
	}
}

func TestExceptionRaiseSkipsRestOfTry(t *testing.T) {
	src := `
type E;
type R;
fun main() {
  var r: R = null;
  var x: int = input();
  try {
    if (x > 0) {
      throw new E();
    }
    r = new R();
  } catch (e: E) {
    x = 0;
  }
  return;
}`
	p := mustLower(t, src, Options{})
	d := Dump(p.FunByName["main"])
	// In the then-branch (throw), "r = new R()" must not appear after the
	// inlined handler; in the else-branch it must.
	idx := strings.Index(d, "catch-bind e")
	if idx < 0 {
		t.Fatalf("missing catch-bind:\n%s", d)
	}
	// After the handler inline, x = 0 appears; then the branch ends. The
	// allocation belongs only to the non-throwing branch.
	thenPart := d[:idx]
	if strings.Contains(thenPart, "new R()") {
		t.Errorf("allocation leaked into throw path:\n%s", d)
	}
	if !strings.Contains(d, "new R()") {
		t.Errorf("allocation missing entirely:\n%s", d)
	}
}

func TestExceptionTypeMismatchPropagates(t *testing.T) {
	src := `
type A;
type B;
fun main() {
  try {
    throw new B();
  } catch (e: A) {
    return;
  }
  return;
}`
	p := mustLower(t, src, Options{})
	if !p.FunByName["main"].MayThrow {
		t.Fatal("B is not caught by catch(A); main must be MayThrow")
	}
	d := Dump(p.FunByName["main"])
	if !strings.Contains(d, "throw-exit") {
		t.Errorf("expected exceptional exit:\n%s", d)
	}
}

func TestNestedTryInnerHandler(t *testing.T) {
	src := `
type A;
fun main() {
  var n: int = 0;
  try {
    try {
      throw new A();
    } catch (e1: A) {
      n = 1;
    }
    n = 2;
  } catch (e2) {
    n = 3;
  }
  return;
}`
	p := mustLower(t, src, Options{})
	d := Dump(p.FunByName["main"])
	if !strings.Contains(d, "catch-bind e1") {
		t.Errorf("inner handler must catch:\n%s", d)
	}
	if strings.Contains(d, "catch-bind e2") {
		t.Errorf("outer handler must not trigger:\n%s", d)
	}
	// After inner catch, n = 2 (rest of outer try) must still run.
	if !strings.Contains(d, "n = 2") {
		t.Errorf("continuation after inner try lost:\n%s", d)
	}
}

func TestCallArgumentClassification(t *testing.T) {
	src := `
type Conn;
fun use(c: Conn, n: int) { return; }
fun main() {
  var c: Conn = new Conn();
  use(c, 3 + 4);
  return;
}`
	p := mustLower(t, src, Options{})
	d := Dump(p.FunByName["main"])
	if !strings.Contains(d, "call use(c->c, $t1->n) [site 0]") {
		t.Errorf("call lowering wrong:\n%s", d)
	}
}

func TestCloneBlockIndependence(t *testing.T) {
	b := &Block{Stmts: []Stmt{
		&If{Cond: BoolCond("b", 1), Then: &Block{Stmts: []Stmt{&ObjAssign{Dst: "x", Src: "y"}}}, Else: &Block{}},
	}}
	c := cloneBlock(b)
	c.Stmts[0].(*If).Then.Stmts[0].(*ObjAssign).Dst = "z"
	if b.Stmts[0].(*If).Then.Stmts[0].(*ObjAssign).Dst != "x" {
		t.Fatal("clone is not deep")
	}
}

func TestBoolVariableConditions(t *testing.T) {
	src := `
fun f(x: int) {
  var ok: bool = x > 0;
  if (ok) {
    return;
  }
  return;
}`
	p := mustLower(t, src, Options{})
	d := Dump(p.FunByName["f"])
	if !strings.Contains(d, "ok = x > 0") {
		t.Errorf("bool assignment:\n%s", d)
	}
	if !strings.Contains(d, "if ok {") {
		t.Errorf("bool condition:\n%s", d)
	}
}

func TestOpaqueNullCheck(t *testing.T) {
	src := `
type R;
fun f() {
  var r: R = null;
  if (r == null) {
    r = new R();
  }
  return;
}`
	p := mustLower(t, src, Options{})
	d := Dump(p.FunByName["f"])
	if !strings.Contains(d, "if opq") {
		t.Errorf("null check should lower to opaque condition:\n%s", d)
	}
}
