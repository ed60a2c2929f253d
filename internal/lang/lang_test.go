package lang

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

// figure3b is the paper's Fig. 3b example transcribed into MiniLang.
const figure3b = `
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
}
`

// Fun returns the declared function with the given name, or nil.
func (p *Program) Fun(name string) *FunDecl {
	for _, f := range p.Funs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Tokenize scans all of src into a slice. The parser streams from the lexer
// and never builds this; it survives here for the lexer tests.
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	var toks []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

// TestDecimalMatchesParseInt: decimal, which the parser reads int literals
// with, accepts what strconv.ParseInt accepts, with its value, on the
// values around int64's bound and on runs of nines and powers of ten of up
// to 20 digits.
func TestDecimalMatchesParseInt(t *testing.T) {
	cases := []string{"0", "7", "007", "10", "4294967296", "9223372036854775799",
		"9223372036854775806", "9223372036854775807", "9223372036854775808",
		"9223372036854775809", "9223372036854775810", "9999999999999999999",
		"18446744073709551615", "18446744073709551616", "99999999999999999999",
		"00000000000000000000009223372036854775807", "999999999999999999999999"}
	for n := 1; n <= 20; n++ {
		cases = append(cases, strings.Repeat("9", n), "1"+strings.Repeat("0", n-1))
	}
	for _, s := range cases {
		got, ok := decimal(s)
		want, err := strconv.ParseInt(s, 10, 64)
		if ok != (err == nil) || ok && got != want {
			t.Errorf("decimal(%q) = %d, %v; ParseInt gives %d, %v", s, got, ok, want, err)
		}
	}
}

func TestTokenizeBasics(t *testing.T) {
	toks, err := Tokenize("fun f(x: int) { x = x + 1; } // done")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []Kind{KwFun, IDENT, LParen, IDENT, Colon, IDENT, RParen, LBrace,
		IDENT, Assign, IDENT, Plus, INT, Semi, RBrace, EOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens want %d", len(toks), len(kinds))
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d: got %s want %s", i, toks[i].Kind, k)
		}
	}
}

func TestTokenizePositions(t *testing.T) {
	toks, err := Tokenize("fun\n  main() {}")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != (Pos{1, 1}) {
		t.Errorf("fun at %v", toks[0].Pos)
	}
	if toks[1].Pos != (Pos{2, 3}) {
		t.Errorf("main at %v", toks[1].Pos)
	}
}

func TestTokenizeComments(t *testing.T) {
	toks, err := Tokenize("/* block \n comment */ x // line\n y")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 || toks[0].Text != "x" || toks[1].Text != "y" {
		t.Fatalf("unexpected tokens %+v", toks)
	}
	if _, err := Tokenize("/* unterminated"); err == nil {
		t.Fatal("want error for unterminated comment")
	}
	if _, err := Tokenize("a @ b"); err == nil {
		t.Fatal("want error for bad character")
	}
}

func TestParseFigure3b(t *testing.T) {
	prog, err := Parse(figure3b)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Types) != 1 || prog.Types[0].Name != "FileWriter" {
		t.Fatalf("types: %+v", prog.Types)
	}
	main := prog.Fun("main")
	if main == nil {
		t.Fatal("main not found")
	}
	if len(main.Body) != 7 {
		t.Fatalf("main body has %d stmts, want 7", len(main.Body))
	}
	ifStmt, ok := main.Body[4].(*IfStmt)
	if !ok {
		t.Fatalf("stmt 4 is %T, want *IfStmt", main.Body[4])
	}
	cond, ok := ifStmt.Cond.(*Binary)
	if !ok || cond.Op != OpGe {
		t.Fatalf("first conditional: %+v", ifStmt.Cond)
	}
	if len(ifStmt.Else) != 1 {
		t.Fatalf("else branch: %d stmts", len(ifStmt.Else))
	}
}

func TestParsePrecedence(t *testing.T) {
	prog, err := Parse(`fun f(a: int, b: int): bool { return a + b * 2 < a - 1 && a > 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	ret := prog.Funs[0].Body[0].(*ReturnStmt)
	and, ok := ret.X.(*Binary)
	if !ok || and.Op != OpAnd {
		t.Fatalf("top is %+v, want &&", ret.X)
	}
	lt := and.L.(*Binary)
	if lt.Op != OpLt {
		t.Fatalf("left of && is %v", lt.Op)
	}
	add := lt.L.(*Binary)
	if add.Op != OpAdd {
		t.Fatalf("lhs is %v, want +", add.Op)
	}
	if mul := add.R.(*Binary); mul.Op != OpMul {
		t.Fatalf("rhs of + is %v, want *", mul.Op)
	}
}

func TestParseTryCatchThrow(t *testing.T) {
	src := `
type IOError;
fun risky() {
  throw new IOError();
}
fun main() {
  try {
    risky();
  } catch (e: IOError) {
    return;
  }
  return;
}`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := prog.Fun("main").Body[0].(*TryStmt)
	if !ok {
		t.Fatalf("want try, got %T", prog.Fun("main").Body[0])
	}
	if tr.CatchVar != "e" || tr.CatchType != "IOError" {
		t.Fatalf("catch clause: %q %q", tr.CatchVar, tr.CatchType)
	}
	if _, ok := prog.Fun("risky").Body[0].(*ThrowStmt); !ok {
		t.Fatal("want throw statement")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`fun f( { }`,
		`fun f() { var x int; }`,
		`fun f() { x = ; }`,
		`fun f() { 3 = x; }`,
		`fun f() { if x > 0 {} }`,
		`var x: int;`,
		`fun f() { return`,
		`fun dup() {} fun dup() {}`,
		`fun f() { x(); } fun f2() { f() }`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestResolveFigure3b(t *testing.T) {
	prog, err := Parse(figure3b)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Resolve(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !info.ObjectTypes["FileWriter"] {
		t.Fatal("FileWriter should be an object type")
	}
	main := prog.Fun("main")
	if want := []string{"FileWriter", "FileWriter", "int", "int"}; !slices.Equal(main.VarTypes, want) {
		t.Fatalf("var types by slot: %v, want %v", main.VarTypes, want)
	}
	// Declarations take slots in order, and every reference carries its
	// declaration's slot.
	for i, s := range main.Body[:4] {
		if d := s.(*VarDecl); d.Slot != int32(i+1) {
			t.Fatalf("%s has slot %d, want %d", d.Name, d.Slot, i+1)
		}
	}
	y := main.Body[3].(*VarDecl).Init.(*Ident)
	if y.Name != "x" || y.Slot != 3 {
		t.Fatalf("y's initializer %s has slot %d, want x in slot 3", y.Name, y.Slot)
	}
}

// TestResolveNumbersParamsFirst: parameters take slots 1..n in order, then
// locals and catch variables follow in declaration order.
func TestResolveNumbersParamsFirst(t *testing.T) {
	prog, err := Parse(`
type E;
fun f(a: int, e: E, b: bool) {
  var c: int = a;
  try { c = 1; } catch (x: E) { c = 2; }
  var d: bool = b;
}
fun g(z: int) { var w: int = z; }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resolve(prog); err != nil {
		t.Fatal(err)
	}
	f := prog.Fun("f")
	if want := []string{"int", "E", "bool", "int", "E", "bool"}; !slices.Equal(f.VarTypes, want) {
		t.Fatalf("f's var types by slot: %v, want %v", f.VarTypes, want)
	}
	if c := f.Body[0].(*VarDecl); c.Slot != 4 || c.Init.(*Ident).Slot != 1 {
		t.Fatalf("c in slot %d (want 4), its initializer a in slot %d (want 1)", c.Slot, c.Init.(*Ident).Slot)
	}
	if d := f.Body[2].(*VarDecl); d.Slot != 6 || d.Init.(*Ident).Slot != 3 {
		t.Fatalf("d in slot %d (want 6), its initializer b in slot %d (want 3)", d.Slot, d.Init.(*Ident).Slot)
	}
	// Numbering restarts in every function.
	g := prog.Fun("g")
	if w := g.Body[0].(*VarDecl); w.Slot != 2 || w.Init.(*Ident).Slot != 1 || g.VarType(2) != "int" {
		t.Fatalf("g: w in slot %d (want 2), z in slot %d (want 1)", w.Slot, w.Init.(*Ident).Slot)
	}
}

func TestResolveErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{`fun f() { x = 1; }`, "undeclared"},
		{`fun f() { var x: int = 1; var x: int = 2; }`, "redeclared"},
		{`fun f() { var x: int = true; }`, "cannot assign"},
		{`fun f() { var x: int = 1; if (x) {} }`, "must be bool"},
		{`fun f() { var x: int = 1; x.m(); }`, "non-object"},
		{`fun f() { var x: int = 1; var y: Obj = x.fld; }`, "non-object"},
		{`fun f() { g(); }`, "undeclared function"},
		{`fun g(a: int) {} fun f() { g(); }`, "expects 1 args"},
		{`fun f() { return 3; }`, "returns no value"},
		{`fun f(): int { return; }`, "must return"},
		{`fun f() { var x: int = 0; throw x; }`, "requires an object"},
		{`fun f() { var b: bool = true; var x: int = b + 1; }`, "requires ints"},
		{`fun f() { var x: Obj = new Obj(); var b: bool = x && x; }`, "requires bools"},
	}
	for _, tc := range cases {
		prog, err := Parse(tc.src)
		if err != nil {
			t.Errorf("parse error for %q: %v", tc.src, err)
			continue
		}
		_, err = Resolve(prog)
		if err == nil {
			t.Errorf("no resolve error for %q", tc.src)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("error %q does not contain %q", err, tc.want)
		}
	}
}

func TestResolveNullComparisons(t *testing.T) {
	src := `fun f() { var x: Obj = null; if (x == null) { x = new Obj(); } }`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resolve(prog); err != nil {
		t.Fatal(err)
	}
}
