package cfet

import (
	"testing"

	"github.com/grapple-system/grapple/internal/callgraph"
	"github.com/grapple-system/grapple/internal/constraint"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/smt"
	"github.com/grapple-system/grapple/internal/symbolic"
)

func buildICFET(t *testing.T, src string) (*ICFET, *symbolic.Table, *ir.Program) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := lang.Resolve(prog)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Lower(info, ir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = callgraph.Build(p)
	tab := symbolic.NewTable()
	ic, err := Build(p, tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ic, tab, p
}

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
}`

// TestFigure5aCFETShape checks the CFET of the paper's Fig. 3b program
// matches Fig. 5a: root 0 with cond x>=0; children 1 (false) and 2 (true)
// with conds x+1>0 and x-1>0; leaves 3..6.
func TestFigure5aCFETShape(t *testing.T) {
	ic, tab, _ := buildICFET(t, figure3b)
	m := ic.Method("main")
	if m == nil {
		t.Fatal("no main CFET")
	}
	root := m.Node(0)
	if root == nil || !root.HasCond {
		t.Fatal("root must carry the first conditional")
	}
	if got := root.Cond.String(tab); got != "main.x$0 >= 0" && got != "main.x >= 0" {
		// Symbol naming is table-dependent; check structure instead.
		if root.Cond.Op != constraint.GE {
			t.Fatalf("root cond = %s", got)
		}
	}
	n1, n2 := m.Node(1), m.Node(2)
	if n1 == nil || n2 == nil {
		t.Fatalf("children missing: %v", m.NodeIDs)
	}
	// Node 2 (true child): y = x-1, cond y>0 i.e. x-1>0.
	if !n2.HasCond || n2.Cond.Op != constraint.GT {
		t.Fatalf("node 2 cond: %+v", n2.Cond)
	}
	// Leaves 3,4,5,6 exist.
	for _, id := range []uint64{3, 4, 5, 6} {
		n := m.Node(id)
		if n == nil {
			t.Fatalf("leaf %d missing", id)
		}
		if n.Leaf != LeafReturn {
			t.Fatalf("leaf %d kind = %v", id, n.Leaf)
		}
	}
	if len(m.Nodes) != 7 {
		t.Fatalf("CFET has %d nodes, want 7", len(m.Nodes))
	}
	// The true-true leaf (node 6) contains the write/close events.
	var events int
	for _, ps := range m.Node(6).Stmts {
		if _, ok := ps.Stmt.(*ir.Event); ok {
			events++
		}
	}
	if events != 2 {
		t.Fatalf("node 6 has %d events, want 2", events)
	}
}

// TestFigure3bPathFeasibility reproduces §2.1: the third path (else branch
// then the second if taken) is infeasible; the first path is feasible.
func TestFigure3bPathFeasibility(t *testing.T) {
	ic, _, _ := buildICFET(t, figure3b)
	m := ic.Method("main")
	solver := smt.New(smt.DefaultOptions())

	// Path 0 -> 2 -> 6 (true, true): feasible (x big).
	c, err := m.PathConstraint(0, 6, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := solver.Solve(c); got != smt.Sat {
		t.Fatalf("path 0->6: %v, want sat", got)
	}
	// Path 0 -> 1 -> 4 (false branch, then true): infeasible: x<0 && x+1>0.
	c, err = m.PathConstraint(0, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := solver.Solve(c); got != smt.Unsat {
		t.Fatalf("infeasible path 0->4: %v, want unsat", got)
	}
	// Path 0 -> 1 -> 3 (false, false): feasible.
	c, err = m.PathConstraint(0, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := solver.Solve(c); got != smt.Sat {
		t.Fatalf("path 0->3: %v, want sat", got)
	}
}

// figure6 is the paper's Fig. 6 code snippet.
const figure6 = `
fun bar(a: int): int {
  if (a < 0) {
    return a + 1;
  }
  return a - 1;
}
fun foo(x: int) {
  var y: int = x + 1;
  if (x > 0) {
    y = bar(2 * x);
  }
  if (y < 0) {
    return;
  }
  return;
}`

// TestFigure6InterproceduralEncoding reproduces the paper's §3.2 example:
// the path taking bar's a<0 branch then !(y<0) decodes to
// x>0 && a=2x && a<0 && y=a+1 && !(y<0), which is unsatisfiable, while the
// a>=0 variant is satisfiable.
func TestFigure6InterproceduralEncoding(t *testing.T) {
	ic, tab, _ := buildICFET(t, figure6)
	foo, bar := ic.Method("foo"), ic.Method("bar")
	if foo == nil || bar == nil {
		t.Fatal("methods missing")
	}
	// Find the call edge foo -> bar. It lives in foo's node 2 (true child).
	var ce *CallEdge
	for _, c := range ic.CallEdges {
		if ic.Methods[c.Caller].Name == "foo" {
			ce = c
		}
	}
	if ce == nil {
		t.Fatal("no call edge foo->bar")
	}
	if ce.CallerNode != 2 {
		t.Fatalf("call edge in node %d, want 2 (true child)", ce.CallerNode)
	}
	if len(ce.ParamEqs) != 1 {
		t.Fatalf("param eqs: %+v", ce.ParamEqs)
	}
	if ce.RetSym == symbolic.NoSym {
		t.Fatal("bar returns an int; RetSym required")
	}

	solver := smt.New(smt.DefaultOptions())

	// bar's CFET: root cond a<0; true child 2 returns a+1; false child 1
	// returns a-1.
	// Infeasible encoding: [foo0,foo2] (ce [bar0,bar2] )ce [foo2,foo5]
	// (foo node 5 is the false child of node 2, i.e. !(y<0)).
	enc := Enc{
		Interval(foo.Method, 0, 2),
		CallElem(ce.ID),
		Interval(bar.Method, 0, 2),
		RetElem(ce.ID),
		Interval(foo.Method, 2, 5),
	}
	c, err := ic.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got := solver.Solve(c); got != smt.Unsat {
		t.Fatalf("paper's infeasible path decoded to %q -> %v, want unsat", c.String(tab), got)
	}

	// Feasible variant: bar takes the a>=0 branch (leaf 1, returns a-1).
	enc2 := Enc{
		Interval(foo.Method, 0, 2),
		CallElem(ce.ID),
		Interval(bar.Method, 0, 1),
		RetElem(ce.ID),
		Interval(foo.Method, 2, 5),
	}
	c2, err := ic.Decode(enc2)
	if err != nil {
		t.Fatal(err)
	}
	if got := solver.Solve(c2); got != smt.Sat {
		t.Fatalf("feasible path decoded to %q -> %v, want sat", c2.String(tab), got)
	}
}

func TestParentChildAlgebra(t *testing.T) {
	for n := uint64(0); n < 2000; n++ {
		if Parent(2*n+1) != n || Parent(2*n+2) != n {
			t.Fatalf("parent algebra broken at %d", n)
		}
		if IsTrueChild(2*n + 1) {
			t.Fatalf("%d must be a false child", 2*n+1)
		}
		if !IsTrueChild(2*n + 2) {
			t.Fatalf("%d must be a true child", 2*n+2)
		}
		if !IsAncestorOrEqual(n, 2*n+1) || !IsAncestorOrEqual(n, 2*n+2) {
			t.Fatal("children must descend from parent")
		}
	}
	if !IsAncestorOrEqual(0, 123456) {
		t.Fatal("root is everyone's ancestor")
	}
	if IsAncestorOrEqual(1, 2) || IsAncestorOrEqual(2, 1) {
		t.Fatal("siblings are not related")
	}
}

func TestMergeCase1(t *testing.T) {
	ic := &ICFET{MaxEncLen: 64}
	got, ok := ic.Merge(Enc{Interval(0, 0, 2)}, Enc{Interval(0, 2, 6)})
	if !ok || !got.Equal(Enc{Interval(0, 0, 6)}) {
		t.Fatalf("case 1: %v %v", got, ok)
	}
	// Ancestor gap also joins: [0,1] + [3,3] where 1 is parent of 3.
	got, ok = ic.Merge(Enc{Interval(0, 0, 1)}, Enc{Interval(0, 3, 3)})
	if !ok || !got.Equal(Enc{Interval(0, 0, 3)}) {
		t.Fatalf("ancestor join: %v %v", got, ok)
	}
}

func TestMergeCase2(t *testing.T) {
	ic := &ICFET{MaxEncLen: 64}
	got, ok := ic.Merge(Enc{Interval(0, 0, 2)}, Enc{CallElem(7), Interval(1, 0, 0)})
	want := Enc{Interval(0, 0, 2), CallElem(7), Interval(1, 0, 0)}
	if !ok || !got.Equal(want) {
		t.Fatalf("case 2: %v", got)
	}
}

func TestMergeCase3MatchedElimination(t *testing.T) {
	ic := &ICFET{MaxEncLen: 64}
	e1 := Enc{Interval(0, 0, 2), CallElem(7), Interval(1, 0, 0)}
	e2 := Enc{Interval(1, 0, 5), RetElem(7), Interval(0, 2, 6)}
	got, ok := ic.Merge(e1, e2)
	if !ok || !got.Equal(Enc{Interval(0, 0, 6)}) {
		t.Fatalf("case 3: %v %v", got, ok)
	}
}

func TestMergeCase4UnmatchedCalls(t *testing.T) {
	ic := &ICFET{MaxEncLen: 64}
	e1 := Enc{Interval(0, 0, 2), CallElem(7), Interval(1, 0, 0)}
	e2 := Enc{Interval(1, 0, 1), CallElem(9), Interval(2, 0, 0)}
	got, ok := ic.Merge(e1, e2)
	want := Enc{Interval(0, 0, 2), CallElem(7), Interval(1, 0, 1), CallElem(9), Interval(2, 0, 0)}
	if !ok || !got.Equal(want) {
		t.Fatalf("case 4: %v", got)
	}
}

func TestMergeConflictingBranches(t *testing.T) {
	ic := &ICFET{MaxEncLen: 64}
	// [0,4] ends in node 4's subtree; [0,3] in node 3's: siblings at 3/4
	// under parent 1; node 4's parent is 1 too. 3 and 4 are siblings.
	_, ok := ic.Merge(Enc{Interval(0, 0, 3)}, Enc{Interval(0, 4, 4)})
	if ok {
		t.Fatal("conflicting sibling fragments must not merge")
	}
}

func TestMergeEmpty(t *testing.T) {
	ic := &ICFET{MaxEncLen: 64}
	e := Enc{Interval(0, 0, 2)}
	if got, ok := ic.Merge(nil, e); !ok || !got.Equal(e) {
		t.Fatal("empty left")
	}
	if got, ok := ic.Merge(e, nil); !ok || !got.Equal(e) {
		t.Fatal("empty right")
	}
}

func TestMergeNestedElimination(t *testing.T) {
	ic := &ICFET{MaxEncLen: 64}
	// Two-level nesting: ( 1 ( 2 ... )2 )1 collapses fully.
	e1 := Enc{Interval(0, 0, 0), CallElem(1), Interval(1, 0, 0), CallElem(2), Interval(2, 0, 0)}
	e2 := Enc{Interval(2, 0, 1), RetElem(2), Interval(1, 0, 2), RetElem(1), Interval(0, 0, 2)}
	got, ok := ic.Merge(e1, e2)
	if !ok || !got.Equal(Enc{Interval(0, 0, 2)}) {
		t.Fatalf("nested elimination: %v %v", got, ok)
	}
}

func TestDecodeRepeatedCalleeInstancesIndependent(t *testing.T) {
	// Calling bar twice with different arguments must not conflate the two
	// activations of bar's parameter.
	src := `
fun bar(a: int): int {
  if (a < 0) {
    return 0 - a;
  }
  return a;
}
fun foo(x: int) {
  var p: int = bar(x);
  var q: int = bar(0 - x);
  if (p + q < 0) {
    return;
  }
  return;
}`
	ic, tab, _ := buildICFET(t, src)
	foo := ic.Method("foo")
	var calls []*CallEdge
	for _, c := range ic.CallEdges {
		if ic.Methods[c.Caller].Name == "foo" {
			calls = append(calls, c)
		}
	}
	if len(calls) != 2 {
		t.Fatalf("expected 2 call edges, got %d", len(calls))
	}
	// Path: first call takes a<0 branch (leaf 2... bar true child 2), second
	// call takes a>=0 branch (leaf 1). With x<0... either way both
	// activations must use independent "a" symbols: conjunction
	// a1 = x && a1 < 0 && a2 = -x && a2 >= 0 is satisfiable (x<0).
	enc := Enc{
		Interval(foo.Method, 0, 0),
		CallElem(calls[0].ID),
		Interval(ic.Method("bar").Method, 0, 2),
		RetElem(calls[0].ID),
		CallElem(calls[1].ID),
		Interval(ic.Method("bar").Method, 0, 1),
		RetElem(calls[1].ID),
	}
	c, err := ic.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	solver := smt.New(smt.DefaultOptions())
	if got := solver.Solve(c); got != smt.Sat {
		t.Fatalf("independent activations should be sat, got %v: %s", got, c.String(tab))
	}
}

func TestBudgetTruncation(t *testing.T) {
	// 40 sequential branches would need 2^41 nodes; the budget truncates.
	src := "fun f(x: int) {\n"
	for i := 0; i < 40; i++ {
		src += "  if (x > 0) { x = x + 1; } else { x = x - 1; }\n"
	}
	src += "  return;\n}"
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := lang.Resolve(prog)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Lower(info, ir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ic, err := Build(p, symbolic.NewTable(), Options{MaxNodesPerMethod: 255})
	if err != nil {
		t.Fatal(err)
	}
	m := ic.Method("f")
	if len(m.Nodes) > 256 {
		t.Fatalf("budget exceeded: %d nodes", len(m.Nodes))
	}
	if m.Truncated == 0 {
		t.Fatal("expected truncation")
	}
}

func TestLeafKinds(t *testing.T) {
	src := `
type E;
fun f(x: int) {
  if (x > 0) {
    throw new E();
  }
  return;
}`
	ic, _, _ := buildICFET(t, src)
	m := ic.Method("f")
	kinds := map[LeafKind]int{}
	for _, l := range m.Leaves {
		kinds[m.Node(l).Leaf]++
	}
	if kinds[LeafThrow] != 1 || kinds[LeafReturn] != 1 {
		t.Fatalf("leaf kinds: %v", kinds)
	}
}

func TestEncString(t *testing.T) {
	ic, _, _ := buildICFET(t, figure6)
	enc := Enc{Interval(ic.Method("foo").Method, 0, 2), CallElem(0)}
	s := enc.String(ic)
	if s == "" || s == "{}" {
		t.Fatalf("bad render %q", s)
	}
	if (Enc{}).String(ic) != "{}" {
		t.Fatal("empty encoding renders {}")
	}
}

func TestDecodeLenientOnUnmatchedStructure(t *testing.T) {
	ic, _, _ := buildICFET(t, figure6)
	foo := ic.Method("foo")
	var ce *CallEdge
	for _, c := range ic.CallEdges {
		if ic.Methods[c.Caller].Name == "foo" {
			ce = c
		}
	}
	// Unmatched return with no preceding call: decoded leniently (weaker
	// constraint, never an error).
	enc := Enc{Interval(foo.Method, 0, 2), RetElem(ce.ID)}
	if _, err := ic.Decode(enc); err != nil {
		t.Fatalf("unmatched return must be lenient: %v", err)
	}
	// Fragments from different methods without connecting call edges.
	bar := ic.Method("bar")
	enc2 := Enc{Interval(foo.Method, 0, 2), Interval(bar.Method, 0, 1)}
	if _, err := ic.Decode(enc2); err != nil {
		t.Fatalf("cross-method fragments must be lenient: %v", err)
	}
}

func TestDecodeErrorsOnBadIDs(t *testing.T) {
	ic, _, _ := buildICFET(t, figure6)
	if _, err := ic.Decode(Enc{Interval(99, 0, 1)}); err == nil {
		t.Fatal("bad method ID must error")
	}
	if _, err := ic.Decode(Enc{CallElem(9999)}); err == nil {
		t.Fatal("bad call ID must error")
	}
	if _, err := ic.Decode(Enc{RetElem(9999)}); err == nil {
		t.Fatal("bad ret ID must error")
	}
}

func TestPathConstraintNonAncestorErrors(t *testing.T) {
	ic, _, _ := buildICFET(t, figure3b)
	m := ic.Method("main")
	// Node 1 is not an ancestor of node 2 (siblings).
	if _, err := m.PathConstraint(1, 2, nil, nil); err == nil {
		t.Fatal("sibling interval must error")
	}
}

func TestEliminableKeepsEquationBearingCalls(t *testing.T) {
	ic, _, _ := buildICFET(t, figure6)
	foo, bar := ic.Method("foo"), ic.Method("bar")
	var ce *CallEdge
	for _, c := range ic.CallEdges {
		if ic.Methods[c.Caller].Name == "foo" {
			ce = c
		}
	}
	// bar binds a parameter and a return value: the completed pair must
	// survive reduction so its equations keep constraining the caller.
	e1 := Enc{Interval(foo.Method, 0, 2), CallElem(ce.ID), Interval(bar.Method, 0, 0)}
	e2 := Enc{Interval(bar.Method, 0, 1), RetElem(ce.ID), Interval(foo.Method, 2, 5)}
	merged, ok := ic.Merge(e1, e2)
	if !ok {
		t.Fatal("merge failed")
	}
	calls := 0
	for _, el := range merged {
		if el.Kind == KCall || el.Kind == KRet {
			calls++
		}
	}
	if calls != 2 {
		t.Fatalf("equation-bearing pair eliminated: %v", merged.String(ic))
	}
}
