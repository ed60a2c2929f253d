package pgraph

import (
	"fmt"
	"testing"

	"github.com/grapple-system/grapple/internal/callgraph"
	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/grammar"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/storage"
	"github.com/grapple-system/grapple/internal/symbolic"
)

func buildProgram(t *testing.T, src string, opts Options) *Program {
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
	cg := callgraph.Build(p)
	ic, err := cfet.Build(p, symbolic.NewTable(), cfet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return NewProgram(p, cg, ic, opts)
}

func TestContextTreeCloning(t *testing.T) {
	pr := buildProgram(t, `
fun helper() { return; }
fun a() { helper(); return; }
fun b() { helper(); helper(); return; }
fun main() { a(); b(); return; }
`, Options{})
	// main(1) + a(1) + b(1) + helper cloned 3 times = 6 contexts.
	if len(pr.Contexts) != 6 {
		t.Fatalf("contexts = %d, want 6: %+v", len(pr.Contexts), pr.Contexts)
	}
	byMethod := map[string]int{}
	for _, c := range pr.Contexts {
		byMethod[pr.IC.Methods[c.Method].Name]++
	}
	if byMethod["helper"] != 3 {
		t.Fatalf("helper clones = %d, want 3", byMethod["helper"])
	}
}

func TestRecursionSharedContext(t *testing.T) {
	pr := buildProgram(t, `
fun fib(n: int): int {
  if (n < 2) {
    return n;
  }
  return fib(n - 1) + fib(n - 2);
}
fun main() { fib(10); fib(20); return; }
`, Options{})
	shared := 0
	for _, c := range pr.Contexts {
		if c.Shared && pr.IC.Methods[c.Method].Name == "fib" {
			shared++
		}
	}
	if shared != 1 {
		t.Fatalf("recursive fib must have exactly 1 shared clone, got %d", shared)
	}
	// Both call sites in main map to the same shared context.
	var targets []uint32
	for _, call := range pr.CG.CallSites["main"] {
		id, ok := pr.CalleeCtx(pr.Roots[0], call.Site)
		if !ok {
			t.Fatal("missing callee ctx")
		}
		targets = append(targets, id)
	}
	if len(targets) != 2 || targets[0] != targets[1] {
		t.Fatalf("recursive call sites must share a clone: %v", targets)
	}
}

// doublingChain is a program in which main hands a new R to f<n-1>, each
// f<i> passes it on to f<i-1> from two call sites and f0 touches it: the full
// context tree clones f<i> 2^(n-1-i) times.
func doublingChain(n int) string {
	src := "type R;\nfun f0(r: R) { r.touch(); return; }\n"
	for i := 1; i < n; i++ {
		src += fmt.Sprintf("fun f%d(r: R) { f%d(r); f%d(r); return; }\n", i, i-1, i-1)
	}
	return src + fmt.Sprintf("fun main() { var r: R = new R(); f%d(r); return; }\n", n-1)
}

func TestContextBudgetOverflow(t *testing.T) {
	// 13 doubling levels want 2^13 - 1 clones of the chain, past maxContexts:
	// the tree must stop growing there and fall back to shared clones. A
	// shared clone is at most one per method on top of the budget.
	pr := buildProgram(t, doublingChain(13), Options{})
	if methods := len(pr.IC.Methods); len(pr.Contexts) > maxContexts+methods {
		t.Fatalf("budget not honored: %d contexts for %d methods", len(pr.Contexts), methods)
	}
	if pr.ContextOverflow == 0 {
		t.Fatal("expected overflow fallbacks past maxContexts")
	}
	// A linear chain deeper than maxDepth overflows on depth alone.
	src := "fun g0() { return; }\n"
	for i := 1; i <= maxDepth; i++ {
		src += fmt.Sprintf("fun g%d() { g%d(); return; }\n", i, i-1)
	}
	pr = buildProgram(t, src+fmt.Sprintf("fun main() { g%d(); return; }\n", maxDepth), Options{})
	if pr.ContextOverflow != 1 || len(pr.Contexts) > 2*maxDepth {
		t.Fatalf("depth budget: %d overflows over %d contexts, want 1", pr.ContextOverflow, len(pr.Contexts))
	}
}

func TestAliasGraphFigure5bShape(t *testing.T) {
	pr := buildProgram(t, `
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
}`, Options{})
	ag := BuildAlias(pr)
	if len(ag.Objects) != 1 {
		t.Fatalf("objects: %+v", ag.Objects)
	}
	// The paper's Fig. 5b: a new edge (object->out2), an assign (out2->o2),
	// and artificial assigns like o2->o6 with encoding [2,6].
	var newEdges, assigns, artificial int
	for _, e := range ag.Edges {
		switch e.Label {
		case ag.Ptr.New:
			newEdges++
		case ag.Ptr.Assign:
			assigns++
			if len(e.Enc) == 1 && e.Enc[0].Kind == cfet.KInterval && e.Enc[0].Start != e.Enc[0].End {
				artificial++
			}
		}
	}
	if newEdges != 1 {
		t.Fatalf("new edges = %d", newEdges)
	}
	if artificial == 0 {
		t.Fatal("no artificial cross-block assign edges generated")
	}
	// The o2 -> o6 artificial edge of Fig. 5b: from the alloc node (2) to
	// the true-true node (6).
	found := false
	for _, e := range ag.Edges {
		if e.Label == ag.Ptr.Assign && len(e.Enc) == 1 &&
			e.Enc[0].Start == 2 && e.Enc[0].End == 6 {
			found = true
		}
	}
	if !found {
		t.Fatal("missing the [2,6] artificial edge of Fig. 5b")
	}
}

func TestAliasGraphParamReturnEdges(t *testing.T) {
	pr := buildProgram(t, `
type R;
fun make(): R {
  var r: R = new R();
  return r;
}
fun use(x: R) { return; }
fun main() {
  var a: R = make();
  use(a);
  return;
}`, Options{})
	ag := BuildAlias(pr)
	var callEncs, retEncs int
	for _, e := range ag.Edges {
		if len(e.Enc) == 1 {
			switch e.Enc[0].Kind {
			case cfet.KCall:
				callEncs++
			case cfet.KRet:
				retEncs++
			}
		}
	}
	if callEncs == 0 {
		t.Fatal("no parameter-passing edges")
	}
	if retEncs == 0 {
		t.Fatal("no value-return edges")
	}
}

func TestDataflowGraphBasics(t *testing.T) {
	pr := buildProgram(t, `
type FileWriter;
fun main() {
  var w: FileWriter = new FileWriter();
  w.close();
  return;
}`, Options{})
	ag := BuildAlias(pr)
	// Hand-construct the alias result as the checker would: w flows from
	// the object definitively everywhere it appears.
	flows := AliasResult{Flows: map[ObjID][]FlowTarget{}, Pointees: map[VarKey]int{}}
	obj := ag.Objects[0]
	for vk := range ag.VarVert {
		if vk.Name == "w" {
			flows.Flows[obj.ID] = append(flows.Flows[obj.ID], FlowTarget{Var: vk})
			flows.Pointees[vk] = 1
		}
	}
	io := fsm.BuiltinIO()
	dg := BuildDataflow(pr, flows, ag, func(typ string) *fsm.FSM {
		if typ == "FileWriter" {
			return io
		}
		return nil
	})
	if len(dg.Tracked) != 1 {
		t.Fatalf("tracked = %d", len(dg.Tracked))
	}
	if len(dg.Edges) == 0 {
		t.Fatal("no dataflow edges")
	}
	// Exactly one edge carries the "new" relation out of the source.
	tr := dg.Tracked[0]
	var fromSource int
	for _, e := range dg.Edges {
		if e.Src == tr.Source {
			fromSource++
			if e.Rel != fsm.EventRel(io, "new") {
				t.Fatal("source edge must carry the new relation")
			}
		}
	}
	if fromSource != 1 {
		t.Fatalf("source out-edges = %d", fromSource)
	}
}

func TestDataflowUntypedObjectsSkipped(t *testing.T) {
	pr := buildProgram(t, `
type Plain;
fun main() {
  var p: Plain = new Plain();
  return;
}`, Options{})
	ag := BuildAlias(pr)
	dg := BuildDataflow(pr, AliasResult{Flows: map[ObjID][]FlowTarget{}, Pointees: map[VarKey]int{}},
		ag, func(string) *fsm.FSM { return nil })
	if len(dg.Tracked) != 0 || len(dg.Edges) != 0 {
		t.Fatalf("untracked type produced a graph: %d tracked", len(dg.Tracked))
	}
}

func TestFindCallEdgeWalksAncestors(t *testing.T) {
	pr := buildProgram(t, `
type E;
fun risky() { throw new E(); }
fun main() {
  try {
    risky();
  } catch (e) {
    return;
  }
  return;
}`, Options{})
	m := pr.Method(pr.Roots[0])
	// The CatchBind lives in the true child of the call node; findCallEdge
	// must locate the call edge by walking up.
	var checked bool
	for _, n := range m.Nodes {
		for _, ps := range n.Stmts {
			if cb, ok := ps.Stmt.(*ir.CatchBind); ok && cb.FromCall >= 0 {
				if ce := findCallEdge(m, n.ID, cb.FromCall); ce < 0 {
					t.Fatal("findCallEdge failed")
				}
				checked = true
			}
		}
	}
	if !checked {
		t.Fatal("no CatchBind found")
	}
}

func TestAliasEdgesHaveValidVertices(t *testing.T) {
	pr := buildProgram(t, `
type R;
fun id(x: R): R { return x; }
fun main() {
  var a: R = new R();
  var b: R = id(a);
  b.use();
  return;
}`, Options{})
	ag := BuildAlias(pr)
	for _, e := range ag.Edges {
		if e.Src >= ag.NumVerts || e.Dst >= ag.NumVerts {
			t.Fatalf("edge %v out of vertex range %d", e, ag.NumVerts)
		}
	}
	// Reverse tables must be consistent.
	if len(ag.RevVar) != int(ag.NumVerts) {
		t.Fatalf("revvar len %d != %d", len(ag.RevVar), ag.NumVerts)
	}
	for v, o := range ag.RevObj {
		if ag.RevVar[v] != nil {
			t.Fatalf("vertex %d is both var and obj %v", v, o)
		}
	}
}

var _ = storage.Edge{} // used via ag.Edges type

func TestGrammarLabelsAgree(t *testing.T) {
	pr := buildProgram(t, `
type R;
fun main() {
  var a: R = new R();
  var b: R = a;
  var c: Box = new Box();
  c.f = b;
  var d: R = c.f;
  return;
}
type Box;`, Options{})
	ag := BuildAlias(pr)
	var stores, loads int
	for _, e := range ag.Edges {
		switch e.Label {
		case ag.Ptr.Store["f"]:
			stores++
		case ag.Ptr.Load["f"]:
			loads++
		}
	}
	if stores != 1 || loads != 1 {
		t.Fatalf("store/load edges: %d/%d", stores, loads)
	}
	if ag.Ptr.G.NumLabels() == 0 {
		t.Fatal("grammar empty")
	}
	_ = grammar.NoLabel
}

func TestDataflowSummaryEdgesCarryCallStructure(t *testing.T) {
	// An irrelevant int-returning callee contributes {(c [0,leaf] )c}
	// identity edges so its return equation survives.
	pr := buildProgram(t, `
type R;
fun pick(n: int): int {
  if (n >= 0) {
    return 1;
  }
  return 0;
}
fun main() {
  var r: R = new R();
  var f: int = pick(input());
  if (f > 0) {
    r.use();
  }
  return;
}`, Options{})
	ag := BuildAlias(pr)
	flows := AliasResult{Flows: map[ObjID][]FlowTarget{}, Pointees: map[VarKey]int{}}
	obj := ag.Objects[0]
	for vk := range ag.VarVert {
		if vk.Name == "r" {
			flows.Flows[obj.ID] = append(flows.Flows[obj.ID], FlowTarget{Var: vk})
			flows.Pointees[vk] = 1
		}
	}
	io := fsm.BuiltinIO()
	dg := BuildDataflow(pr, flows, ag, func(typ string) *fsm.FSM {
		if typ == "R" {
			return io
		}
		return nil
	})
	summary := 0
	for _, e := range dg.Edges {
		hasCall, hasRet := false, false
		for _, el := range e.Enc {
			if el.Kind == cfet.KCall {
				hasCall = true
			}
			if el.Kind == cfet.KRet {
				hasRet = true
			}
		}
		if hasCall && hasRet {
			summary++
		}
	}
	// pick has two return leaves: two summary edges per call instance.
	if summary < 2 {
		t.Fatalf("want >=2 summary edges, got %d", summary)
	}
}

// TestDataflowSkipsOverBudgetObjects: an object that flows through more
// than maxCtxsPerObject contexts is skipped, not tracked. Through 9 doubling
// levels it reaches 2^9 - 1 clones; through 7, 127, and it is tracked.
func TestDataflowSkipsOverBudgetObjects(t *testing.T) {
	io := fsm.BuiltinIO()
	fsmFor := func(typ string) *fsm.FSM {
		if typ == "R" {
			return io
		}
		return nil
	}
	for _, tc := range []struct {
		levels  int
		skipped bool
	}{{9, true}, {7, false}} {
		pr := buildProgram(t, doublingChain(tc.levels), Options{})
		if pr.ContextOverflow != 0 {
			t.Fatalf("%d levels: %d context overflows, want the whole tree", tc.levels, pr.ContextOverflow)
		}
		ag := BuildAlias(pr)
		flows := AliasResult{Flows: map[ObjID][]FlowTarget{}, Pointees: map[VarKey]int{}}
		obj := ag.Objects[0]
		for vk := range ag.VarVert {
			flows.Flows[obj.ID] = append(flows.Flows[obj.ID], FlowTarget{Var: vk})
			flows.Pointees[vk] = 1
		}
		dg := BuildDataflow(pr, flows, ag, fsmFor)
		if tc.skipped && (dg.SkippedObjects != 1 || len(dg.Tracked) != 0) {
			t.Fatalf("%d levels: budget not enforced: skipped=%d tracked=%d", tc.levels, dg.SkippedObjects, len(dg.Tracked))
		}
		if !tc.skipped && (dg.SkippedObjects != 0 || len(dg.Tracked) != 1) {
			t.Fatalf("%d levels: object not tracked within the budget: skipped=%d tracked=%d", tc.levels, dg.SkippedObjects, len(dg.Tracked))
		}
	}
}
