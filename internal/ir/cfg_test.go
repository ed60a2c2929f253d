package ir

import (
	"testing"
)

func cfgFor(t *testing.T, src, fn string) *CFG {
	t.Helper()
	p := mustLower(t, src, Options{})
	f := p.FunByName[fn]
	if f == nil {
		t.Fatalf("no function %q", fn)
	}
	return BuildCFG(f)
}

func TestCFGStraightLine(t *testing.T) {
	c := cfgFor(t, `
fun main() {
  var x: int = 1;
  var y: int = x + 2;
  return;
}`, "main")
	if len(c.Blocks) != 1 {
		t.Fatalf("want 1 block, got %d", len(c.Blocks))
	}
	b := c.Blocks[0]
	if b.Branch != nil || len(b.Succs) != 0 {
		t.Fatalf("straight-line block has branch/succs: %+v", b)
	}
	if len(b.Stmts) != 3 { // x=1, y=x+2, return
		t.Fatalf("want 3 stmts, got %d", len(b.Stmts))
	}
}

func TestCFGDiamondJoins(t *testing.T) {
	c := cfgFor(t, `
fun main() {
  var x: int = input();
  var y: int = 0;
  if (x > 0) {
    y = 1;
  } else {
    y = 2;
  }
  y = y + 1;
  return;
}`, "main")
	entry := c.Blocks[0]
	if entry.Branch == nil || len(entry.Succs) != 2 {
		t.Fatalf("entry must branch: %+v", entry)
	}
	// Both arms must share the join block (the statements after the If).
	thenB, elseB := c.Blocks[entry.Succs[0]], c.Blocks[entry.Succs[1]]
	if len(thenB.Succs) != 1 || len(elseB.Succs) != 1 {
		t.Fatalf("arms must fall through: %v %v", thenB.Succs, elseB.Succs)
	}
	if thenB.Succs[0] != elseB.Succs[0] {
		t.Fatalf("arms join different blocks: %d vs %d", thenB.Succs[0], elseB.Succs[0])
	}
	join := c.Blocks[thenB.Succs[0]]
	if len(join.Preds) != 2 {
		t.Fatalf("join preds: %v", join.Preds)
	}
}

func TestCFGReturnTerminates(t *testing.T) {
	c := cfgFor(t, `
fun main() {
  var x: int = input();
  if (x > 0) {
    return;
  }
  x = 2;
  return;
}`, "main")
	entry := c.Blocks[0]
	thenB := c.Blocks[entry.Succs[0]]
	if len(thenB.Succs) != 0 {
		t.Fatalf("returning arm must have no successors: %v", thenB.Succs)
	}
}

func TestCFGRPOStartsAtEntryAndCoversAll(t *testing.T) {
	c := cfgFor(t, `
fun main() {
  var x: int = input();
  if (x > 0) { x = 1; } else { x = 2; }
  if (x > 1) { x = 3; }
  return;
}`, "main")
	order := c.RPO()
	if len(order) != len(c.Blocks) {
		t.Fatalf("RPO covers %d of %d blocks", len(order), len(c.Blocks))
	}
	if order[0] != 0 {
		t.Fatalf("RPO must start at entry, got %d", order[0])
	}
	// Every block must appear after all of its predecessors (acyclic CFG).
	at := map[int]int{}
	for i, b := range order {
		at[b] = i
	}
	for _, blk := range c.Blocks {
		for _, p := range blk.Preds {
			if at[p] >= at[blk.Index] {
				t.Fatalf("block %d before its pred %d", blk.Index, p)
			}
		}
	}
}

func TestDefsUses(t *testing.T) {
	cases := []struct {
		s    Stmt
		defs []string
		uses []string
	}{
		{&IntAssign{Dst: "x", Op: Add, A: VarOp("a", 1), B: ConstOp(1)}, []string{"x"}, []string{"a"}},
		{&IntAssign{Dst: "x", Op: Opaque}, []string{"x"}, nil},
		{&BoolAssign{Dst: "b", Cond: CmpCond(VarOp("a", 1), CmpLt, VarOp("c", 2))}, []string{"b"}, []string{"a", "c"}},
		{&ObjAssign{Dst: "o", Src: "p"}, []string{"o"}, []string{"p"}},
		{&ObjAssign{Dst: "o", Src: ""}, []string{"o"}, nil},
		{&NewObj{Dst: "o"}, []string{"o"}, nil},
		{&Store{Recv: "r", Field: "f", Src: "s"}, nil, []string{"r", "s"}},
		{&Load{Dst: "d", Recv: "r", Field: "f"}, []string{"d"}, []string{"r"}},
		{&Call{Dst: "d", ObjArgs: []ArgPair{{Arg: "o"}}, IntArgs: []IntArg{{Arg: VarOp("i", 1)}}}, []string{"d"}, []string{"o", "i"}},
		{&Event{Recv: "r", Method: "m", Dst: "d"}, []string{"d"}, []string{"r"}},
		{&Event{Recv: "r", Method: "m"}, nil, []string{"r"}},
		{&Return{Src: VarOp("v", 1)}, nil, []string{"v"}},
		{&ThrowExit{}, nil, []string{ExcVar}},
		{&CatchBind{Var: "e"}, []string{"e"}, nil},
	}
	for i, tc := range cases {
		if got := Defs(tc.s); !eqStrings(got, tc.defs) {
			t.Errorf("case %d (%T): defs %v, want %v", i, tc.s, got, tc.defs)
		}
		if got := Uses(tc.s); !eqStrings(got, tc.uses) {
			t.Errorf("case %d (%T): uses %v, want %v", i, tc.s, got, tc.uses)
		}
	}
}

func TestCondUses(t *testing.T) {
	if got := CondUses(BoolCond("b", 1)); !eqStrings(got, []string{"b"}) {
		t.Errorf("bool cond uses %v", got)
	}
	if got := CondUses(OpaqueCond(3)); got != nil {
		t.Errorf("opaque cond uses %v", got)
	}
	if got := CondUses(CmpCond(VarOp("x", 1), CmpEq, ConstOp(4))); !eqStrings(got, []string{"x"}) {
		t.Errorf("cmp cond uses %v", got)
	}
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCFGSizedExactly: BuildCFG counts the body before it builds, so the
// block array is exactly as long as the blocks seq makes and every block's
// statements come out of one array sized for them — on straight-line code,
// nested and early-returning branches, unrolled loops, short-circuit
// conditions and expanded exceptions alike.
func TestCFGSizedExactly(t *testing.T) {
	p := mustLower(t, `
type E;
fun thrower(n: int) {
  if (n > 0) {
    var e: E = new E();
    throw e;
  }
  return;
}
fun straight() {
  var x: int = 1;
  x = x + 1;
}
fun shapes(a: int, b: int): int {
  var x: int = a;
  if (a > 0 && b > 0) { x = 1; } else { if (a < b || b == 2) { return x; } x = 2; }
  while (x < 10) { x = x + 1; if (x == 5) { return x; } }
  try {
    thrower(x);
    x = 3;
  } catch (e: E) {
    x = 4;
  }
  thrower(b);
  if (x > 2) { x = 5; }
  return x;
}`, Options{})
	for _, fn := range p.Funs {
		c := BuildCFG(fn)
		blocks, placed := countBlocks(fn.Body.Stmts, false)
		if len(c.Blocks) != blocks || cap(c.Blocks) != blocks {
			t.Errorf("%s: %d blocks (capacity %d), counted %d", fn.Name, len(c.Blocks), cap(c.Blocks), blocks)
		}
		n := 0
		for _, blk := range c.Blocks {
			n += len(blk.Stmts)
		}
		if n != placed {
			t.Errorf("%s: %d statements in blocks, counted %d", fn.Name, n, placed)
		}
		if len(c.Blocks) < 2 && fn.Name == "shapes" {
			t.Errorf("%s: %d blocks", fn.Name, len(c.Blocks))
		}
	}
}
