package cfet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/grapple-system/grapple/internal/smt"
	"github.com/grapple-system/grapple/internal/symbolic"
)

// randomTreePath returns a random root-to-node path in a conceptual complete
// binary tree, as the sequence of node IDs from 0 down.
func randomTreePath(rng *rand.Rand, maxDepth int) []uint64 {
	depth := rng.Intn(maxDepth)
	path := []uint64{0}
	cur := uint64(0)
	for i := 0; i < depth; i++ {
		if rng.Intn(2) == 0 {
			cur = 2*cur + 1
		} else {
			cur = 2*cur + 2
		}
		path = append(path, cur)
	}
	return path
}

// TestPropertyAncestryMatchesPaths: IsAncestorOrEqual agrees with explicit
// path membership on random tree paths.
func TestPropertyAncestryMatchesPaths(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		path := randomTreePath(rng, 30)
		leaf := path[len(path)-1]
		for _, n := range path {
			if !IsAncestorOrEqual(n, leaf) {
				return false
			}
		}
		// A sibling of any non-root path node is not an ancestor.
		if len(path) > 1 {
			i := 1 + rng.Intn(len(path)-1)
			n := path[i]
			sibling := n ^ 1 // flips 2k+1 <-> 2k+2
			if n%2 == 0 {
				sibling = n - 1
			} else {
				sibling = n + 1
			}
			if IsAncestorOrEqual(sibling, leaf) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyParentWalkTerminates: the Algorithm-1 parent walk from any
// node reaches the root in at most 62 steps.
func TestPropertyParentWalkTerminates(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		path := randomTreePath(rng, 60)
		cur := path[len(path)-1]
		steps := 0
		for cur != 0 {
			cur = Parent(cur)
			steps++
			if steps > 62 {
				return false
			}
		}
		return steps == len(path)-1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMergeSplitRoundTrip: splitting a single-method path interval
// at any intermediate node and re-merging recovers the original interval
// (case 1 of §4.2 is invertible along a path).
func TestPropertyMergeSplitRoundTrip(t *testing.T) {
	ic := &ICFET{MaxEncLen: 64}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		path := randomTreePath(rng, 24)
		if len(path) < 3 {
			return true
		}
		mid := path[1+rng.Intn(len(path)-2)]
		leaf := path[len(path)-1]
		merged, ok := ic.Merge(Enc{Interval(0, 0, mid)}, Enc{Interval(0, mid, leaf)})
		return ok && merged.Equal(Enc{Interval(0, 0, leaf)})
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMergeNeverLosesCallStructure: merging never drops unmatched
// call/return elements (context sensitivity depends on them).
func TestPropertyMergeNeverLosesCallStructure(t *testing.T) {
	ic := &ICFET{MaxEncLen: 64}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e1 := Enc{Interval(0, 0, 1), CallElem(int32(rng.Intn(50)))}
		e2 := Enc{Interval(1, 0, 0), CallElem(int32(50 + rng.Intn(50)))}
		merged, ok := ic.Merge(e1, e2)
		if !ok {
			return true
		}
		calls := 0
		for _, el := range merged {
			if el.Kind == KCall {
				calls++
			}
		}
		return calls == 2 // both unmatched calls survive
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDecodeConstraintSubsumption: for a random CFET built from a
// branchy program, the constraint of [0, parent] is a subset of the
// constraint of [0, child] — extending a path only adds conjuncts.
func TestPropertyDecodeConstraintSubsumption(t *testing.T) {
	ic, _, _ := buildICFET(t, `
fun f(a: int, b: int, c: int) {
  if (a > 0) {
    if (b > a) {
      if (c > b) {
        a = 1;
      } else {
        a = 2;
      }
    } else {
      a = 3;
    }
  } else {
    if (b < 0) {
      a = 4;
    }
  }
  return;
}`)
	m := ic.Method("f")
	for _, id := range m.NodeIDs {
		if id == 0 {
			continue
		}
		parent := Parent(id)
		childConj, err := m.PathConstraint(0, id, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		parentConj, err := m.PathConstraint(0, parent, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		keys := map[string]bool{}
		for _, a := range childConj {
			keys[a.Key()] = true
		}
		for _, a := range parentConj {
			if !keys[a.Key()] {
				t.Fatalf("node %d: parent constraint not subsumed", id)
			}
		}
	}
}

// TestPropertyFeasiblePathsExist: in any CFET built from a program whose
// branch conditions are over independent opaque inputs, every root-to-leaf
// path must be satisfiable.
func TestPropertyFeasiblePathsExist(t *testing.T) {
	ic, _, _ := buildICFET(t, `
fun f() {
  var a: int = input();
  var b: int = input();
  var c: int = input();
  if (a > 0) { a = 1; }
  if (b < 5) { b = 1; }
  if (c == 7) { c = 1; }
  return;
}`)
	m := ic.Method("f")
	solver := smt.New(smt.DefaultOptions())
	if len(m.Leaves) == 0 {
		t.Fatal("no leaves")
	}
	for _, leaf := range m.Leaves {
		conj, err := m.PathConstraint(0, leaf, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := solver.Solve(conj); got == smt.Unsat {
			t.Fatalf("leaf %d: independent-input path unsat", leaf)
		}
	}
}

// TestRenamerIsolation: two renamers over the same method produce disjoint
// fresh symbols, and non-owned symbols pass through.
func TestRenamerIsolation(t *testing.T) {
	ic, tab, _ := buildICFET(t, `
fun g(p: int): int { return p + 1; }
fun f(x: int) {
  var y: int = g(x);
  if (y > 0) { y = 0; }
  return;
}`)
	g := ic.Method("g")
	// Two activations within one decode share a synthetic counter and must
	// get disjoint instance symbols.
	next := SyntheticBase
	r1 := ic.newRenamerCounter(g, &next)
	r2 := ic.newRenamerCounter(g, &next)
	pSym := g.ParamSyms[0]
	e := symbolic.Var(pSym)
	e1 := r1.Expr(e)
	e2 := r2.Expr(e)
	if e1.Equal(e2) {
		t.Fatal("activations sharing a counter must not share symbols")
	}
	// Stability within one renamer.
	if !r1.Expr(e).Equal(e1) {
		t.Fatal("renamer must be stable")
	}
	// Synthetic symbols never collide with interned ones.
	if len(e1.Terms) != 1 || e1.Terms[0].Sym < SyntheticBase {
		t.Fatalf("instance symbol not synthetic: %+v", e1)
	}
	// Foreign symbols are untouched.
	foreign := symbolic.Var(tab.Fresh("other"))
	if !r1.Expr(foreign).Equal(foreign) {
		t.Fatal("foreign symbol renamed")
	}
	// Nil renamer is identity.
	var nilR *Renamer
	if !nilR.Expr(e).Equal(e) {
		t.Fatal("nil renamer must be identity")
	}
}
