package analysis

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"

	"github.com/grapple-system/grapple/internal/callgraph"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
)

// FuzzPointsTo checks two solver invariants on arbitrary (parseable)
// MiniLang programs: the worklist terminates well inside its theoretical
// bound, and the derived summaries are idempotent — solving the same
// program twice yields byte-identical summaries. It also holds the
// pre-slice to the slice it stands in for: every function the relevance
// slice keeps, tracking every object type, is one ir.PreKeep keeps, and
// lowering with the rest stubbed gives the whole program's site tables
// and call graph.
func FuzzPointsTo(f *testing.F) {
	f.Add(`
type Obj;
fun make(flag: int): Obj {
  var o: Obj = null;
  if (flag > 0) {
    o = new Obj();
  }
  return o;
}
fun main() {
  var a: Obj = make(input());
  a.use();
  return;
}`)
	f.Add(`
type A;
type B;
fun swap(x: A, y: B): A {
  var box: B = new B();
  box.l = x;
  var z: A = box.l;
  return z;
}
fun main() {
  var p: A = new A();
  var q: B = new B();
  var r: A = swap(p, q);
  r.ev();
  return;
}`)
	f.Add(`
type R;
fun ping(n: int): int {
  if (n > 0) {
    return pong(n - 1);
  }
  return 0;
}
fun pong(n: int): int {
  return ping(n);
}
fun main() {
  var r: R = new R();
  if (ping(input()) > 2) {
    r.close();
  }
  return;
}`)
	// Object-free functions the pre-slice stubs, in every form a stub
	// follows (unrolled loops, short-circuit conditions, opaque
	// comparisons, bool arguments, nested calls).
	f.Add(`
type T;
fun inc(n: int): int {
  return n + 1;
}
fun pick(b: bool, n: int): int {
  return n;
}
fun filler(n: int) {
  var i: int = 0;
  var b: bool = n > 2 && inc(n) < 5;
  while (i < inc(n)) {
    i = inc(i) + pick(i > inc(1), inc(2));
  }
  if (b == (inc(n) > 1) || !(i == 3)) {
    inc(i);
  }
  inc(inc(n) * 2);
  return;
}
fun main() {
  var t: T = new T();
  t.use();
  filler(input());
  return;
}`)
	// Calls exception expansion drops as unreachable: in a catch block no
	// raise reaches, and after a return.
	f.Add(`
type T;
fun id(n: int): int {
  return n;
}
fun onlyInCatch(n: int) {
  return;
}
fun afterReturn(n: int) {
  return;
}
fun main() {
  var t: T = new T();
  try {
    t.use();
  } catch (e) {
    onlyInCatch(1);
  }
  if (input() > 0) {
    return;
  }
  afterReturn(id(2));
  return;
  afterReturn(3);
}`)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := lang.Parse(src)
		if err != nil {
			return
		}
		info, err := lang.Resolve(prog)
		if err != nil {
			return
		}
		p, err := ir.Lower(info, ir.Options{})
		if err != nil {
			return
		}
		cg := callgraph.Build(p)
		r1 := SolvePointsTo(p, cg)

		// Termination bound: each worklist pop follows an enqueue, and a
		// cell is enqueued only when seeded or grown — at most once per
		// (cell, site) pair plus once per constraint-edge re-queue. Cells
		// and sites are both bounded by the statement count, so a generous
		// quadratic-ish bound catches runaway propagation.
		nStmt := 0
		for _, fn := range p.Funs {
			eachStmt(fn.Body, func(ir.Stmt) { nStmt++ })
		}
		cells := 4*nStmt + 4*len(p.Funs) + 16
		sites := len(p.AllocSiteType) + 2
		bound := cells * sites * 4
		if it := r1.Iterations(); it > bound {
			t.Fatalf("solver took %d iterations, bound %d (stmts=%d sites=%d)",
				it, bound, nStmt, len(p.AllocSiteType))
		}

		tracked := map[string]bool{}
		for typ := range p.ObjectTypes {
			tracked[typ] = true
		}
		keep := ir.PreKeep(info)
		rel := ComputeRelevance(p, cg, r1, tracked)
		for i, fn := range p.Funs {
			if rel.KeepFunc(fn.Name) && !keep[i] {
				t.Fatalf("the slice keeps %s, the pre-slice drops it", fn.Name)
			}
		}
		sliced, err := ir.LowerKept(info, ir.Options{}, 1, keep)
		if err != nil {
			t.Fatalf("whole-program lowering succeeds, the pre-sliced one fails: %v", err)
		}
		if !slices.Equal(sliced.CallSitePos, p.CallSitePos) || !slices.Equal(sliced.AllocSitePos, p.AllocSitePos) {
			t.Fatal("the pre-sliced site tables differ from the whole program's")
		}
		if scg := callgraph.Build(sliced); !maps.EqualFunc(scg.Callees, cg.Callees, slices.Equal) ||
			!slices.Equal(scg.Roots(), cg.Roots()) {
			t.Fatal("the pre-sliced call graph differs from the whole program's")
		}

		// Summary idempotence across independent solves.
		r2 := SolvePointsTo(p, cg)
		if a, b := renderSummaries(p, r1), renderSummaries(p, r2); a != b {
			t.Fatalf("summaries differ across solves:\n--- first\n%s\n--- second\n%s", a, b)
		}
	})
}

func renderSummaries(p *ir.Program, pts *PointsToResult) string {
	sums := BuildSummaries(p, pts)
	names := make([]string, 0, len(sums.ByName))
	for name := range sums.ByName {
		names = append(names, name)
	}
	sort.Strings(names)
	out := ""
	for _, name := range names {
		s := sums.ByName[name]
		out += fmt.Sprintf("%s null=%v fresh=%v throws=%v ret=%v types=%v\n",
			name, s.MayReturnNull, s.FreshReturn, s.MayThrow,
			s.ReturnSites, sums.ReturnedTypes(name))
	}
	return out
}
