package smt

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/grapple-system/grapple/internal/constraint"
	"github.com/grapple-system/grapple/internal/symbolic"
)

func atom(l symbolic.Expr, op constraint.Op, r symbolic.Expr) constraint.Atom {
	return constraint.NewAtom(l, op, r)
}

func TestTrivialConstants(t *testing.T) {
	s := New(DefaultOptions())
	cases := []struct {
		c    constraint.Conj
		want Result
	}{
		{nil, Sat},
		{constraint.Conj{atom(symbolic.Const(1), constraint.EQ, symbolic.Const(1))}, Sat},
		{constraint.Conj{atom(symbolic.Const(1), constraint.EQ, symbolic.Const(2))}, Unsat},
		{constraint.Conj{atom(symbolic.Const(3), constraint.GT, symbolic.Const(2))}, Sat},
		{constraint.Conj{atom(symbolic.Const(3), constraint.LT, symbolic.Const(2))}, Unsat},
		{constraint.Conj{atom(symbolic.Const(0), constraint.NE, symbolic.Const(0))}, Unsat},
	}
	for i, tc := range cases {
		if got := s.Solve(tc.c); got != tc.want {
			t.Errorf("case %d: got %v want %v", i, got, tc.want)
		}
	}
}

func TestPaperExampleFigure3(t *testing.T) {
	// Third path of Fig. 3b: x < 0 && y > 0 && y == x+1 is infeasible.
	tab := symbolic.NewTable()
	x := symbolic.Var(tab.Intern("x"))
	y := symbolic.Var(tab.Intern("y"))
	s := New(DefaultOptions())

	infeasible := constraint.Conj{
		atom(x, constraint.LT, symbolic.Const(0)),
		atom(y, constraint.GT, symbolic.Const(0)),
		atom(y, constraint.EQ, x.Add(symbolic.Const(1))),
	}
	if got := s.Solve(infeasible); got != Unsat {
		t.Fatalf("infeasible path: got %v want unsat", got)
	}

	// First path: x >= 0 && y > 0 && y == x-1 is feasible (x=2,y=1).
	feasible := constraint.Conj{
		atom(x, constraint.GE, symbolic.Const(0)),
		atom(y, constraint.GT, symbolic.Const(0)),
		atom(y, constraint.EQ, x.Sub(symbolic.Const(1))),
	}
	if got := s.Solve(feasible); got != Sat {
		t.Fatalf("feasible path: got %v want sat", got)
	}
}

func TestPaperExampleFigure6(t *testing.T) {
	// x > 0 && a == 2x && a < 0 && y == a+1 && !(y < 0): unsat (a=2x>0 vs a<0).
	tab := symbolic.NewTable()
	x := symbolic.Var(tab.Intern("x"))
	a := symbolic.Var(tab.Intern("a"))
	y := symbolic.Var(tab.Intern("y"))
	s := New(DefaultOptions())
	c := constraint.Conj{
		atom(x, constraint.GT, symbolic.Const(0)),
		atom(a, constraint.EQ, x.Scale(2)),
		atom(a, constraint.LT, symbolic.Const(0)),
		atom(y, constraint.EQ, a.Add(symbolic.Const(1))),
		atom(y, constraint.GE, symbolic.Const(0)),
	}
	if got := s.Solve(c); got != Unsat {
		t.Fatalf("got %v want unsat", got)
	}
	// Taking bar's other leaf: x > 0 && a == 2x && a >= 0 && y == a-1 && !(y<0): sat.
	c2 := constraint.Conj{
		atom(x, constraint.GT, symbolic.Const(0)),
		atom(a, constraint.EQ, x.Scale(2)),
		atom(a, constraint.GE, symbolic.Const(0)),
		atom(y, constraint.EQ, a.Sub(symbolic.Const(1))),
		atom(y, constraint.GE, symbolic.Const(0)),
	}
	if got := s.Solve(c2); got != Sat {
		t.Fatalf("got %v want sat", got)
	}
}

func TestContradictoryBranches(t *testing.T) {
	// The motivating example from §1.2: if(b) / if(!b) cannot both hold.
	tab := symbolic.NewTable()
	b := symbolic.Var(tab.Intern("b"))
	s := New(DefaultOptions())
	c := constraint.Conj{
		atom(b, constraint.NE, symbolic.Const(0)),
		atom(b, constraint.EQ, symbolic.Const(0)),
	}
	if got := s.Solve(c); got != Unsat {
		t.Fatalf("b && !b: got %v want unsat", got)
	}
}

func TestDisequalitySplit(t *testing.T) {
	tab := symbolic.NewTable()
	x := symbolic.Var(tab.Intern("x"))
	s := New(DefaultOptions())
	// x != 0 && 0 <= x && x <= 0 : unsat.
	c := constraint.Conj{
		atom(x, constraint.NE, symbolic.Const(0)),
		atom(x, constraint.GE, symbolic.Const(0)),
		atom(x, constraint.LE, symbolic.Const(0)),
	}
	if got := s.Solve(c); got != Unsat {
		t.Fatalf("got %v want unsat", got)
	}
	// x != 5 && x >= 5 : sat (x = 6).
	c2 := constraint.Conj{
		atom(x, constraint.NE, symbolic.Const(5)),
		atom(x, constraint.GE, symbolic.Const(5)),
	}
	if got := s.Solve(c2); got != Sat {
		t.Fatalf("got %v want sat", got)
	}
}

func TestIntegerTightening(t *testing.T) {
	tab := symbolic.NewTable()
	x := symbolic.Var(tab.Intern("x"))
	s := New(DefaultOptions())
	// 0 < 2x < 2 has no integer solution (x would be 1/2).
	c := constraint.Conj{
		atom(x.Scale(2), constraint.GT, symbolic.Const(0)),
		atom(x.Scale(2), constraint.LT, symbolic.Const(2)),
	}
	if got := s.Solve(c); got != Unsat {
		t.Fatalf("0<2x<2: got %v want unsat (no integer solution)", got)
	}
}

func TestChainedInequalities(t *testing.T) {
	tab := symbolic.NewTable()
	s := New(DefaultOptions())
	n := 12
	vars := make([]symbolic.Expr, n)
	for i := range vars {
		vars[i] = symbolic.Var(tab.Fresh("v"))
	}
	var c constraint.Conj
	for i := 0; i+1 < n; i++ {
		c = append(c, atom(vars[i], constraint.LT, vars[i+1]))
	}
	if got := s.Solve(c); got != Sat {
		t.Fatalf("ascending chain: got %v want sat", got)
	}
	c = append(c, atom(vars[n-1], constraint.LT, vars[0]))
	if got := s.Solve(c); got != Unsat {
		t.Fatalf("cyclic chain: got %v want unsat", got)
	}
}

// evalAtom checks an atom under an assignment.
func evalAtom(a constraint.Atom, env map[symbolic.Sym]int64) bool {
	v := a.LHS.Const
	for _, t := range a.LHS.Terms {
		v += t.Coeff * env[t.Sym]
	}
	switch a.Op {
	case constraint.EQ:
		return v == 0
	case constraint.NE:
		return v != 0
	case constraint.LE:
		return v <= 0
	case constraint.LT:
		return v < 0
	case constraint.GE:
		return v >= 0
	default:
		return v > 0
	}
}

// TestPropertySoundnessVsBruteForce cross-checks the solver against
// exhaustive evaluation over a small domain: whenever brute force finds a
// model, the solver must not report unsat, and whenever the solver reports
// unsat there must be no model (over that domain trivially, and generally by
// soundness of FM).
func TestPropertySoundnessVsBruteForce(t *testing.T) {
	const nvars, domain = 3, 4 // values in [-domain, domain]
	rng := rand.New(rand.NewSource(42))
	tab := symbolic.NewTable()
	syms := make([]symbolic.Sym, nvars)
	for i := range syms {
		syms[i] = tab.Fresh("q")
	}

	randConj := func() constraint.Conj {
		n := 1 + rng.Intn(4)
		c := make(constraint.Conj, 0, n)
		for i := 0; i < n; i++ {
			e := symbolic.Const(int64(rng.Intn(7) - 3))
			for j := 0; j < nvars; j++ {
				if rng.Intn(2) == 0 {
					e = e.Add(symbolic.Var(syms[j]).Scale(int64(rng.Intn(5) - 2)))
				}
			}
			op := constraint.Op(rng.Intn(6))
			c = append(c, constraint.Atom{LHS: e, Op: op})
		}
		return c
	}

	hasModel := func(c constraint.Conj) bool {
		env := map[symbolic.Sym]int64{}
		var rec func(i int) bool
		rec = func(i int) bool {
			if i == nvars {
				for _, a := range c {
					if !evalAtom(a, env) {
						return false
					}
				}
				return true
			}
			for v := int64(-domain); v <= domain; v++ {
				env[syms[i]] = v
				if rec(i + 1) {
					return true
				}
			}
			return false
		}
		return rec(0)
	}

	s := New(DefaultOptions())
	for trial := 0; trial < 400; trial++ {
		c := randConj()
		model := hasModel(c)
		got := s.Solve(c)
		if model && got == Unsat {
			t.Fatalf("trial %d: solver unsat but model exists for %s", trial, c.String(tab))
		}
		// Small-domain completeness check: our random coefficients/constants
		// are small, so if FM says sat a model within a slightly larger box
		// should exist; we only assert the strong direction (soundness).
		_ = got
	}
}

func TestQuickCanonKeyStable(t *testing.T) {
	// Canonicalization must be order-insensitive: shuffled conjunctions get
	// identical memo keys.
	tab := symbolic.NewTable()
	x := symbolic.Var(tab.Intern("x"))
	y := symbolic.Var(tab.Intern("y"))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := constraint.Conj{
			atom(x, constraint.GE, symbolic.Const(0)),
			atom(y, constraint.LT, x),
			atom(y.Add(x), constraint.NE, symbolic.Const(3)),
		}
		shuffled := make(constraint.Conj, len(c))
		copy(shuffled, c)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		return c.Canon().Key() == shuffled.Canon().Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCacheBasics(t *testing.T) {
	c := &countingCache{Cache: NewCache(32)}
	c.PutBytes([]byte("a"), Sat)
	c.PutBytes([]byte("b"), Unsat)
	if r, ok := c.GetBytes([]byte("a")); !ok || r != Sat {
		t.Fatalf("get a: %v %v", r, ok)
	}
	if r, ok := c.GetBytes([]byte("b")); !ok || r != Unsat {
		t.Fatalf("get b: %v %v", r, ok)
	}
	c.PutBytes([]byte("a"), Unsat) // update in place, no growth
	if r, ok := c.GetBytes([]byte("a")); !ok || r != Unsat {
		t.Fatalf("get a after update: %v %v", r, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d want 2", c.Len())
	}
	if c.lookups != 3 || c.hits != 3 {
		t.Fatalf("lookups/hits = %d/%d want 3/3", c.lookups, c.hits)
	}
}

func TestCacheEvictionBound(t *testing.T) {
	// Total size stays bounded by the requested capacity no matter how many
	// distinct keys are inserted; eviction is per-shard CLOCK.
	c := NewCache(32)
	for i := 0; i < 1000; i++ {
		c.PutBytes([]byte(fmt.Sprintf("key-%d", i)), Sat)
	}
	if c.Len() > 32 {
		t.Fatalf("len = %d want <= 32", c.Len())
	}
	// A freshly-inserted key is always retrievable (nothing can evict it
	// before any other shard traffic).
	c.PutBytes([]byte("fresh"), Unsat)
	if r, ok := c.GetBytes([]byte("fresh")); !ok || r != Unsat {
		t.Fatalf("fresh: %v %v", r, ok)
	}
}

func TestCachedSolverHitRate(t *testing.T) {
	tab := symbolic.NewTable()
	x := symbolic.Var(tab.Intern("x"))
	s, cache := New(DefaultOptions()), &countingCache{Cache: NewCache(16)}
	c := constraint.Conj{atom(x, constraint.GT, symbolic.Const(0))}
	for i := 0; i < 10; i++ {
		if cachedSolve(s, cache, c) != Sat {
			t.Fatal("want sat")
		}
	}
	if cache.hits != 9 {
		t.Fatalf("hits = %d want 9", cache.hits)
	}
	if s.Calls != 1 {
		t.Fatalf("solver calls = %d want 1", s.Calls)
	}
}

// TestCacheConcurrent races puts, probes and — the capacity is below the key
// count — evictions across goroutines; run under make race.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(32)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				key := string(rune('a' + (i+g)%64))
				c.PutBytes([]byte(key), Sat)
				if r, ok := c.GetBytes([]byte(key)); ok && r != Sat {
					t.Errorf("%q = %v, only Sat was put", key, r)
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}

func TestDisequalityBudgetUnknown(t *testing.T) {
	// More disequalities than the split budget: Unknown (treated as SAT by
	// the engine — over-approximation, never a missed path).
	tab := symbolic.NewTable()
	s := New(Options{maxNESplits: 2, maxVars: 128, maxIneqs: 4096})
	var c constraint.Conj
	for i := 0; i < 6; i++ {
		v := symbolic.Var(tab.Fresh("d"))
		c = append(c, atom(v, constraint.NE, symbolic.Const(int64(i))))
	}
	if got := s.Solve(c); got != Unknown {
		t.Fatalf("got %v want unknown", got)
	}
	if s.UnknownN == 0 {
		t.Fatal("unknown counter not bumped")
	}
}

func TestEqualityWithoutUnitCoefficient(t *testing.T) {
	tab := symbolic.NewTable()
	x := symbolic.Var(tab.Intern("xq"))
	s := New(DefaultOptions())
	// 2x == 5 has no integer solution.
	c := constraint.Conj{atom(x.Scale(2), constraint.EQ, symbolic.Const(5))}
	if got := s.Solve(c); got != Unsat {
		t.Fatalf("2x=5: got %v want unsat", got)
	}
	// 2x == 6 does (x=3).
	c2 := constraint.Conj{atom(x.Scale(2), constraint.EQ, symbolic.Const(6))}
	if got := s.Solve(c2); got != Sat {
		t.Fatalf("2x=6: got %v want sat", got)
	}
}

func TestSolverStatsCount(t *testing.T) {
	tab := symbolic.NewTable()
	x := symbolic.Var(tab.Intern("xs"))
	s := New(DefaultOptions())
	s.Solve(constraint.Conj{atom(x, constraint.GT, symbolic.Const(0))})
	s.Solve(constraint.Conj{atom(symbolic.Const(1), constraint.LT, symbolic.Const(0))})
	if s.Calls != 2 || s.SatN != 1 || s.UnsatN != 1 {
		t.Fatalf("stats: calls=%d sat=%d unsat=%d", s.Calls, s.SatN, s.UnsatN)
	}
}
