package symbolic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTableIntern(t *testing.T) {
	tab := NewTable()
	a := tab.Intern("a")
	b := tab.Intern("b")
	if a == b {
		t.Fatal("distinct names must get distinct syms")
	}
	if tab.Intern("a") != a {
		t.Fatal("intern must be stable")
	}
	if tab.Name(a) != "a" || tab.Name(b) != "b" {
		t.Fatal("names must round-trip")
	}
	if tab.Len() != 2 {
		t.Fatalf("len = %d", tab.Len())
	}
}

func TestFreshDistinct(t *testing.T) {
	tab := NewTable()
	seen := map[Sym]bool{}
	for i := 0; i < 100; i++ {
		s := tab.Fresh("t")
		if seen[s] {
			t.Fatal("fresh symbol collided")
		}
		seen[s] = true
	}
	// The scoped forms name what concatenating the scope would name.
	if s := tab.FreshIn("main", "ev_read"); tab.Name(s) != "main.ev_read$100" {
		t.Fatalf("FreshIn named %q", tab.Name(s))
	}
	x := tab.InternIn("main", "x")
	if tab.Name(x) != "main.x" || tab.Intern("main.x") != x || tab.InternIn("main", "x") != x {
		t.Fatalf("InternIn named %q (sym %d)", tab.Name(x), x)
	}
}

func TestArithmetic(t *testing.T) {
	tab := NewTable()
	x := Var(tab.Intern("x"))
	y := Var(tab.Intern("y"))

	e := x.Add(y).Add(Const(3)) // x + y + 3
	e = e.Sub(x)                // y + 3
	if got := e.Coeff(tab.Intern("x")); got != 0 {
		t.Fatalf("x coeff = %d", got)
	}
	if got := e.Coeff(tab.Intern("y")); got != 1 {
		t.Fatalf("y coeff = %d", got)
	}
	if e.Const != 3 {
		t.Fatalf("const = %d", e.Const)
	}

	z := e.Scale(2) // 2y + 6
	if z.Coeff(tab.Intern("y")) != 2 || z.Const != 6 {
		t.Fatalf("scale wrong: %v", z)
	}
	if !z.Neg().Add(z).Equal(Expr{}) {
		t.Fatal("e + (-e) must be zero")
	}
}

func TestSubst(t *testing.T) {
	tab := NewTable()
	xs, ys := tab.Intern("x"), tab.Intern("y")
	x, y := Var(xs), Var(ys)

	// (2x + y + 1)[x := y - 2] = 3y - 3
	e := x.Scale(2).Add(y).Add(Const(1))
	got := e.Subst(xs, y.Sub(Const(2)))
	want := y.Scale(3).Sub(Const(3))
	if !got.Equal(want) {
		t.Fatalf("got %s want %s", got.String(tab), want.String(tab))
	}
	// Substituting an absent symbol is identity.
	if !e.Subst(tab.Intern("zz"), Const(9)).Equal(e) {
		t.Fatal("subst of absent sym must be identity")
	}
}

func TestStringRendering(t *testing.T) {
	tab := NewTable()
	x := Var(tab.Intern("x"))
	y := Var(tab.Intern("y"))
	cases := []struct {
		e    Expr
		want string
	}{
		{Const(0), "0"},
		{Const(-4), "-4"},
		{x, "x"},
		{x.Neg(), "-x"},
		{x.Scale(2).Sub(y).Add(Const(3)), "2*x - y + 3"},
		{x.Sub(Const(1)), "x - 1"},
	}
	for _, tc := range cases {
		if got := tc.e.String(tab); got != tc.want {
			t.Errorf("got %q want %q", got, tc.want)
		}
	}
}

// eval evaluates e under env (absent syms are zero).
func eval(e Expr, env map[Sym]int64) int64 {
	v := e.Const
	for _, t := range e.Terms {
		v += t.Coeff * env[t.Sym]
	}
	return v
}

func randExpr(rng *rand.Rand, syms []Sym) Expr {
	e := Const(int64(rng.Intn(11) - 5))
	for _, s := range syms {
		if rng.Intn(2) == 0 {
			e = e.Add(Var(s).Scale(int64(rng.Intn(7) - 3)))
		}
	}
	return e
}

func TestPropertyAddCommutes(t *testing.T) {
	tab := NewTable()
	syms := []Sym{tab.Intern("a"), tab.Intern("b"), tab.Intern("c")}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e1, e2 := randExpr(rng, syms), randExpr(rng, syms)
		return e1.Add(e2).Equal(e2.Add(e1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEvalHomomorphic(t *testing.T) {
	// eval(e1+e2) == eval(e1)+eval(e2), eval(k*e) == k*eval(e),
	// eval(subst) == eval under updated env.
	tab := NewTable()
	syms := []Sym{tab.Intern("a"), tab.Intern("b"), tab.Intern("c")}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env := map[Sym]int64{}
		for _, s := range syms {
			env[s] = int64(rng.Intn(9) - 4)
		}
		e1, e2 := randExpr(rng, syms), randExpr(rng, syms)
		k := int64(rng.Intn(7) - 3)
		if eval(e1.Add(e2), env) != eval(e1, env)+eval(e2, env) {
			return false
		}
		if eval(e1.Scale(k), env) != k*eval(e1, env) {
			return false
		}
		// Substitution semantics.
		target := syms[rng.Intn(len(syms))]
		repl := randExpr(rng, syms[:2])
		if repl.Coeff(target) != 0 { // avoid self-reference in the check
			return true
		}
		subEnv := map[Sym]int64{}
		for k2, v := range env {
			subEnv[k2] = v
		}
		subEnv[target] = eval(repl, env)
		return eval(e1.Subst(target, repl), env) == eval(e1, subEnv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyKeyCanonical(t *testing.T) {
	// Structurally equal exprs must have equal keys; sums built in different
	// orders are structurally equal.
	tab := NewTable()
	syms := []Sym{tab.Intern("a"), tab.Intern("b"), tab.Intern("c"), tab.Intern("d")}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		parts := make([]Expr, 4)
		for i := range parts {
			parts[i] = randExpr(rng, syms)
		}
		fwd := Expr{}
		for _, p := range parts {
			fwd = fwd.Add(p)
		}
		rev := Expr{}
		for i := len(parts) - 1; i >= 0; i-- {
			rev = rev.Add(parts[i])
		}
		return fwd.Equal(rev) && fwd.Key() == rev.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestKeyFormat pins the key's text: subsumption keys, canonical orders and
// constraint-cache keys built from it must not move when how it is built does.
func TestKeyFormat(t *testing.T) {
	for _, tc := range []struct {
		e    Expr
		want string
	}{
		{Expr{}, "0"},
		{Const(-7), "-7"},
		{Var(3), "1*3,0"},
		{Expr{Terms: []Term{{Sym: 0, Coeff: -2}, {Sym: 12, Coeff: 1}, {Sym: 1 << 29, Coeff: 9223372036854775807}}, Const: -9223372036854775808},
			"-2*0,1*12,9223372036854775807*536870912,-9223372036854775808"},
	} {
		if got := tc.e.Key(); got != tc.want {
			t.Errorf("Key() = %q, want %q", got, tc.want)
		}
	}
}
