package smt

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/grapple-system/grapple/internal/constraint"
	"github.com/grapple-system/grapple/internal/raceflag"
	"github.com/grapple-system/grapple/internal/symbolic"
)

// tightOptions are limits small enough that random conjunctions hit every one
// of them: the verdicts that say "gave up here" must not move either.
var tightOptions = Options{maxNESplits: 2, maxVars: 3, maxIneqs: 12}

// diffCoeffs are the coefficients of the differential tests' atoms: units,
// which equalities are solved through, and pairs with common factors, which
// gcd tightening divides by.
var diffCoeffs = []int64{1, -1, 2, -3, 4, 6}

// diffAtom builds one atom of up to three terms over eight symbols from
// draws of pick(n), a number in [0, n).
func diffAtom(pick func(n int) int) constraint.Atom {
	var e symbolic.Expr
	for k := pick(4); k > 0; k-- {
		e = e.Add(symbolic.Var(symbolic.Sym(pick(8))).Scale(diffCoeffs[pick(len(diffCoeffs))]))
	}
	e.Const = int64(pick(13) - 6)
	return constraint.Atom{LHS: e, Op: constraint.Op(pick(6))}
}

func cloneConj(c constraint.Conj) constraint.Conj {
	out := make(constraint.Conj, len(c))
	for i, a := range c {
		out[i] = constraint.Atom{LHS: symbolic.Expr{Terms: slices.Clone(a.LHS.Terms), Const: a.LHS.Const}, Op: a.Op}
	}
	return out
}

func sameConj(a, b constraint.Conj) bool {
	return slices.EqualFunc(a, b, func(x, y constraint.Atom) bool { return x.Op == y.Op && x.LHS.Equal(y.LHS) })
}

// differ holds one reused Solver to the reference, conjunction by
// conjunction: the same verdict, the input left as it was.
type differ struct {
	got  *Solver
	want *refSolver
}

func newDiffer(opts Options) *differ { return &differ{got: New(opts), want: newRef(opts)} }

func (d *differ) Solve(t testing.TB, c constraint.Conj) Result {
	t.Helper()
	before := cloneConj(c)
	want := d.want.Solve(c)
	if !sameConj(c, before) {
		t.Fatalf("the reference wrote to its input: %v", before)
	}
	if got := d.got.Solve(c); got != want {
		t.Fatalf("Solve = %v, reference %v, for %v", got, want, before)
	}
	if !sameConj(c, before) {
		t.Fatalf("Solve wrote to its input: before %v, after %v", before, c)
	}
	return want
}

func (d *differ) CheckCounters(t testing.TB) {
	t.Helper()
	g, w := d.got, d.want
	if g.Calls != w.Calls || g.SatN != w.SatN || g.UnsatN != w.UnsatN || g.UnknownN != w.UnknownN {
		t.Fatalf("counters calls/sat/unsat/unknown %d/%d/%d/%d, reference %d/%d/%d/%d",
			g.Calls, g.SatN, g.UnsatN, g.UnknownN, w.Calls, w.SatN, w.UnsatN, w.UnknownN)
	}
}

// TestSolverMatchesReference decides random conjunctions (up to 8 variables,
// 14 atoms, 3 terms an atom) with one Solver that keeps its scratch across
// all of them and with the reference, under the default limits and under
// limits tight enough to be hit: every verdict and every counter must agree.
// (The conjunctions real checks solve are held to the reference in
// TestSolverMatchesReferenceOnSubjects.)
func TestSolverMatchesReference(t *testing.T) {
	n := 400_000
	if raceflag.Enabled || testing.Short() {
		n = 40_000
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{{"default", DefaultOptions()}, {"tight", tightOptions}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(24))
			d := newDiffer(tc.opts)
			for i := 0; i < n; i++ {
				c := make(constraint.Conj, 1+rng.Intn(14))
				for k := range c {
					c[k] = diffAtom(rng.Intn)
				}
				d.Solve(t, c)
			}
			d.CheckCounters(t)
			w := d.want
			t.Logf("%d conjunctions: %d sat, %d unsat, %d unknown", w.Calls, w.SatN, w.UnsatN, w.UnknownN)
			if w.SatN == 0 || w.UnsatN == 0 || (tc.name == "tight") != (w.UnknownN > 0) {
				t.Fatalf("verdict mix does not exercise the limits as intended")
			}
		})
	}
}

// FuzzSolverMatchesReference is the same differential on conjunctions drawn
// from the fuzzer's bytes, under both option sets.
func FuzzSolverMatchesReference(f *testing.F) {
	f.Add([]byte{3, 1, 0, 2, 5, 7, 1, 1, 0, 6, 0})
	f.Add([]byte{1, 0, 0, 6, 1, 1, 0, 0, 8, 1, 2, 1, 1, 3, 4, 0, 1})
	f.Add([]byte{2, 0, 2, 1, 3, 6, 4, 2, 0, 2, 1, 3, 9, 2, 2, 0, 2, 1, 3, 3, 1, 1, 5, 0, 12, 1})
	def, tight := newDiffer(DefaultOptions()), newDiffer(tightOptions)
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		var c constraint.Conj
		for len(data) > 0 && len(c) < 14 {
			c = append(c, diffAtom(pick))
		}
		def.Solve(t, c)
		tight.Solve(t, c)
	})
}

// TestSolveLeavesInputIntact solves conjunctions built to send every atom
// through a step that rewrites its row — negation, substitution, the
// disequality split, gcd tightening — over term lists shared between atoms,
// as a CFET's branch conditionals are shared between every path through
// them: the verdicts are right and no shared list is written.
func TestSolveLeavesInputIntact(t *testing.T) {
	x, y, z := symbolic.Var(0), symbolic.Var(1), symbolic.Var(2)
	even := x.Scale(2).Add(y.Scale(4)) // 2x + 4y: tightened by 2
	shared := y.Sub(x)                 // y - x: the same list in three atoms
	for _, tc := range []struct {
		c    constraint.Conj
		want Result
	}{
		{constraint.Conj{
			{LHS: even.Add(symbolic.Const(-7)), Op: constraint.LE}, // x + 2y <= 3
			{LHS: even.Add(symbolic.Const(-7)), Op: constraint.GE}, // x + 2y >= 4
		}, Unsat},
		{constraint.Conj{
			{LHS: shared, Op: constraint.GE},
			{LHS: shared, Op: constraint.NE},
			{LHS: shared.Add(symbolic.Const(-1)), Op: constraint.LE},
			{LHS: z.Sub(shared), Op: constraint.EQ},
			{LHS: z.Scale(6).Add(symbolic.Const(-9)), Op: constraint.LT},
		}, Sat},
		{constraint.Conj{
			{LHS: x.Scale(2).Sub(y.Scale(2)), Op: constraint.EQ}, // no unit term
			{LHS: shared, Op: constraint.GT},
		}, Unsat},
	} {
		d := newDiffer(DefaultOptions())
		for range 2 { // the second time out of warm scratch
			if got := d.Solve(t, tc.c); got != tc.want {
				t.Fatalf("%v: %v, want %v", tc.c, got, tc.want)
			}
		}
	}
}
