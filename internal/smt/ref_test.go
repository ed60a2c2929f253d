package smt

import (
	"math"

	"github.com/grapple-system/grapple/internal/constraint"
	"github.com/grapple-system/grapple/internal/symbolic"
)

// refSolver is the solver as it was before it kept its scratch: the same
// procedure, every intermediate row a fresh slice built with Expr.Subst,
// Scale and Add. It is the oracle Solver's verdicts and counters are held to
// (TestSolverMatchesReference, FuzzSolverMatchesReference).
type refSolver struct {
	opts Options

	Calls    int64
	UnsatN   int64
	SatN     int64
	UnknownN int64
}

func newRef(opts Options) *refSolver {
	if opts.maxNESplits == 0 {
		opts = DefaultOptions()
	}
	return &refSolver{opts: opts}
}

// refIneq represents sum(coeffs)*vars + c <= 0 over int64 rationals scaled to
// integers (all coefficients integer; we keep them integer throughout and
// tighten bounds, which is sound and complete for integer feasibility of the
// shapes symbolic execution emits, and sound in general).
type refIneq struct {
	terms  []symbolic.Term
	c      int64
	strict bool // sum + c < 0
}

// Solve decides the conjunction c.
func (s *refSolver) Solve(c constraint.Conj) Result {
	s.Calls++
	res := s.solve(c)
	switch res {
	case Unsat:
		s.UnsatN++
	case Sat:
		s.SatN++
	default:
		s.UnknownN++
	}
	return res
}

func (s *refSolver) solve(c constraint.Conj) Result {
	var eqs, nes []constraint.Atom
	var ineqs []refIneq
	for _, a := range c {
		if a.IsTrivialFalse() {
			return Unsat
		}
		if a.IsTrivialTrue() {
			continue
		}
		switch a.Op {
		case constraint.EQ:
			eqs = append(eqs, a)
		case constraint.NE:
			nes = append(nes, a)
		case constraint.LE:
			ineqs = append(ineqs, refIneq{terms: a.LHS.Terms, c: a.LHS.Const})
		case constraint.LT:
			ineqs = append(ineqs, refIneq{terms: a.LHS.Terms, c: a.LHS.Const, strict: true})
		case constraint.GE:
			neg := a.LHS.Neg()
			ineqs = append(ineqs, refIneq{terms: neg.Terms, c: neg.Const})
		case constraint.GT:
			neg := a.LHS.Neg()
			ineqs = append(ineqs, refIneq{terms: neg.Terms, c: neg.Const, strict: true})
		}
	}
	return s.solveParts(eqs, nes, ineqs, s.opts.maxNESplits)
}

// solveParts substitutes equalities, splits disequalities, then runs FM.
func (s *refSolver) solveParts(eqs, nes []constraint.Atom, ineqs []refIneq, neBudget int) Result {
	// Substitute equalities with a unit-coefficient variable; other
	// equalities become a pair of inequalities.
	for len(eqs) > 0 {
		a := eqs[len(eqs)-1]
		eqs = eqs[:len(eqs)-1]
		if a.LHS.IsConst() {
			if a.LHS.Const != 0 {
				return Unsat
			}
			continue
		}
		sym, repl, ok := refUnitSolve(a.LHS)
		if !ok {
			// No unit coefficient: encode as <=0 and >=0.
			neg := a.LHS.Neg()
			ineqs = append(ineqs,
				refIneq{terms: a.LHS.Terms, c: a.LHS.Const},
				refIneq{terms: neg.Terms, c: neg.Const})
			continue
		}
		for i := range eqs {
			eqs[i] = eqs[i].Subst(sym, repl)
			if eqs[i].IsTrivialFalse() {
				return Unsat
			}
		}
		for i := range nes {
			nes[i] = nes[i].Subst(sym, repl)
			if nes[i].IsTrivialFalse() {
				return Unsat
			}
		}
		for i := range ineqs {
			ineqs[i] = refSubstIneq(ineqs[i], sym, repl)
			if refConstIneqFalse(ineqs[i]) {
				return Unsat
			}
		}
	}

	// Drop trivially-true disequalities; split the rest.
	kept := nes[:0]
	for _, a := range nes {
		if a.LHS.IsConst() {
			if a.LHS.Const == 0 {
				return Unsat
			}
			continue
		}
		kept = append(kept, a)
	}
	nes = kept
	if len(nes) > 0 {
		if neBudget <= 0 {
			return Unknown
		}
		a := nes[0]
		rest := nes[1:]
		// a != 0  ==>  a <= -1  or  a >= 1 (integer semantics).
		lo := append(refCloneIneqs(ineqs), refIneq{terms: a.LHS.Terms, c: a.LHS.Const + 1})
		if r := s.solveParts(nil, refCloneAtoms(rest), lo, neBudget-1); r == Sat {
			return Sat
		} else if r == Unknown {
			return Unknown
		}
		neg := a.LHS.Neg()
		hi := append(refCloneIneqs(ineqs), refIneq{terms: neg.Terms, c: neg.Const + 1})
		return s.solveParts(nil, refCloneAtoms(rest), hi, neBudget-1)
	}

	return s.fourierMotzkin(ineqs)
}

// refUnitSolve finds a symbol with coefficient ±1 in e (where e == 0) and
// returns the substitution sym -> repl.
func refUnitSolve(e symbolic.Expr) (symbolic.Sym, symbolic.Expr, bool) {
	for _, t := range e.Terms {
		if t.Coeff == 1 || t.Coeff == -1 {
			// t.Coeff*sym + rest = 0  =>  sym = -rest/t.Coeff
			rest := e.Subst(t.Sym, symbolic.Expr{}) // e without sym
			repl := rest.Scale(-t.Coeff)            // works since coeff = ±1
			return t.Sym, repl, true
		}
	}
	return symbolic.NoSym, symbolic.Expr{}, false
}

func refSubstIneq(in refIneq, sym symbolic.Sym, repl symbolic.Expr) refIneq {
	e := symbolic.Expr{Terms: in.terms, Const: in.c}
	e = e.Subst(sym, repl)
	return refIneq{terms: e.Terms, c: e.Const, strict: in.strict}
}

func refConstIneqFalse(in refIneq) bool {
	if len(in.terms) != 0 {
		return false
	}
	if in.strict {
		return in.c >= 0
	}
	return in.c > 0
}

func refCloneIneqs(in []refIneq) []refIneq {
	out := make([]refIneq, len(in))
	copy(out, in)
	return out
}

func refCloneAtoms(in []constraint.Atom) []constraint.Atom {
	out := make([]constraint.Atom, len(in))
	copy(out, in)
	return out
}

// fourierMotzkin eliminates variables one at a time. All atoms are integer
// comparisons, so a strict inequality e < 0 is first tightened to e+1 <= 0
// and bound combinations are gcd-tightened, giving integer completeness for
// the unit-ish coefficient systems symbolic execution produces.
func (s *refSolver) fourierMotzkin(ineqs []refIneq) Result {
	// Integer tightening: strict -> non-strict, divide by gcd with floor.
	work := make([]refIneq, 0, len(ineqs))
	for _, in := range ineqs {
		if in.strict {
			in = refIneq{terms: in.terms, c: in.c + 1}
		}
		in = refGcdTighten(in)
		if len(in.terms) == 0 {
			if in.c > 0 {
				return Unsat
			}
			continue
		}
		work = append(work, in)
	}

	for vars := 0; ; vars++ {
		if len(work) == 0 {
			return Sat
		}
		if vars > s.opts.maxVars || len(work) > s.opts.maxIneqs {
			return Unknown
		}
		v := refPickVar(work)
		if v == symbolic.NoSym {
			// Only constant atoms remain.
			for _, in := range work {
				if in.c > 0 {
					return Unsat
				}
			}
			return Sat
		}
		var lowers, uppers, others []refIneq
		for _, in := range work {
			cf := refCoeffOf(in, v)
			switch {
			case cf > 0:
				uppers = append(uppers, in) // cf*v <= -rest
			case cf < 0:
				lowers = append(lowers, in) // cf*v <= -rest -> v >= ...
			default:
				others = append(others, in)
			}
		}
		next := others
		for _, up := range uppers {
			for _, lo := range lowers {
				comb, ok := refCombine(up, lo, v)
				if !ok {
					continue
				}
				comb = refGcdTighten(comb)
				if len(comb.terms) == 0 {
					if comb.c > 0 {
						return Unsat
					}
					continue
				}
				next = append(next, comb)
				if len(next) > s.opts.maxIneqs {
					return Unknown
				}
			}
		}
		work = next
	}
}

func refPickVar(ineqs []refIneq) symbolic.Sym {
	// Pick the variable with the fewest lower*upper products to limit blowup.
	type cnt struct{ lo, hi int }
	counts := map[symbolic.Sym]*cnt{}
	for _, in := range ineqs {
		for _, t := range in.terms {
			c := counts[t.Sym]
			if c == nil {
				c = &cnt{}
				counts[t.Sym] = c
			}
			if t.Coeff > 0 {
				c.hi++
			} else {
				c.lo++
			}
		}
	}
	best := symbolic.NoSym
	bestCost := math.MaxInt64
	for sym, c := range counts {
		cost := c.lo * c.hi
		if cost < bestCost || (cost == bestCost && sym < best) {
			best, bestCost = sym, cost
		}
	}
	return best
}

func refCoeffOf(in refIneq, v symbolic.Sym) int64 {
	for _, t := range in.terms {
		if t.Sym == v {
			return t.Coeff
		}
	}
	return 0
}

// refCombine eliminates v from up (coeff a>0) and lo (coeff b<0):
// a*v + U <= 0 and b*v + L <= 0  ==>  (-b)*U + a*L <= 0.
func refCombine(up, lo refIneq, v symbolic.Sym) (refIneq, bool) {
	a := refCoeffOf(up, v)
	b := refCoeffOf(lo, v)
	if a <= 0 || b >= 0 {
		return refIneq{}, false
	}
	ue := symbolic.Expr{Terms: up.terms, Const: up.c}
	le := symbolic.Expr{Terms: lo.terms, Const: lo.c}
	res := ue.Scale(-b).Add(le.Scale(a))
	// v's terms cancel: (-b)*a + a*b = 0.
	return refIneq{terms: res.Terms, c: res.Const}, true
}

func refGcdTighten(in refIneq) refIneq {
	if len(in.terms) == 0 {
		return in
	}
	g := int64(0)
	for _, t := range in.terms {
		g = gcd64(g, t.Coeff)
	}
	if g <= 1 {
		return in
	}
	terms := make([]symbolic.Term, len(in.terms))
	for i, t := range in.terms {
		terms[i] = symbolic.Term{Sym: t.Sym, Coeff: t.Coeff / g}
	}
	// sum*g + c <= 0  =>  sum <= floor(-c/g)  =>  sum - floor(-c/g) <= 0
	return refIneq{terms: terms, c: -floorDiv(-in.c, g)}
}
