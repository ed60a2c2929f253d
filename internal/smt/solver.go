// Package smt decides satisfiability of the conjunctive linear integer
// arithmetic constraints Grapple's path decoding produces (paper §3.2, §4.2).
//
// The paper uses Z3; Grapple only ever hands the solver a conjunction of
// comparisons of linear integer expressions (branch conditionals composed by
// symbolic execution and parameter-passing equations). For that fragment a
// complete decision procedure is: substitute equalities away, case-split the
// few disequalities, then run Fourier–Motzkin elimination with integer bound
// tightening. This package implements exactly that, so its verdicts match
// what Z3 would return on the constraints the engine generates.
package smt

import (
	"math"

	"github.com/grapple-system/grapple/internal/constraint"
	"github.com/grapple-system/grapple/internal/symbolic"
)

// Result is a satisfiability verdict.
type Result uint8

// Verdicts. Unknown is returned only when a structural limit is hit
// (disequality case-split budget); the engine treats Unknown as SAT, which
// over-approximates feasibility and therefore never misses a bug.
const (
	Unsat Result = iota
	Sat
	Unknown
)

func (r Result) String() string {
	switch r {
	case Unsat:
		return "unsat"
	case Sat:
		return "sat"
	default:
		return "unknown"
	}
}

// Options tunes the solver. Its limits are unexported: every production
// solver is New(DefaultOptions()), and only this package's tests set tighter
// ones.
type Options struct {
	// maxNESplits bounds the number of disequality atoms case-split before
	// giving up with Unknown. 2^maxNESplits branches are explored.
	maxNESplits int
	// maxVars bounds the number of distinct variables eliminated by
	// Fourier–Motzkin before giving up with Unknown.
	maxVars int
	// maxIneqs aborts with Unknown if elimination inflates the inequality
	// set beyond this size (FM is worst-case exponential).
	maxIneqs int
}

// DefaultOptions are generous for the constraint sizes path decoding emits.
func DefaultOptions() Options {
	return Options{maxNESplits: 8, maxVars: 128, maxIneqs: 4096}
}

// Solver decides conjunctions. Apart from statistics it keeps only scratch:
// every row a Solve builds lives in memory the Solver reuses on the next call,
// so a warm Solver allocates nothing. It is safe for concurrent use only
// through independent instances; the engine gives each worker its own Solver
// (sharing one memo cache).
type Solver struct {
	opts Options

	// Stats
	Calls    int64
	UnsatN   int64
	SatN     int64
	UnknownN int64

	// arena holds the term lists of the rows the current Solve derives; the
	// rows it only reads keep pointing at their atoms' own terms, which Solve
	// never writes. ineqs is a stack: the disequality case split pushes one
	// row, recurses and pops.
	arena           symbolic.Arena
	eqs, nes, ineqs []ineq
	work, next      []ineq // fourierMotzkin: this round's rows, the next round's
	lowers, uppers  []ineq
	counts          []symCount
}

// New returns a Solver with the given options.
func New(opts Options) *Solver {
	if opts.maxNESplits == 0 {
		opts = DefaultOptions()
	}
	return &Solver{opts: opts}
}

// ineq represents sum(coeffs)*vars + c <= 0 over int64 rationals scaled to
// integers (all coefficients integer; we keep them integer throughout and
// tighten bounds, which is sound and complete for integer feasibility of the
// shapes symbolic execution emits, and sound in general). The equality and
// disequality rows use the same type for sum + c == 0 and sum + c != 0.
type ineq struct {
	terms  []symbolic.Term
	c      int64
	strict bool // sum + c < 0
}

func (in ineq) isConst() bool { return len(in.terms) == 0 }

// Solve decides the conjunction c. It does not write to c or to the term
// lists c's atoms point at, and keeps no reference to either.
func (s *Solver) Solve(c constraint.Conj) Result {
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

// neg returns the terms of -terms.
func (s *Solver) neg(terms []symbolic.Term) []symbolic.Term {
	return s.arena.AddScaled(terms, -1, nil, 0)
}

// solve substitutes equalities away, splits disequalities, then runs FM.
func (s *Solver) solve(c constraint.Conj) Result {
	s.arena.Reset()
	s.eqs, s.nes, s.ineqs = s.eqs[:0], s.nes[:0], s.ineqs[:0]
	for _, a := range c {
		if a.IsTrivialFalse() {
			return Unsat
		}
		if a.IsTrivialTrue() {
			continue
		}
		row := ineq{terms: a.LHS.Terms, c: a.LHS.Const}
		switch a.Op {
		case constraint.EQ:
			s.eqs = append(s.eqs, row)
		case constraint.NE:
			s.nes = append(s.nes, row)
		case constraint.LE:
			s.ineqs = append(s.ineqs, row)
		case constraint.LT:
			row.strict = true
			s.ineqs = append(s.ineqs, row)
		case constraint.GE:
			s.ineqs = append(s.ineqs, ineq{terms: s.neg(row.terms), c: -row.c})
		case constraint.GT:
			s.ineqs = append(s.ineqs, ineq{terms: s.neg(row.terms), c: -row.c, strict: true})
		}
	}

	// Substitute equalities with a unit-coefficient variable; other
	// equalities become a pair of inequalities.
	for len(s.eqs) > 0 {
		eq := s.eqs[len(s.eqs)-1]
		s.eqs = s.eqs[:len(s.eqs)-1]
		if eq.isConst() {
			if eq.c != 0 {
				return Unsat
			}
			continue
		}
		unit, ok := unitTerm(eq.terms)
		if !ok {
			// No unit coefficient: encode as <=0 and >=0.
			s.ineqs = append(s.ineqs, eq, ineq{terms: s.neg(eq.terms), c: -eq.c})
			continue
		}
		for i := range s.eqs {
			s.eqs[i] = s.eliminate(s.eqs[i], eq, unit)
			if s.eqs[i].isConst() && s.eqs[i].c != 0 {
				return Unsat
			}
		}
		for i := range s.nes {
			s.nes[i] = s.eliminate(s.nes[i], eq, unit)
			if s.nes[i].isConst() && s.nes[i].c == 0 {
				return Unsat
			}
		}
		for i := range s.ineqs {
			s.ineqs[i] = s.eliminate(s.ineqs[i], eq, unit)
			if constIneqFalse(s.ineqs[i]) {
				return Unsat
			}
		}
	}

	// Drop trivially-true disequalities; split the rest.
	kept := s.nes[:0]
	for _, ne := range s.nes {
		if ne.isConst() {
			if ne.c == 0 {
				return Unsat
			}
			continue
		}
		kept = append(kept, ne)
	}
	s.nes = kept
	return s.split(s.nes, s.opts.maxNESplits)
}

// unitTerm finds the first term of an equality's left-hand side with
// coefficient ±1: the variable the equality is solved for.
func unitTerm(terms []symbolic.Term) (symbolic.Term, bool) {
	for _, t := range terms {
		if t.Coeff == 1 || t.Coeff == -1 {
			return t, true
		}
	}
	return symbolic.Term{}, false
}

// eliminate substitutes the variable of unit, a ±1 term of the equality eq,
// out of in. Solving eq for it and substituting the solution is adding the
// multiple of eq that cancels it: with u = unit.Coeff and a the variable's
// coefficient in in, u*u == 1 makes a + (-a*u)*u zero.
func (s *Solver) eliminate(in, eq ineq, unit symbolic.Term) ineq {
	a := coeffOf(in, unit.Sym)
	if a == 0 {
		return in
	}
	k := -a * unit.Coeff
	return ineq{terms: s.arena.AddScaled(in.terms, 1, eq.terms, k), c: in.c + k*eq.c, strict: in.strict}
}

func constIneqFalse(in ineq) bool {
	if !in.isConst() {
		return false
	}
	if in.strict {
		return in.c >= 0
	}
	return in.c > 0
}

// split case-splits the disequalities nes in order, low branch first, over
// the inequalities on the s.ineqs stack, and runs FM once none is left.
func (s *Solver) split(nes []ineq, neBudget int) Result {
	if len(nes) == 0 {
		return s.fourierMotzkin()
	}
	if neBudget <= 0 {
		return Unknown
	}
	// a != 0  ==>  a <= -1  or  a >= 1 (integer semantics).
	a, n := nes[0], len(s.ineqs)
	s.ineqs = append(s.ineqs, ineq{terms: a.terms, c: a.c + 1})
	r := s.split(nes[1:], neBudget-1)
	s.ineqs = s.ineqs[:n]
	if r != Unsat {
		return r
	}
	s.ineqs = append(s.ineqs, ineq{terms: s.neg(a.terms), c: -a.c + 1})
	r = s.split(nes[1:], neBudget-1)
	s.ineqs = s.ineqs[:n]
	return r
}

// fourierMotzkin eliminates variables from s.ineqs one at a time, leaving
// s.ineqs as it found it. All atoms are integer comparisons, so a strict
// inequality e < 0 is first tightened to e+1 <= 0 and bound combinations are
// gcd-tightened, giving integer completeness for the unit-ish coefficient
// systems symbolic execution produces.
func (s *Solver) fourierMotzkin() Result {
	// Integer tightening: strict -> non-strict, divide by gcd with floor.
	s.work = s.work[:0]
	for _, in := range s.ineqs {
		if in.strict {
			in = ineq{terms: in.terms, c: in.c + 1}
		}
		in = s.gcdTighten(in)
		if in.isConst() {
			if in.c > 0 {
				return Unsat
			}
			continue
		}
		s.work = append(s.work, in)
	}

	for vars := 0; ; vars++ {
		if len(s.work) == 0 {
			return Sat
		}
		if vars > s.opts.maxVars || len(s.work) > s.opts.maxIneqs {
			return Unknown
		}
		// Every row of work has a term, so there is a variable to pick. The
		// rows without it go first, then the combinations, upper-major.
		v := s.pickVar()
		s.next, s.lowers, s.uppers = s.next[:0], s.lowers[:0], s.uppers[:0]
		for _, in := range s.work {
			switch cf := coeffOf(in, v); {
			case cf > 0:
				s.uppers = append(s.uppers, in) // cf*v <= -rest
			case cf < 0:
				s.lowers = append(s.lowers, in) // cf*v <= -rest -> v >= ...
			default:
				s.next = append(s.next, in)
			}
		}
		for _, up := range s.uppers {
			a := coeffOf(up, v)
			for _, lo := range s.lowers {
				// a*v + U <= 0 and b*v + L <= 0  ==>  (-b)*U + a*L <= 0;
				// v's terms cancel: (-b)*a + a*b = 0.
				b := coeffOf(lo, v)
				comb := s.gcdTighten(ineq{
					terms: s.arena.AddScaled(up.terms, -b, lo.terms, a),
					c:     -b*up.c + a*lo.c,
				})
				if comb.isConst() {
					if comb.c > 0 {
						return Unsat
					}
					continue
				}
				s.next = append(s.next, comb)
				if len(s.next) > s.opts.maxIneqs {
					return Unknown
				}
			}
		}
		s.work, s.next = s.next, s.work
	}
}

// symCount is how many rows bound one variable from below and from above.
type symCount struct {
	sym    symbolic.Sym
	lo, hi int
}

// pickVar picks the variable of s.work with the fewest lower*upper products,
// to limit blowup; the least symbol among equals.
func (s *Solver) pickVar() symbolic.Sym {
	counts := s.counts[:0]
	for _, in := range s.work {
		for _, t := range in.terms {
			k := 0
			for k < len(counts) && counts[k].sym != t.Sym {
				k++
			}
			if k == len(counts) {
				counts = append(counts, symCount{sym: t.Sym})
			}
			if t.Coeff > 0 {
				counts[k].hi++
			} else {
				counts[k].lo++
			}
		}
	}
	s.counts = counts
	best := symbolic.NoSym
	bestCost := math.MaxInt64
	for _, c := range counts {
		cost := c.lo * c.hi
		if cost < bestCost || (cost == bestCost && c.sym < best) {
			best, bestCost = c.sym, cost
		}
	}
	return best
}

func coeffOf(in ineq, v symbolic.Sym) int64 {
	for _, t := range in.terms {
		if t.Sym == v {
			return t.Coeff
		}
	}
	return 0
}

// gcdTighten divides in by the gcd of its coefficients, into a new term list.
func (s *Solver) gcdTighten(in ineq) ineq {
	g := int64(0)
	for _, t := range in.terms {
		g = gcd64(g, t.Coeff)
	}
	if g <= 1 {
		return in
	}
	terms := s.arena.Alloc(len(in.terms))
	for i, t := range in.terms {
		terms[i] = symbolic.Term{Sym: t.Sym, Coeff: t.Coeff / g}
	}
	// sum*g + c <= 0  =>  sum <= floor(-c/g)  =>  sum - floor(-c/g) <= 0
	return ineq{terms: terms, c: -floorDiv(-in.c, g)}
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}
