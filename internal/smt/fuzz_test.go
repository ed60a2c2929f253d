package smt

import (
	"testing"

	"github.com/grapple-system/grapple/internal/constraint"
	"github.com/grapple-system/grapple/internal/symbolic"
)

// fuzzConj decodes fuzz bytes into a small conjunction over four symbols.
// Four bytes per atom: two term selectors, an operator, a constant.
func fuzzConj(tab *symbolic.Table, data []byte) constraint.Conj {
	syms := []symbolic.Sym{
		tab.Intern("a"), tab.Intern("b"), tab.Intern("c"), tab.Intern("d"),
	}
	var c constraint.Conj
	for len(data) >= 4 && len(c) < 8 {
		t0, t1, opb, k := data[0], data[1], data[2], int64(int8(data[3]))
		data = data[4:]
		lhs := symbolic.Var(syms[t0%4]).Scale(int64(int8(t0))%5 + 1)
		if t1%3 != 0 {
			lhs = lhs.Add(symbolic.Var(syms[t1%4]).Scale(int64(int8(t1)) % 4))
		}
		op := []constraint.Op{
			constraint.EQ, constraint.NE, constraint.LE,
			constraint.LT, constraint.GE, constraint.GT,
		}[opb%6]
		c = c.And(constraint.NewAtom(lhs, op, symbolic.Const(k)))
	}
	return c
}

// FuzzCacheKeying checks the §4.3 memoization invariants: a conjunction's
// canonical key is unchanged by atom reordering and duplication (logically
// identical conjunctions share one cache entry), a cached solver always
// agrees with an uncached solve of the canonical form, and Unsat — the
// verdict that prunes paths — is never returned for a conjunction a small
// brute-forced integer model satisfies.
func FuzzCacheKeying(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3))
	f.Add([]byte{9, 7, 1, 200, 4, 4, 2, 0, 13, 255, 5, 127}, uint8(5))
	f.Add([]byte{255, 255, 255, 255, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, rot uint8) {
		tab := symbolic.NewTable()
		c := fuzzConj(tab, data)
		if len(c) == 0 {
			t.Skip()
		}

		// Reorder by rotation and duplicate an atom: same logical conjunction.
		r := int(rot) % len(c)
		rotated := append(append(constraint.Conj{}, c[r:]...), c[:r]...)
		dup := append(append(constraint.Conj{}, rotated...), c[r%len(c)])

		key := c.Canon().Key()
		if got := rotated.Canon().Key(); got != key {
			t.Fatalf("rotation changed canonical key:\n %q\n %q", key, got)
		}
		if got := dup.Canon().Key(); got != key {
			t.Fatalf("duplication changed canonical key:\n %q\n %q", key, got)
		}
		if got := c.Canon().Canon().Key(); got != key {
			t.Fatalf("Canon not idempotent:\n %q\n %q", key, got)
		}

		// A cached solver must agree with an uncached solver run on the
		// canonical form (what it memoizes): on the first call (miss), on a
		// repeat (hit), and on the reordered and duplicated twins (hits via
		// the canonical key). The memoized verdict is a pure function of the
		// key, never of the atom order the first caller happened to use.
		want := New(DefaultOptions()).Solve(c.Canon())
		s, cache := New(DefaultOptions()), &countingCache{Cache: NewCache(64)}
		for _, variant := range []constraint.Conj{c, c, rotated, dup} {
			if got := cachedSolve(s, cache, variant); got != want {
				t.Fatalf("cached solve = %v, uncached canonical = %v", got, want)
			}
		}
		if cache.hits < 3 {
			t.Fatalf("expected >=3 cache hits, got %d", cache.hits)
		}

		// Unsat is the load-bearing verdict (it prunes paths; Sat and
		// Unknown both mean "not proven infeasible"), so cross-check it by
		// brute force: if any small integer assignment satisfies every atom,
		// no ordering may claim Unsat.
		if hasSmallModel(c) {
			for _, variant := range []constraint.Conj{c, rotated, dup} {
				if cachedSolve(s, nil, variant) == Unsat {
					t.Fatalf("Unsat for a satisfiable conjunction (order %v)", variant)
				}
			}
		}
	})
}

// hasSmallModel brute-forces assignments of the four fuzz symbols (Syms
// 0..3) over a small box and reports whether one satisfies every atom.
func hasSmallModel(c constraint.Conj) bool {
	const lo, hi = -6, 6
	var vals [4]int64
	var rec func(i int) bool
	eval := func(a constraint.Atom) bool {
		v := a.LHS.Const
		for _, t := range a.LHS.Terms {
			v += t.Coeff * vals[int(t.Sym)]
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
		default: // GT
			return v > 0
		}
	}
	rec = func(i int) bool {
		if i == len(vals) {
			for _, a := range c {
				if !eval(a) {
					return false
				}
			}
			return true
		}
		for v := int64(lo); v <= hi; v++ {
			vals[i] = v
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}
