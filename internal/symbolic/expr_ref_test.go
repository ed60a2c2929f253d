package symbolic

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/grapple-system/grapple/internal/raceflag"
)

// The reference algebra: normalize, Add and Scale as they were before they
// stopped allocating — normalize sorted with sort.Slice, Add concatenated
// both term lists into a fresh slice and normalized it, Scale copied every
// term. The production versions are held to these.

func normalizeRef(terms []Term, c int64) Expr {
	sort.Slice(terms, func(i, j int) bool { return terms[i].Sym < terms[j].Sym })
	out := terms[:0]
	for _, t := range terms {
		if n := len(out); n > 0 && out[n-1].Sym == t.Sym {
			out[n-1].Coeff += t.Coeff
		} else {
			out = append(out, t)
		}
	}
	kept := out[:0]
	for _, t := range out {
		if t.Coeff != 0 {
			kept = append(kept, t)
		}
	}
	if len(kept) == 0 {
		kept = nil
	}
	return Expr{Terms: kept, Const: c}
}

func addRef(e, o Expr) Expr {
	terms := make([]Term, 0, len(e.Terms)+len(o.Terms))
	terms = append(terms, e.Terms...)
	terms = append(terms, o.Terms...)
	return normalizeRef(terms, e.Const+o.Const)
}

func scaleRef(e Expr, k int64) Expr {
	if k == 0 {
		return Expr{}
	}
	terms := make([]Term, len(e.Terms))
	for i, t := range e.Terms {
		terms[i] = Term{Sym: t.Sym, Coeff: t.Coeff * k}
	}
	return Expr{Terms: terms, Const: e.Const * k}
}

// randTerms is an arbitrary term list: symbols repeat, coefficients cancel
// or are zero, and the order is random, sorted or reversed.
func randTerms(rng *rand.Rand) []Term {
	terms := make([]Term, rng.Intn(12))
	for i := range terms {
		terms[i] = Term{Sym: Sym(rng.Intn(6)), Coeff: int64(rng.Intn(7) - 3)}
	}
	switch rng.Intn(3) {
	case 0:
		sort.Slice(terms, func(i, j int) bool { return terms[i].Sym < terms[j].Sym })
	case 1:
		sort.Slice(terms, func(i, j int) bool { return terms[i].Sym > terms[j].Sym })
	}
	return terms
}

// TestNormalizeMatchesSortSlice: on random term lists the allocation-free
// normalize gives exactly what the sort.Slice version gives, nil for an
// empty result included — and allocates nothing doing it.
func TestNormalizeMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for i := 0; i < 20000; i++ {
		terms := randTerms(rng)
		c := int64(rng.Intn(9) - 4)
		want := normalizeRef(append([]Term(nil), terms...), c)
		got := normalize(append([]Term(nil), terms...), c)
		if !got.Equal(want) || (got.Terms == nil) != (want.Terms == nil) {
			t.Fatalf("normalize(%v, %d) = %v, reference %v", terms, c, got, want)
		}
	}
	if raceflag.Enabled {
		return // the race runtime inflates allocation
	}
	terms := []Term{{5, 1}, {2, 3}, {5, -1}, {0, 2}, {3, 1}, {2, 1}, {4, 4}, {1, 1}, {0, -2}}
	buf := make([]Term, len(terms))
	if n := testing.AllocsPerRun(100, func() { copy(buf, terms); normalize(buf, 1) }); n != 0 {
		t.Errorf("normalize allocates %.0f times a call", n)
	}
}

// TestAlgebraMatchesReference: Add, Sub, Scale and Neg over normalized
// expressions agree with the reference algebra.
func TestAlgebraMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 20000; i++ {
		x := normalizeRef(randTerms(rng), int64(rng.Intn(9)-4))
		y := normalizeRef(randTerms(rng), int64(rng.Intn(9)-4))
		k := int64(rng.Intn(7) - 3)
		for _, c := range []struct {
			op        string
			got, want Expr
		}{
			{"+", x.Add(y), addRef(x, y)},
			{"-", x.Sub(y), addRef(x, scaleRef(y, -1))},
			{"scale", x.Scale(k), scaleRef(x, k)},
			{"neg", x.Neg(), scaleRef(x, -1)},
		} {
			if !c.got.Equal(c.want) {
				t.Fatalf("%s (%s) %s (%s) k=%d: %s, reference %s",
					c.op, x.String(nil), c.op, y.String(nil), k, c.got.String(nil), c.want.String(nil))
			}
		}
	}
}
