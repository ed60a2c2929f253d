package symbolic

import (
	"math/rand"
	"testing"

	"github.com/grapple-system/grapple/internal/raceflag"
)

// TestAddScaledMatchesExpr holds the arena's one merge to the expression
// algebra it replaces on the solver's and the decoder's paths:
// kx*x + ky*y built with the reference Scale and Add (expr_ref_test.go),
// Combine included.
func TestAddScaledMatchesExpr(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	syms := []Sym{0, 1, 2, 5, 9, 1 << 29}
	var a Arena
	for i := 0; i < 5000; i++ {
		x, y := randExpr(rng, syms), randExpr(rng, syms)
		kx, ky := int64(rng.Intn(9)-4), int64(rng.Intn(9)-4)
		want := addRef(scaleRef(x, kx), scaleRef(y, ky))
		for _, ar := range []*Arena{&a, nil} {
			got := Expr{Terms: ar.AddScaled(x.Terms, kx, y.Terms, ky), Const: want.Const}
			if !got.Equal(want) {
				t.Fatalf("%d*(%s) + %d*(%s) = %s, want %s", kx, x.String(nil), ky, y.String(nil), got.String(nil), want.String(nil))
			}
			if got := ar.Combine(x, kx, y, ky); !got.Equal(want) {
				t.Fatalf("Combine: %d*(%s) + %d*(%s) = %s, want %s", kx, x.String(nil), ky, y.String(nil), got.String(nil), want.String(nil))
			}
		}
		if i%7 == 0 {
			a.Reset()
		}
	}
}

// TestArenaLists: a list is capped, so appending to it cannot reach its
// neighbor; a full chunk stays with the lists cut from it; after a Reset the
// arena holds everything the last round needed and allocates nothing; and a
// round that outgrew arenaMaxTerms leaves nothing pinned.
func TestArenaLists(t *testing.T) {
	var a Arena
	first := a.Alloc(3)
	second := a.Alloc(2)
	second[0] = Term{Sym: 7, Coeff: 7}
	first = append(first, Term{Sym: 1, Coeff: 1})
	if second[0].Sym != 7 {
		t.Fatal("append through one list wrote into the next")
	}
	if a.Alloc(0) != nil {
		t.Fatal("an empty list is nil")
	}
	round := func() {
		for i := 0; i < 40; i++ {
			l := a.Alloc(1 + i%5)
			l[0] = Term{Sym: Sym(i), Coeff: 1}
		}
	}
	round() // outgrows the first chunk: earlier lists keep theirs
	if second[0].Sym != 7 || first[3].Sym != 1 {
		t.Fatal("a list was lost when its chunk filled")
	}
	a.Reset()
	if got := testing.AllocsPerRun(10, func() { round(); a.Reset() }); got != 0 && !raceflag.Enabled {
		t.Fatalf("a warm arena allocates %.0f times a round, want 0", got)
	}
	a.Alloc(arenaMaxTerms + 1)
	a.Reset()
	if cap(a.chunk) != 0 {
		t.Fatalf("Reset kept a chunk of %d terms, past the %d it may pin", cap(a.chunk), arenaMaxTerms)
	}
}
