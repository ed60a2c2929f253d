package symbolic

// Arena bump-allocates the term lists of one computation at a time — one
// Solve, one Decode — out of a chunk its owner keeps between computations, so
// that a warm owner allocates nothing. A chunk that fills up is left to the
// lists already cut from it and a larger one started; Reset rewinds the
// arena and sizes the chunk for everything handed out since the last Reset,
// after which every list cut before is dead. An owner that never calls
// Reset — one cfet.Build, whose expressions live as long as the tree — gets
// a slab: its lists stay valid as long as any of them is reachable. A nil
// *Arena allocates each list on the heap. Not safe for concurrent use.
type Arena struct {
	chunk   []Term
	retired int // capacity of the chunks filled since the last Reset
}

// arenaMinTerms is the first chunk's size; arenaMaxTerms (1 MiB of terms) is
// the size past which Reset drops the chunk instead of keeping it, so that one
// outsized computation does not pin its scratch for the life of the owner.
const (
	arenaMinTerms = 32
	arenaMaxTerms = 1 << 16
)

// Reset makes the arena's memory available again. Lists handed out before
// the call must no longer be used.
func (a *Arena) Reset() {
	switch need := a.retired + cap(a.chunk); {
	case need > arenaMaxTerms:
		a.chunk = nil
	case a.retired > 0:
		a.chunk = make([]Term, 0, need)
	default:
		a.chunk = a.chunk[:0]
	}
	a.retired = 0
}

// Alloc returns a list of n terms, capped so that an append through it copies
// out instead of clobbering its neighbor; nil for n == 0.
func (a *Arena) Alloc(n int) []Term {
	if n == 0 {
		return nil
	}
	if a == nil {
		return make([]Term, n)
	}
	if n > cap(a.chunk)-len(a.chunk) {
		a.retired += cap(a.chunk)
		a.chunk = make([]Term, 0, max(n, min(2*cap(a.chunk), arenaMaxTerms), arenaMinTerms))
	}
	lo := len(a.chunk)
	a.chunk = a.chunk[:lo+n]
	return a.chunk[lo : lo+n : lo+n]
}

// Var returns the expression 1*s with its term cut from the arena.
func (a *Arena) Var(s Sym) Expr {
	t := a.Alloc(1)
	t[0] = Term{Sym: s, Coeff: 1}
	return Expr{Terms: t}
}

// Combine returns kx*x + ky*y with its terms cut from the arena. Exprs are
// values whose terms are never written after construction, so a sum in
// which one side has no terms and the other a unit coefficient shares that
// side's terms instead.
func (a *Arena) Combine(x Expr, kx int64, y Expr, ky int64) Expr {
	c := kx*x.Const + ky*y.Const
	switch {
	case len(x.Terms) == 0 && len(y.Terms) == 0:
		return Expr{Const: c}
	case len(y.Terms) == 0 && kx == 1:
		return Expr{Terms: x.Terms, Const: c}
	case len(x.Terms) == 0 && ky == 1:
		return Expr{Terms: y.Terms, Const: c}
	}
	return Expr{Terms: a.AddScaled(x.Terms, kx, y.Terms, ky), Const: c}
}

// AddScaled returns the terms of kx*x + ky*y: one merge of two lists that are
// sorted by symbol, as every Expr's are, with the terms that cancel dropped.
// It reads x and y and writes neither.
func (a *Arena) AddScaled(x []Term, kx int64, y []Term, ky int64) []Term {
	out := a.Alloc(len(x) + len(y))
	n, i, j := 0, 0, 0
	for i < len(x) || j < len(y) {
		var t Term
		switch {
		case j == len(y) || i < len(x) && x[i].Sym < y[j].Sym:
			t = Term{Sym: x[i].Sym, Coeff: kx * x[i].Coeff}
			i++
		case i == len(x) || y[j].Sym < x[i].Sym:
			t = Term{Sym: y[j].Sym, Coeff: ky * y[j].Coeff}
			j++
		default:
			t = Term{Sym: x[i].Sym, Coeff: kx*x[i].Coeff + ky*y[j].Coeff}
			i, j = i+1, j+1
		}
		if t.Coeff != 0 {
			out[n] = t
			n++
		}
	}
	return a.shrink(out, n)
}

// shrink cuts the list Alloc returned last down to its first n terms and
// gives the rest back.
func (a *Arena) shrink(last []Term, n int) []Term {
	if a != nil {
		a.chunk = a.chunk[:len(a.chunk)-(len(last)-n)]
	}
	if n == 0 {
		return nil
	}
	return last[:n:n]
}
