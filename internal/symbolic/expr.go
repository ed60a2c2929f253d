// Package symbolic implements the linear symbolic expressions produced by
// Grapple's per-method symbolic execution (paper §3.1, §3.3).
//
// During CFET construction every integer-valued program variable is given a
// symbolic value expressed over the method's symbolic variables: its formal
// parameters, the results of calls, and opaque inputs. All values Grapple
// needs are linear (branch conditionals in systems code are overwhelmingly
// comparisons of linear combinations); any non-linear operation is
// over-approximated by a fresh opaque symbol, which keeps the solver's
// fragment decidable while remaining sound for bug finding.
package symbolic

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Sym identifies a symbolic variable. Symbols are interned in a Table.
type Sym int32

// NoSym is the zero Sym and never names a real symbol.
const NoSym Sym = -1

// Table interns symbolic-variable names. The zero value is ready to use.
type Table struct {
	names []string
	index map[string]Sym
}

// NewTable returns an empty symbol table.
func NewTable() *Table {
	return &Table{index: make(map[string]Sym)}
}

// Intern returns the Sym for name, creating it if necessary.
func (t *Table) Intern(name string) Sym {
	if t.index == nil {
		t.index = make(map[string]Sym)
	}
	if s, ok := t.index[name]; ok {
		return s
	}
	s := Sym(len(t.names))
	t.names = append(t.names, name)
	t.index[name] = s
	return s
}

// Fresh creates a new symbol that is guaranteed not to collide with any
// interned name. The prefix appears in diagnostics.
func (t *Table) Fresh(prefix string) Sym { return t.FreshIn("", prefix) }

// FreshIn is Fresh with the prefix scope + "." + prefix (just prefix for an
// empty scope), built without an intermediate string.
func (t *Table) FreshIn(scope, prefix string) Sym {
	var arr [64]byte
	b := append(scoped(arr[:0], scope, prefix), '$')
	return t.internBytes(strconv.AppendInt(b, int64(len(t.names)), 10))
}

// InternIn is Intern(scope + "." + name), allocating the joined name only
// when it is new to the table.
func (t *Table) InternIn(scope, name string) Sym {
	var arr [64]byte
	return t.internBytes(scoped(arr[:0], scope, name))
}

func scoped(b []byte, scope, name string) []byte {
	if scope != "" {
		b = append(append(b, scope...), '.')
	}
	return append(b, name...)
}

func (t *Table) internBytes(name []byte) Sym {
	if s, ok := t.index[string(name)]; ok {
		return s
	}
	return t.Intern(string(name))
}

// Name returns the name of s, or "?" if s is out of range.
func (t *Table) Name(s Sym) string {
	if s < 0 || int(s) >= len(t.names) {
		return "?"
	}
	return t.names[s]
}

// Len reports the number of interned symbols.
func (t *Table) Len() int { return len(t.names) }

// Expr is a linear expression sum(Coeff[i]*Sym[i]) + Const. Terms are kept
// sorted by symbol and never carry a zero coefficient, so structural
// equality of Exprs coincides with semantic equality of linear forms.
type Expr struct {
	Terms []Term
	Const int64
}

// Term is one coefficient-symbol product of a linear expression.
type Term struct {
	Sym   Sym
	Coeff int64
}

// Const returns the expression for the integer constant c.
func Const(c int64) Expr { return Expr{Const: c} }

// Var returns the expression for 1*s.
func Var(s Sym) Expr { return Expr{Terms: []Term{{Sym: s, Coeff: 1}}} }

// IsConst reports whether e has no symbolic terms.
func (e Expr) IsConst() bool { return len(e.Terms) == 0 }

// Equal reports structural (hence semantic) equality.
func (e Expr) Equal(o Expr) bool {
	if e.Const != o.Const || len(e.Terms) != len(o.Terms) {
		return false
	}
	for i, t := range e.Terms {
		if o.Terms[i] != t {
			return false
		}
	}
	return true
}

// normalize puts terms in canonical form in place: sorted by symbol, terms
// on one symbol merged, zero coefficients dropped. The sort allocates
// nothing, and it need not be stable: terms on one symbol are summed, so
// their order cannot show.
func normalize(terms []Term, c int64) Expr {
	slices.SortFunc(terms, func(a, b Term) int { return cmp.Compare(a.Sym, b.Sym) })
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

// Add returns e + o. Both must be in canonical form, as every Expr this
// package builds is: their terms are merged, not sorted again.
func (e Expr) Add(o Expr) Expr { return onHeap.Combine(e, 1, o, 1) }

// Sub returns e - o.
func (e Expr) Sub(o Expr) Expr { return onHeap.Combine(e, 1, o, -1) }

// Scale returns k*e.
func (e Expr) Scale(k int64) Expr {
	if k == 0 {
		return Expr{}
	}
	return onHeap.Combine(e, k, Expr{}, 0)
}

// onHeap is the nil arena: it puts every list it is asked for on the heap.
var onHeap *Arena

// Neg returns -e.
func (e Expr) Neg() Expr { return e.Scale(-1) }

// Subst returns e with s replaced by r.
func (e Expr) Subst(s Sym, r Expr) Expr {
	var coeff int64
	terms := make([]Term, 0, len(e.Terms)+len(r.Terms))
	for _, t := range e.Terms {
		if t.Sym == s {
			coeff = t.Coeff
		} else {
			terms = append(terms, t)
		}
	}
	if coeff == 0 {
		return e
	}
	scaled := r.Scale(coeff)
	terms = append(terms, scaled.Terms...)
	return normalize(terms, e.Const+scaled.Const)
}

// Coeff returns the coefficient of s in e (zero if absent).
func (e Expr) Coeff(s Sym) int64 {
	for _, t := range e.Terms {
		if t.Sym == s {
			return t.Coeff
		}
	}
	return 0
}

// Syms appends the symbols occurring in e to dst and returns it.
func (e Expr) Syms(dst []Sym) []Sym {
	for _, t := range e.Terms {
		dst = append(dst, t.Sym)
	}
	return dst
}

// String renders e against t, e.g. "2*x - y + 3". A nil table prints raw
// symbol numbers.
func (e Expr) String(t *Table) string {
	if len(e.Terms) == 0 {
		return fmt.Sprintf("%d", e.Const)
	}
	var b strings.Builder
	for i, term := range e.Terms {
		name := fmt.Sprintf("s%d", term.Sym)
		if t != nil {
			name = t.Name(term.Sym)
		}
		c := term.Coeff
		switch {
		case i == 0 && c == 1:
			b.WriteString(name)
		case i == 0 && c == -1:
			b.WriteString("-" + name)
		case i == 0:
			fmt.Fprintf(&b, "%d*%s", c, name)
		case c == 1:
			b.WriteString(" + " + name)
		case c == -1:
			b.WriteString(" - " + name)
		case c > 0:
			fmt.Fprintf(&b, " + %d*%s", c, name)
		default:
			fmt.Fprintf(&b, " - %d*%s", -c, name)
		}
	}
	if e.Const > 0 {
		fmt.Fprintf(&b, " + %d", e.Const)
	} else if e.Const < 0 {
		fmt.Fprintf(&b, " - %d", -e.Const)
	}
	return b.String()
}

// Key returns a compact canonical key for use in memoization tables:
// "coeff*sym," per term, then the constant, all in decimal.
func (e Expr) Key() string {
	var arr [64]byte
	b := arr[:0]
	for _, t := range e.Terms {
		b = strconv.AppendInt(b, t.Coeff, 10)
		b = append(b, '*')
		b = strconv.AppendInt(b, int64(t.Sym), 10)
		b = append(b, ',')
	}
	b = strconv.AppendInt(b, e.Const, 10)
	return string(b)
}
