package cfet

import (
	"fmt"

	"github.com/grapple-system/grapple/internal/constraint"
	"github.com/grapple-system/grapple/internal/symbolic"
)

// SyntheticBase is the first symbol ID used for per-activation instance
// symbols created during decoding. Real (interned) symbols are always below
// it, so synthetic symbols never collide with them; they are local to one
// Decode call (conjunctions never mix across decodes), so no global
// allocation — and no mutation of the shared symbol table — is needed.
// This keeps Decode safe for the engine's concurrent workers.
const SyntheticBase symbolic.Sym = 1 << 29

// Renamer maps one method's symbols to per-call-frame instance symbols, so
// that a path entering the same callee twice does not conflate the two
// activations' parameter values. A nil *Renamer is the identity.
type Renamer struct {
	// owner and m say which symbols the activation renames: those whose
	// owner is m (ICFET.owner).
	owner []MethodID
	m     MethodID
	// pairs is the activation's mapping in order of first use; an activation
	// renames a handful of symbols, so a scan beats a map.
	pairs []symPair
	next  *symbolic.Sym // shared per-decode synthetic counter
	// arena is where renamed term lists are cut from; nil for the heap.
	arena *symbolic.Arena
}

type symPair struct{ from, to symbolic.Sym }

// newRenamerCounter creates an activation renamer of m drawing synthetic
// symbols from a shared per-decode counter.
func (ic *ICFET) newRenamerCounter(m *CFET, next *symbolic.Sym) *Renamer {
	return &Renamer{owner: ic.owner, m: m.Method, next: next}
}

// owns reports whether the activation renames s.
func (r *Renamer) owns(s symbolic.Sym) bool {
	return uint(s) < uint(len(r.owner)) && r.owner[s] == r.m
}

func (r *Renamer) rename(s symbolic.Sym) (symbolic.Sym, bool) {
	if r == nil || !r.owns(s) {
		return s, false
	}
	for _, p := range r.pairs {
		if p.from == s {
			return p.to, true
		}
	}
	ns := *r.next
	*r.next++
	r.pairs = append(r.pairs, symPair{from: s, to: ns})
	return ns, true
}

// Atom rewrites an atom through the renamer.
func (r *Renamer) Atom(a constraint.Atom) constraint.Atom {
	if r == nil {
		return a
	}
	return constraint.Atom{LHS: r.Expr(a.LHS), Op: a.Op}
}

// Expr rewrites an expression through the renamer: every owned symbol is
// replaced in one pass and the terms put back in symbol order. Renaming is
// injective and instance symbols are new to e, so no two terms meet. An
// expression without owned symbols is returned as it is, sharing its terms.
func (r *Renamer) Expr(e symbolic.Expr) symbolic.Expr {
	if r == nil {
		return e
	}
	first := 0
	for first < len(e.Terms) && !r.owns(e.Terms[first].Sym) {
		first++
	}
	if first == len(e.Terms) {
		return e
	}
	terms := r.arena.Alloc(len(e.Terms))
	copy(terms, e.Terms[:first])
	for i := first; i < len(e.Terms); i++ {
		t := e.Terms[i]
		t.Sym, _ = r.rename(t.Sym)
		j := i
		for ; j > 0 && terms[j-1].Sym > t.Sym; j-- {
			terms[j] = terms[j-1]
		}
		terms[j] = t
	}
	return symbolic.Expr{Terms: terms, Const: e.Const}
}

// frame is one activation during decoding.
type frame struct {
	method  *CFET
	ren     *Renamer
	call    *CallEdge // edge that pushed this frame (nil for the root)
	lastEnd uint64    // deepest node of the last interval decoded here
	hasEnd  bool
}

// Decoder decodes encodings against one ICFET in memory it keeps between
// calls: the conjunction it returns, the frame stack, the activation renamers
// and the arena every term list it builds is cut from. A warm Decoder
// allocates nothing. Not safe for concurrent use; the engine gives each join
// worker its own.
type Decoder struct {
	ic    *ICFET
	conj  constraint.Conj
	stack []frame
	// rens[:used] are the current decode's activations; the rest wait for
	// reuse.
	rens  []*Renamer
	used  int
	synth symbolic.Sym
	arena symbolic.Arena
}

// NewDecoder returns a Decoder over ic.
func (ic *ICFET) NewDecoder() *Decoder { return &Decoder{ic: ic} }

// Decode reconstructs the path constraint of an encoding: Decoder.Decode on a
// fresh Decoder, so the caller owns the conjunction it returns.
func (ic *ICFET) Decode(e Enc) (constraint.Conj, error) { return ic.NewDecoder().Decode(e) }

func (d *Decoder) top() *frame {
	if len(d.stack) == 0 {
		return nil
	}
	return &d.stack[len(d.stack)-1]
}

// activation returns a renamer for a new activation of m.
func (d *Decoder) activation(m *CFET) *Renamer {
	if d.used == len(d.rens) {
		d.rens = append(d.rens, &Renamer{owner: d.ic.owner, next: &d.synth, arena: &d.arena})
	}
	r := d.rens[d.used]
	d.used++
	r.m, r.pairs = m.Method, r.pairs[:0]
	return r
}

// bind conjoins s == e.
func (d *Decoder) bind(s symbolic.Sym, e symbolic.Expr) {
	v := [1]symbolic.Term{{Sym: s, Coeff: 1}}
	lhs := symbolic.Expr{Terms: d.arena.AddScaled(v[:], 1, e.Terms, -1), Const: -e.Const}
	d.conj = d.conj.And(constraint.Atom{LHS: lhs, Op: constraint.EQ})
}

// Decode reconstructs the path constraint of an encoding (paper §3.2 and
// Algorithm 1 generalized interprocedurally): interval fragments contribute
// their branch conditions, call elements push an activation frame and
// conjoin parameter-passing equations, return elements conjoin the return
// binding and pop. Callee-owned symbols are renamed per activation so
// repeated calls to one callee stay independent.
//
// Decoding is lenient about structurally surprising encodings (fragments
// from non-connecting merges): they only ever weaken the constraint.
//
// The conjunction returned, and every term list in it that is not a CFET
// node's own, is valid until the next call to Decode on d: solve it or copy
// it before then. Its atoms may share their terms with the CFET's branch
// conditionals and must not be written.
func (d *Decoder) Decode(e Enc) (constraint.Conj, error) {
	ic := d.ic
	d.arena.Reset()
	d.conj, d.stack, d.used, d.synth = d.conj[:0], d.stack[:0], 0, SyntheticBase
	for _, el := range e {
		switch el.Kind {
		case KInterval:
			if int(el.Method) >= len(ic.Methods) {
				return nil, fmt.Errorf("decode: bad method %d", el.Method)
			}
			m := ic.Methods[el.Method]
			t := d.top()
			if t == nil || t.method != m {
				// Root fragment (or fragment outside frame structure):
				// identity renaming.
				d.stack = append(d.stack, frame{method: m})
				t = d.top()
			}
			var err error
			d.conj, err = m.PathConstraint(el.Start, el.End, t.ren, d.conj)
			if err != nil {
				return nil, err
			}
			t.lastEnd, t.hasEnd = el.End, true
		case KCall:
			if int(el.Call) >= len(ic.CallEdges) {
				return nil, fmt.Errorf("decode: bad call edge %d", el.Call)
			}
			ce := ic.CallEdges[el.Call]
			callerRen := (*Renamer)(nil)
			if t := d.top(); t != nil {
				callerRen = t.ren
			}
			callee := ic.Methods[ce.Callee]
			nf := frame{method: callee, ren: d.activation(callee), call: ce}
			for _, eq := range ce.ParamEqs {
				ps, _ := nf.ren.rename(eq.Sym)
				d.bind(ps, callerRen.Expr(eq.Expr))
			}
			d.stack = append(d.stack, nf)
		case KRet:
			if int(el.Call) >= len(ic.CallEdges) {
				return nil, fmt.Errorf("decode: bad return edge %d", el.Call)
			}
			ce := ic.CallEdges[el.Call]
			t := d.top()
			if t == nil || t.call == nil || t.call.ID != ce.ID {
				// Unmatched return: no constraint (lenient).
				if len(d.stack) > 0 {
					d.stack = d.stack[:len(d.stack)-1]
				}
				continue
			}
			calleeRen := t.ren
			leafEnd, hasLeaf := t.lastEnd, t.hasEnd
			d.stack = d.stack[:len(d.stack)-1]
			if ce.RetSym != symbolic.NoSym && hasLeaf {
				callee := ic.Methods[ce.Callee]
				if leaf := callee.Node(leafEnd); leaf != nil && leaf.Ret.HasExpr {
					callerRen := (*Renamer)(nil)
					if nt := d.top(); nt != nil {
						callerRen = nt.ren
					}
					ret := calleeRen.Expr(leaf.Ret.Expr)
					lhsSym, _ := callerRen.rename(ce.RetSym)
					d.bind(lhsSym, ret)
				}
			}
		}
	}
	return d.conj, nil
}
