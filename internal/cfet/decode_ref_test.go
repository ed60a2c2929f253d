package cfet

import (
	"fmt"
	"sync"

	"github.com/grapple-system/grapple/internal/constraint"
	"github.com/grapple-system/grapple/internal/symbolic"
)

// This file is the decoder as it was before Decoder kept its scratch: a map
// per activation, every renamed expression a chain of Expr.Subst calls, every
// binding atom built with Var, Scale and Add. It is the oracle
// TestDecoderMatchesDecode holds Decoder to, atom for atom.

// refRenamer maps one method's symbols to per-call-frame instance symbols, so
// that a path entering the same callee twice does not conflate the two
// activations' parameter values. A nil *refRenamer is the identity.
type refRenamer struct {
	owned map[symbolic.Sym]bool
	m     map[symbolic.Sym]symbolic.Sym
	next  *symbolic.Sym // shared per-decode synthetic counter
}

// newRefRenamer creates an activation renamer drawing synthetic symbols
// from a shared per-decode counter.
func (m *CFET) newRefRenamer(next *symbolic.Sym) *refRenamer {
	return &refRenamer{owned: m.symSet(), m: map[symbolic.Sym]symbolic.Sym{}, next: next}
}

// refSymSets caches symSet per method.
var refSymSets sync.Map // *CFET -> map[symbolic.Sym]bool

// symSet is the method's owned-symbol set as the decoder kept it, one map
// per method, before ICFET.owner replaced it.
func (m *CFET) symSet() map[symbolic.Sym]bool {
	if set, ok := refSymSets.Load(m); ok {
		return set.(map[symbolic.Sym]bool)
	}
	set := make(map[symbolic.Sym]bool, len(m.Syms))
	for _, s := range m.Syms {
		set[s] = true
	}
	refSymSets.Store(m, set)
	return set
}

func (r *refRenamer) rename(s symbolic.Sym) (symbolic.Sym, bool) {
	if r == nil || !r.owned[s] {
		return s, false
	}
	if ns, ok := r.m[s]; ok {
		return ns, true
	}
	ns := *r.next
	*r.next++
	r.m[s] = ns
	return ns, true
}

// Atom rewrites an atom through the renamer.
func (r *refRenamer) Atom(a constraint.Atom) constraint.Atom {
	if r == nil {
		return a
	}
	return constraint.Atom{LHS: r.Expr(a.LHS), Op: a.Op}
}

// Expr rewrites an expression through the renamer.
func (r *refRenamer) Expr(e symbolic.Expr) symbolic.Expr {
	if r == nil {
		return e
	}
	out := e
	for _, t := range e.Terms {
		if ns, changed := r.rename(t.Sym); changed {
			out = out.Subst(t.Sym, symbolic.Var(ns))
		}
	}
	return out
}

// refFrame is one activation during decoding.
type refFrame struct {
	method  *CFET
	ren     *refRenamer
	call    *CallEdge // edge that pushed this frame (nil for the root)
	lastEnd uint64    // deepest node of the last interval decoded here
	hasEnd  bool
}

// refDecode is ICFET.Decode as it was.
func (ic *ICFET) refDecode(e Enc) (constraint.Conj, error) {
	var out constraint.Conj
	var stack []refFrame
	synth := SyntheticBase
	top := func() *refFrame {
		if len(stack) == 0 {
			return nil
		}
		return &stack[len(stack)-1]
	}
	for _, el := range e {
		switch el.Kind {
		case KInterval:
			if int(el.Method) >= len(ic.Methods) {
				return nil, fmt.Errorf("decode: bad method %d", el.Method)
			}
			m := ic.Methods[el.Method]
			t := top()
			if t == nil || t.method != m {
				// Root fragment (or fragment outside refFrame structure):
				// identity renaming.
				stack = append(stack, refFrame{method: m})
				t = top()
			}
			var err error
			out, err = m.refPathConstraint(el.Start, el.End, t.ren, out)
			if err != nil {
				return nil, err
			}
			t.lastEnd, t.hasEnd = el.End, true
		case KCall:
			if int(el.Call) >= len(ic.CallEdges) {
				return nil, fmt.Errorf("decode: bad call edge %d", el.Call)
			}
			ce := ic.CallEdges[el.Call]
			callerRen := (*refRenamer)(nil)
			if t := top(); t != nil {
				callerRen = t.ren
			}
			callee := ic.Methods[ce.Callee]
			nf := refFrame{method: callee, ren: callee.newRefRenamer(&synth), call: ce}
			for _, eq := range ce.ParamEqs {
				ps, _ := nf.ren.rename(eq.Sym)
				arg := callerRen.Expr(eq.Expr)
				out = out.And(constraint.NewAtom(symbolic.Var(ps), constraint.EQ, arg))
			}
			stack = append(stack, nf)
		case KRet:
			if int(el.Call) >= len(ic.CallEdges) {
				return nil, fmt.Errorf("decode: bad return edge %d", el.Call)
			}
			ce := ic.CallEdges[el.Call]
			t := top()
			if t == nil || t.call == nil || t.call.ID != ce.ID {
				// Unmatched return: no constraint (lenient).
				if len(stack) > 0 {
					stack = stack[:len(stack)-1]
				}
				continue
			}
			calleeRen := t.ren
			leafEnd, hasLeaf := t.lastEnd, t.hasEnd
			stack = stack[:len(stack)-1]
			if ce.RetSym != symbolic.NoSym && hasLeaf {
				callee := ic.Methods[ce.Callee]
				if leaf := callee.Node(leafEnd); leaf != nil && leaf.Ret.HasExpr {
					callerRen := (*refRenamer)(nil)
					if nt := top(); nt != nil {
						callerRen = nt.ren
					}
					ret := calleeRen.Expr(leaf.Ret.Expr)
					lhsSym, _ := refRename2(callerRen, ce.RetSym)
					out = out.And(constraint.NewAtom(symbolic.Var(lhsSym), constraint.EQ, ret))
				}
			}
		}
	}
	return out, nil
}

func refRename2(r *refRenamer, s symbolic.Sym) (symbolic.Sym, bool) {
	if r == nil {
		return s, false
	}
	return r.rename(s)
}

// refPathConstraint is CFET.PathConstraint over a refRenamer, looking every
// ancestor up by ID instead of following parent links.
func (m *CFET) refPathConstraint(from, to uint64, ren *refRenamer, out constraint.Conj) (constraint.Conj, error) {
	cur := to
	for cur != from {
		if cur == 0 {
			return out, fmt.Errorf("cfet %s: %d is not an ancestor of %d", m.Name, from, to)
		}
		parent := Parent(cur)
		pn := m.Node(parent)
		if pn == nil {
			return out, fmt.Errorf("cfet %s: missing node %d", m.Name, parent)
		}
		if pn.HasCond {
			a := pn.Cond
			if !IsTrueChild(cur) {
				a = a.Negate()
			}
			out = out.And(ren.Atom(a))
		}
		cur = parent
	}
	return out, nil
}
