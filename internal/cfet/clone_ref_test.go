package cfet

import (
	"fmt"
	"strconv"

	"github.com/grapple-system/grapple/internal/constraint"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/symbolic"
)

// The reference walker: Build as it was before the environment got an undo
// trail and before lowering numbered variables. The environment is a pair
// of maps keyed by variable name, and every split hands each arm its own
// copy of both, so no arm can see a sibling's writes by construction —
// which is what makes it the oracle for the slot-indexed trail version. It
// shares the walker's node, statement and symbol bookkeeping (newNode,
// place, seal, fresh, intern, …) and evaluates statements through its own
// name-keyed copies of evalOperand, evalArith, evalCondAtom and
// makeCallEdge.

// refEnv is the name-keyed environment.
type refEnv struct {
	ints  map[string]symbolic.Expr
	bools map[string]boolVal
}

func newRefEnv() *refEnv {
	return &refEnv{ints: map[string]symbolic.Expr{}, bools: map[string]boolVal{}}
}

// clone copies the bindings into a fresh environment.
func (e *refEnv) clone() *refEnv {
	n := &refEnv{
		ints:  make(map[string]symbolic.Expr, len(e.ints)),
		bools: make(map[string]boolVal, len(e.bools)),
	}
	for k, v := range e.ints {
		n.ints[k] = v
	}
	for k, v := range e.bools {
		n.bools[k] = v
	}
	return n
}

// buildCloneReference is Build with walkCloneReference as the tree walk.
func buildCloneReference(p *ir.Program, syms *symbolic.Table, opts Options) (*ICFET, error) {
	if opts.MaxNodesPerMethod <= 0 {
		opts.MaxNodesPerMethod = 4096
	}
	ic := &ICFET{
		Syms:         syms,
		MethodByName: map[string]MethodID{},
		MaxEncLen:    maxEncLen,
	}
	for i, fn := range p.Funs {
		id := MethodID(i)
		ic.MethodByName[fn.Name] = id
		m := &CFET{Method: id, Name: fn.Name, Fn: fn}
		if len(fn.Params) > 0 {
			m.ParamSyms = make([]symbolic.Sym, len(fn.Params))
			for j := range m.ParamSyms {
				m.ParamSyms[j] = symbolic.NoSym
			}
		}
		ic.Methods = append(ic.Methods, m)
	}
	sl := &buildSlabs{}
	for i, fn := range p.Funs {
		w := &walker{
			ic:      ic,
			m:       ic.Methods[i],
			budget:  opts.MaxNodesPerMethod,
			verdict: opts.BranchVerdict,
			slice:   opts.SliceBranch,
			slabs:   sl,
		}
		if opts.SliceFunc != nil && opts.SliceFunc(fn.Name) {
			w.stub(fn)
			w.sealNodes()
			continue
		}
		e := newRefEnv()
		for i, p := range fn.Params {
			s := w.intern(p.Name)
			w.m.ParamSyms[i] = s
			if p.Type == "int" || p.Type == "bool" {
				e.ints[p.Name] = symbolic.Var(s)
			}
		}
		w.walkCloneReference(fn.Body.Stmts, nil, w.newNode(0, nil), e)
		w.sealNodes()
	}
	ic.indexOwners()
	return ic, nil
}

func (w *walker) walkCloneReference(stmts []ir.Stmt, k *contFrame, n *Node, e *refEnv) {
	for {
		if len(stmts) == 0 {
			if k == nil {
				w.endLeaf(n, LeafReturn, RetInfo{Kind: LeafReturn})
				return
			}
			stmts, k = k.stmts, k.next
			continue
		}
		s := stmts[0]
		rest := stmts[1:]
		switch s := s.(type) {
		case *ir.IntAssign:
			e.ints[s.Dst] = w.refEvalArith(s, e)
			w.place(s, -1, symbolic.NoSym)
		case *ir.BoolAssign:
			e.bools[s.Dst] = boolVal{known: true, atom: w.refEvalCondAtom(s.Cond, e)}
			w.place(s, -1, symbolic.NoSym)
		case *ir.ObjAssign, *ir.NewObj, *ir.Store, *ir.Load, *ir.CatchBind:
			w.place(s, -1, symbolic.NoSym)
		case *ir.Event:
			sym := symbolic.NoSym
			if s.Dst != "" {
				sym = w.fresh("ev_" + s.Method)
				e.ints[s.Dst] = symbolic.Var(sym)
			}
			w.place(s, -1, sym)
		case *ir.Call:
			ce := w.refMakeCallEdge(s, n, e)
			if s.Dst != "" && !s.DstIsObject && ce != nil {
				e.ints[s.Dst] = symbolic.Var(ce.RetSym)
			}
			id := int32(-1)
			if ce != nil {
				id = ce.ID
			}
			w.place(s, id, symbolic.NoSym)
		case *ir.Return:
			ri := RetInfo{Kind: LeafReturn}
			if s.SrcIsObject {
				ri.ObjVar = s.Src.Var
			} else if s.Src != (ir.Operand{}) {
				ri.HasExpr = true
				ri.Expr = w.refEvalOperand(s.Src, e)
			}
			w.place(s, -1, symbolic.NoSym)
			w.endLeaf(n, LeafReturn, ri)
			return
		case *ir.ThrowExit:
			w.place(s, -1, symbolic.NoSym)
			w.endLeaf(n, LeafThrow, RetInfo{Kind: LeafThrow})
			return
		case *ir.If:
			if w.slice != nil && w.slice(s) {
				w.m.Sliced++
				stmts = rest
				continue
			}
			if w.verdict != nil {
				if v := w.verdict(s); v != 0 {
					w.m.Pruned++
					arm := s.Then
					if v < 0 {
						arm = s.Else
					}
					if len(rest) > 0 {
						k = &contFrame{stmts: rest, next: k}
					}
					stmts = arm.Stmts
					continue
				}
			}
			atom := w.refEvalCondAtom(s.Cond, e)
			n.HasCond = true
			n.Cond = atom
			n.CondPos = s.Pos
			n.Branch = s
			falseID, trueID := 2*n.ID+1, 2*n.ID+2
			if trueID >= maxNodeID || w.nodes+2 > w.budget {
				n.HasCond = false
				w.m.Truncated++
				w.endLeaf(n, LeafTruncate, RetInfo{Kind: LeafTruncate})
				return
			}
			w.seal(n)
			nk := k
			if len(rest) > 0 {
				nk = &contFrame{stmts: rest, next: k}
			}
			tn := w.newNode(trueID, n)
			w.walkCloneReference(s.Then.Stmts, nk, tn, e.clone())
			if w.nodes >= w.budget {
				w.m.Truncated++
				return
			}
			fn := w.newNode(falseID, n)
			w.walkCloneReference(s.Else.Stmts, nk, fn, e.clone())
			return
		default:
			panic(fmt.Sprintf("cfet: unexpected statement %T (exceptions must be expanded)", s))
		}
		stmts = rest
	}
}

// refMakeCallEdge is makeCallEdge finding the callee's parameter symbol by
// formal name.
func (w *walker) refMakeCallEdge(c *ir.Call, n *Node, e *refEnv) *CallEdge {
	calleeID, ok := w.ic.MethodByName[c.Callee]
	if !ok {
		return nil
	}
	callee := w.ic.Methods[calleeID]
	ce := &CallEdge{
		ID:         int32(len(w.ic.CallEdges)),
		Caller:     w.m.Method,
		CallerNode: n.ID,
		Callee:     calleeID,
		RetSym:     symbolic.NoSym,
		Site:       c.Site,
	}
	for _, a := range c.IntArgs {
		i := 0
		for callee.Fn.Params[i].Name != a.Formal {
			i++
		}
		ps := callee.ParamSyms[i]
		if ps == symbolic.NoSym {
			ps = w.ic.Syms.InternIn(c.Callee, a.Formal)
			callee.ParamSyms[i] = ps
			callee.Syms = append(callee.Syms, ps)
		}
		ce.ParamEqs = append(ce.ParamEqs, Equation{Sym: ps, Expr: w.refEvalOperand(a.Arg, e)})
	}
	if c.Dst != "" && !c.DstIsObject {
		ce.RetSym = w.fresh("call" + strconv.Itoa(int(c.Site)) + ".ret")
	}
	w.ic.CallEdges = append(w.ic.CallEdges, ce)
	return ce
}

func (w *walker) refEvalOperand(o ir.Operand, e *refEnv) symbolic.Expr {
	if o.IsConst() {
		return symbolic.Const(o.Const)
	}
	if v, ok := e.ints[o.Var]; ok {
		return v
	}
	v := symbolic.Var(w.fresh("undef_" + o.Var))
	e.ints[o.Var] = v
	return v
}

func (w *walker) refEvalArith(s *ir.IntAssign, e *refEnv) symbolic.Expr {
	switch s.Op {
	case ir.Mov:
		return w.refEvalOperand(s.A, e)
	case ir.Add:
		return w.slabs.terms.Combine(w.refEvalOperand(s.A, e), 1, w.refEvalOperand(s.B, e), 1)
	case ir.Sub:
		return w.slabs.terms.Combine(w.refEvalOperand(s.A, e), 1, w.refEvalOperand(s.B, e), -1)
	case ir.Neg:
		return w.slabs.terms.Combine(w.refEvalOperand(s.A, e), -1, symbolic.Expr{}, 0)
	case ir.Mul:
		a, b := w.refEvalOperand(s.A, e), w.refEvalOperand(s.B, e)
		if a.IsConst() {
			return w.slabs.terms.Combine(b, a.Const, symbolic.Expr{}, 0)
		}
		if b.IsConst() {
			return w.slabs.terms.Combine(a, b.Const, symbolic.Expr{}, 0)
		}
		return symbolic.Var(w.fresh("nonlin"))
	default: // Opaque
		return symbolic.Var(w.fresh("in"))
	}
}

func (w *walker) refEvalCondAtom(c ir.Cond, e *refEnv) constraint.Atom {
	var a constraint.Atom
	switch {
	case c.BoolVar != "":
		bv, ok := e.bools[c.BoolVar]
		if !ok {
			bv = boolVal{opq: w.fresh("undefb_" + c.BoolVar)}
			e.bools[c.BoolVar] = bv
		}
		if bv.known {
			a = bv.atom
		} else {
			a = constraint.Atom{LHS: symbolic.Var(bv.opq), Op: constraint.NE}
		}
	case c.IsOpaque():
		a = constraint.Atom{LHS: symbolic.Var(w.opaqueSym(c.OpaqueID)), Op: constraint.NE}
	default:
		l := w.refEvalOperand(c.A, e)
		r := w.refEvalOperand(c.B, e)
		var op constraint.Op
		switch c.Kind {
		case ir.CmpEq:
			op = constraint.EQ
		case ir.CmpNe:
			op = constraint.NE
		case ir.CmpLt:
			op = constraint.LT
		case ir.CmpLe:
			op = constraint.LE
		case ir.CmpGt:
			op = constraint.GT
		default:
			op = constraint.GE
		}
		a = constraint.Atom{LHS: w.slabs.terms.Combine(l, 1, r, -1), Op: op}
	}
	if c.Negated {
		a = a.Negate()
	}
	return a
}
