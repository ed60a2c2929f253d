package cfet

import (
	"fmt"

	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/symbolic"
)

// The reference walker: Build as it was before the environment got an undo
// trail. Every split hands each arm its own copy of both maps, so no arm can
// see a sibling's writes by construction — which is what makes it the oracle
// for the trail version. It shares the walker's statement evaluation
// (evalArith, evalCondAtom, makeCallEdge, place, seal, …) and differs only
// in how the environment crosses a split.

// clone copies the bindings into a fresh environment with an empty trail.
func (e *env) clone() *env {
	n := &env{
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
		ic.Methods = append(ic.Methods, &CFET{
			Method:   id,
			Name:     fn.Name,
			Fn:       fn,
			Nodes:    map[uint64]*Node{},
			ParamSym: map[string]symbolic.Sym{},
		})
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
			w.sealNodeIDs()
			continue
		}
		e := newEnv()
		for _, p := range fn.Params {
			s := w.intern(p.Name)
			w.m.ParamSym[p.Name] = s
			if p.Type == "int" || p.Type == "bool" {
				e.ints[p.Name] = symbolic.Var(s)
			}
		}
		w.walkCloneReference(fn.Body.Stmts, nil, w.newNode(0), e)
		w.sealNodeIDs()
	}
	for _, m := range ic.Methods {
		m.buildSymSet()
	}
	return ic, nil
}

func (w *walker) walkCloneReference(stmts []ir.Stmt, k *contFrame, n *Node, e *env) {
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
			e.ints[s.Dst] = w.evalArith(s, e)
			w.place(s, -1, symbolic.NoSym)
		case *ir.BoolAssign:
			e.bools[s.Dst] = w.evalCondVal(s.Cond, e)
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
			ce := w.makeCallEdge(s, n, e)
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
				ri.Expr = w.evalOperand(s.Src, e)
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
			atom := w.evalCondAtom(s.Cond, e)
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
			tn := w.newNode(trueID)
			w.walkCloneReference(s.Then.Stmts, nk, tn, e.clone())
			if w.nodes >= w.budget {
				w.m.Truncated++
				return
			}
			fn := w.newNode(falseID)
			w.walkCloneReference(s.Else.Stmts, nk, fn, e.clone())
			return
		default:
			panic(fmt.Sprintf("cfet: unexpected statement %T (exceptions must be expanded)", s))
		}
		stmts = rest
	}
}
