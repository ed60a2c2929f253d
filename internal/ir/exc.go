package ir

import "github.com/grapple-system/grapple/internal/lang"

// Exception expansion: Grapple models exceptional control flow as ordinary
// branching on opaque "did it throw" conditions so that the CFET (paper §3)
// needs only one structured construct. This mirrors the paper's treatment of
// Fig. 8a: "sockConnect ... may or may not throw an IOException".
//
// The pass removes TryRegion/Raise and produces a pure If-structured body:
//   - "raise v" with a matching enclosing handler inlines the handler at the
//     raise point (with the handler's continuation — the code following the
//     try region);
//   - "raise v" with no matching handler becomes $exc = v; ThrowExit and the
//     enclosing function is marked MayThrow;
//   - a call to a MayThrow callee splits into If(opaque-throw-cond): the
//     exceptional branch either enters the innermost handler (binding the
//     callee's $exc to the catch variable via CatchBind{FromCall}) or
//     propagates ($exc-to-$exc CatchBind + ThrowExit).
//
// Because the expansion inlines remainders into branches (tail duplication),
// exceptional paths are explicit in the CFET exactly like ordinary paths.

// handlerChain is the stack of lexically enclosing catch handlers; each
// handler records its continuation — what executes after its try region.
type handlerChain struct {
	catchVar  string
	catchType string // "" catches every type
	catch     []Stmt
	cont      *cont
	outer     *handlerChain
}

// cont is a continuation: the statements (and handler scope) that run after
// the current list is exhausted.
type cont struct {
	stmts    []Stmt
	handlers *handlerChain
	next     *cont
}

// expandExceptions rewrites every function. It first computes the MayThrow
// fixpoint over the raw bodies, then expands each body; the expansions run
// on up to workers goroutines, one part of parts (whose Funs p.Funs
// mirrors) at a time, as lowering did. Each part numbers the opaque
// conditions it adds from 1, and a serial link shifts a part's by those of
// the parts before it, so the numbers are those of one expansion in
// declaration order.
func expandExceptions(p *Program, parts *lang.Program, workers int) {
	// Local throws.
	for _, fn := range p.Funs {
		fn.ThrowsLocally = blockRaisesLocally(fn.Body, nil)
		fn.MayThrow = fn.ThrowsLocally
	}
	// Transitive closure: calling a MayThrow callee outside any try
	// propagates (handlers in MiniLang catch the statically-unknown callee
	// exception conservatively, so a call inside any try is contained).
	for changed := true; changed; {
		changed = false
		for _, fn := range p.Funs {
			if fn.MayThrow {
				continue
			}
			if blockCallsThrowerOutsideTry(fn.Body, p, false) {
				fn.MayThrow = true
				changed = true
			}
		}
	}
	exs := make([]*expander, max(workers, 1))
	added := make([][]*If, parts.NumParts())
	parts.ForEachPart(workers, func(w, part, lo, hi int) {
		if exs[w] == nil {
			exs[w] = &expander{prog: p}
		}
		ex := exs[w]
		ex.opaque = nil
		for _, fn := range p.Funs[lo:hi] {
			mark := ex.stmts.Mark()
			ex.expand(fn.Body.Stmts, nil, nil)
			fn.Body = &Block{Stmts: ex.stmts.Cut(mark)}
		}
		added[part] = ex.opaque
	})
	var base int32
	for _, ifs := range added {
		for _, s := range ifs {
			s.Cond.OpaqueID += base
		}
		base += int32(len(ifs))
	}
}

// blockRaisesLocally reports whether b contains a raise not caught by a
// matching enclosing handler within this function.
func blockRaisesLocally(b *Block, types []string) bool {
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *Raise:
			if !anyHandlerMatches(types, s.Type) {
				return true
			}
		case *If:
			if blockRaisesLocally(s.Then, types) || blockRaisesLocally(s.Else, types) {
				return true
			}
		case *TryRegion:
			if blockRaisesLocally(s.Body, append(types, s.CatchType)) {
				return true
			}
			if blockRaisesLocally(s.Catch, types) {
				return true
			}
		}
	}
	return false
}

func anyHandlerMatches(types []string, thrown string) bool {
	for _, t := range types {
		if t == "" || t == thrown {
			return true
		}
	}
	return false
}

func blockCallsThrowerOutsideTry(b *Block, p *Program, inTry bool) bool {
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *Call:
			if !inTry {
				if callee := p.FunByName[s.Callee]; callee != nil && callee.MayThrow {
					return true
				}
			}
		case *If:
			if blockCallsThrowerOutsideTry(s.Then, p, inTry) ||
				blockCallsThrowerOutsideTry(s.Else, p, inTry) {
				return true
			}
		case *TryRegion:
			if blockCallsThrowerOutsideTry(s.Body, p, true) {
				return true
			}
			if blockCallsThrowerOutsideTry(s.Catch, p, inTry) {
				return true
			}
		}
	}
	return false
}

type expander struct {
	prog *Program
	// opaque lists the Ifs on the opaque conditions the part being
	// expanded added, in the order they were numbered.
	opaque []*If

	// The expanded bodies are what the rest of the pipeline reads, so their
	// Ifs (each with its two arms in one allocation) and statement lists come
	// from slabs owned by this expansion.
	branches lang.Slab[branch]
	stmts    lang.ListSlab[Stmt]
}

// branch is an If allocated together with its two arms.
type branch struct {
	If
	then, els Block
}

// newIf returns an If on cond whose arms are empty blocks.
func (ex *expander) newIf(cond Cond, pos lang.Pos) *If {
	b := ex.branches.New(branch{})
	b.If = If{Cond: cond, Then: &b.then, Else: &b.els, Pos: pos}
	return &b.If
}

// expandArm expands stmts into arm.
func (ex *expander) expandArm(arm *Block, stmts []Stmt, h *handlerChain, k *cont) {
	mark := ex.stmts.Mark()
	ex.expand(stmts, h, k)
	arm.Stmts = ex.stmts.Cut(mark)
}

// throwBranch returns an If on a fresh opaque condition, "the call threw".
func (ex *expander) throwBranch(pos lang.Pos) *If {
	// Opaque IDs from lowering and expansion share a space; expansion's
	// are offset far above lowering's.
	b := ex.newIf(OpaqueCond(1<<24+int32(len(ex.opaque))+1), pos)
	ex.opaque = append(ex.opaque, b)
	return b
}

// expand processes stmts under handler scope h with continuation k,
// pushing pure IR onto ex.stmts; the caller cuts the list.
func (ex *expander) expand(stmts []Stmt, h *handlerChain, k *cont) {
	for {
		if len(stmts) == 0 {
			if k == nil {
				return
			}
			stmts, h, k = k.stmts, k.handlers, k.next
			continue
		}
		s := stmts[0]
		rest := stmts[1:]
		switch s := s.(type) {
		case *Raise:
			// The raise is a "throw" FSM event on the exception object.
			ex.stmts.Push(&Event{Recv: s.Src, Method: "throw", Pos: s.Pos})
			hc := matchHandler(h, s.Type)
			if hc == nil {
				ex.stmts.Push(&ObjAssign{Dst: ExcVar, Src: s.Src, Pos: s.Pos})
				ex.stmts.Push(&ThrowExit{Pos: s.Pos})
				return
			}
			ex.stmts.Push(&ObjAssign{Dst: hc.catchVar, Src: s.Src, Pos: s.Pos})
			ex.stmts.Push(&CatchBind{Var: hc.catchVar, Type: s.Type, FromCall: -1, Pos: s.Pos})
			ex.expand(hc.catch, hc.outer, hc.cont)
			return

		case *TryRegion:
			after := &cont{stmts: rest, handlers: h, next: k}
			hc := &handlerChain{
				catchVar:  s.CatchVar,
				catchType: s.CatchType,
				catch:     s.Catch.Stmts,
				cont:      after,
				outer:     h,
			}
			stmts, h, k = s.Body.Stmts, hc, after
			continue

		case *Call:
			ex.stmts.Push(s)
			callee := ex.prog.FunByName[s.Callee]
			if callee == nil || !callee.MayThrow {
				stmts = rest
				continue
			}
			branch := ex.throwBranch(s.Pos)
			// Exceptional branch: callee's $exc arrives here.
			mark := ex.stmts.Mark()
			if hc := matchHandler(h, ""); hc != nil {
				ex.stmts.Push(&CatchBind{Var: hc.catchVar, Type: hc.catchType, FromCall: s.Site, Pos: s.Pos})
				ex.expand(hc.catch, hc.outer, hc.cont)
			} else {
				ex.stmts.Push(&CatchBind{Var: ExcVar, Type: "", FromCall: s.Site, Pos: s.Pos})
				ex.stmts.Push(&ThrowExit{Pos: s.Pos})
			}
			branch.Then.Stmts = ex.stmts.Cut(mark)
			ex.expandArm(branch.Else, rest, h, k)
			ex.stmts.Push(branch)
			return

		case *If:
			if blockCanRaise(s.Then, ex.prog) || blockCanRaise(s.Else, ex.prog) {
				// Tail-duplicate the remainder into both branches so a raise
				// in one branch cannot fall through into post-if code.
				branch := ex.newIf(s.Cond, s.Pos)
				ex.expandArm(branch.Then, s.Then.Stmts, h, &cont{stmts: rest, handlers: h, next: k})
				ex.expandArm(branch.Else, s.Else.Stmts, h, &cont{stmts: rest, handlers: h, next: k})
				ex.stmts.Push(branch)
				return
			}
			branch := ex.newIf(s.Cond, s.Pos)
			ex.expandArm(branch.Then, s.Then.Stmts, h, nil)
			ex.expandArm(branch.Else, s.Else.Stmts, h, nil)
			ex.stmts.Push(branch)
			stmts = rest
			continue

		case *Return:
			ex.stmts.Push(s)
			return
		case *ThrowExit:
			ex.stmts.Push(s)
			return

		default:
			ex.stmts.Push(s)
			stmts = rest
			continue
		}
	}
}

// matchHandler finds the innermost handler accepting thrownType ("" thrown
// type means statically unknown, which any handler accepts conservatively).
func matchHandler(h *handlerChain, thrownType string) *handlerChain {
	for ; h != nil; h = h.outer {
		if h.catchType == "" || thrownType == "" || h.catchType == thrownType {
			return h
		}
	}
	return nil
}

// blockCanRaise reports whether expanding b could divert control flow out of
// the ordinary fall-through (raise, throwing call, or a try region around
// either).
func blockCanRaise(b *Block, p *Program) bool {
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *Raise, *TryRegion:
			return true
		case *Call:
			if callee := p.FunByName[s.Callee]; callee != nil && callee.MayThrow {
				return true
			}
		case *If:
			if blockCanRaise(s.Then, p) || blockCanRaise(s.Else, p) {
				return true
			}
		}
	}
	return false
}
