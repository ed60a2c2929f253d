package ir

import "github.com/grapple-system/grapple/internal/lang"

// The pre-slice (docs/slicing.md, "Step 0"): a check that slices for its
// properties lowers only the functions the relevance slice could keep, and
// gives every other one a stub that holds just its calls. PreKeep decides
// from the facts Resolve recorded on each function; LowerKept lowers.

// PreKeep returns, for each function of info.Prog.Funs, whether the
// relevance slice (analysis.ComputeRelevance) could keep it, whatever the
// tracked types. It runs ComputeRelevance's closures over the call graph
// Resolve recorded (FunDecl.Calls: every edge of the lowered program's
// call graph, and some that exception expansion drops as unreachable),
// seeded with every function that handles an object or throws, main, and
// every function no live call reaches (a superset of the roots):
//   - the callers of a function it keeps, transitively;
//   - then, to a fixpoint, every callee whose result a function it keeps
//     uses.
//
// A function it does not keep handles no object, so points-to gives it no
// site and the slice has no statement of it to start from; calls no
// function that may throw, so it cannot throw itself; and reaches no kept
// function, so the slice keeps it only if a kept caller uses its result,
// which PreKeep then keeps too.
func PreKeep(info *lang.Info) []bool {
	funs := info.Prog.Funs
	n := len(funs)
	index := make(map[*lang.FunDecl]int32, n)
	for i, f := range funs {
		index[f] = int32(i)
	}
	// callers[start[i]:start[i+1]] are the callers of funs[i], one per call.
	start := make([]int32, n+1)
	called := make([]bool, n) // by a live call
	for _, f := range funs {
		for _, c := range f.Calls {
			j := index[c.Fun]
			start[j+1]++
			called[j] = called[j] || c.Live
		}
	}
	for i := range n {
		start[i+1] += start[i]
	}
	callers := make([]int32, start[n])
	next := append([]int32(nil), start[:n]...)
	for i, f := range funs {
		for _, c := range f.Calls {
			j := index[c.Fun]
			callers[next[j]] = int32(i)
			next[j]++
		}
	}

	keep := make([]bool, n)
	var work []int32
	mark := func(i int32) {
		if !keep[i] {
			keep[i] = true
			work = append(work, i)
		}
	}
	for i, f := range funs {
		if f.Objects || f.Throws || !called[i] {
			mark(int32(i))
		}
	}
	if main := info.Funs["main"]; main != nil {
		mark(index[main]) // callgraph.Roots' root when every function is called
	}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		for _, c := range callers[start[i]:start[i+1]] {
			mark(c)
		}
	}
	for i := range n {
		if keep[i] {
			work = append(work, int32(i))
		}
	}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		for _, c := range funs[i].Calls {
			if c.Used {
				mark(index[c.Fun])
			}
		}
	}
	return keep
}

// stubFun returns f as a stub (Func.Stub): its parameters and return type,
// and a body of its calls, numbered from lo's site table as lowering would
// number them, with lowering's count of opaque conditions added to the
// table. It returns nil, the table as it found it, for a function that
// handles an object or throws, and for one whose body has a form the stub
// walk below does not follow (lowering may reject it, or number its sites
// otherwise): such a function is lowered instead.
func (lo *lowerer) stubFun(f *lang.FunDecl) *Func {
	if f.Objects || f.Throws {
		return nil
	}
	t := lo.sites
	calls, opaque := len(t.callPos), t.opaqueN
	lo.fun = f
	lo.stub = lo.stub[:0]
	if !lo.stubStmts(f.Body) {
		t.callPos, t.opaqueN = t.callPos[:calls], opaque
		return nil
	}
	body := lo.blocks.New(Block{Stmts: lo.lists.Alloc(len(lo.stub))})
	copy(body.Stmts, lo.stub)
	return lo.stubs.New(Func{Name: f.Name, Params: f.Params, RetType: f.RetType, Body: body, Pos: f.Pos,
		NumVars: len(f.VarTypes) + 1, Stub: true})
}

// stubStmts, stubInt and stubCond follow lowerStmt, lowerIntExprInto and
// lowerCondBranch over the forms an object-free function may take, in the
// order they number sites and opaque conditions, and append each call to
// lo.stub as it is numbered. They report false on any other form.
// A return must end its list: expansion drops what follows it, so a stub
// would keep calls the expanded IR does not have.
func (lo *lowerer) stubStmts(stmts []lang.Stmt) bool {
	for i, s := range stmts {
		if _, ret := s.(*lang.ReturnStmt); ret && i < len(stmts)-1 || !lo.stubStmt(s) {
			return false
		}
	}
	return true
}

func (lo *lowerer) stubStmt(s lang.Stmt) bool {
	switch s := s.(type) {
	case *lang.VarDecl:
		return s.Init == nil || lo.stubAssign(s.Type, s.Init)
	case *lang.AssignStmt:
		lhs, ok := s.LHS.(*lang.Ident)
		return ok && lo.stubAssign(lo.typeOf(lhs.Slot), s.RHS)
	case *lang.ExprStmt:
		call, ok := s.X.(*lang.CallExpr)
		return ok && lo.stubInt(call)
	case *lang.IfStmt:
		// Lowering lowers both arms before the condition.
		return lo.stubStmts(s.Then) && lo.stubStmts(s.Else) && lo.stubCond(s.Cond)
	case *lang.WhileStmt:
		// lowerWhile lowers the body once per unrolled level, then the
		// condition once per level from the innermost out. Each level
		// follows the body of the one above it.
		if n := len(s.Body); n > 0 {
			if _, ret := s.Body[n-1].(*lang.ReturnStmt); ret {
				return false
			}
		}
		for range lo.opts.UnrollDepth {
			if !lo.stubStmts(s.Body) {
				return false
			}
		}
		for range lo.opts.UnrollDepth {
			if !lo.stubCond(s.Cond) {
				return false
			}
		}
		return true
	case *lang.ReturnStmt:
		return s.X == nil || !lang.IsObjectType(lo.fun.RetType) && lo.stubInt(s.X)
	}
	return false
}

// stubAssign follows lowerAssignTo into a variable of type typ.
func (lo *lowerer) stubAssign(typ string, rhs lang.Expr) bool {
	switch {
	case lang.IsObjectType(typ):
		return false
	case typ == "bool":
		return lo.stubCond(rhs)
	}
	return lo.stubInt(rhs)
}

func (lo *lowerer) stubInt(e lang.Expr) bool {
	switch e := e.(type) {
	case *lang.IntLit, *lang.Ident, *lang.InputExpr:
		return true
	case *lang.CallExpr:
		// lowerCall numbers the call before its arguments, and passes a
		// bool argument opaquely, unlowered.
		lo.stub = append(lo.stub, lo.calls.New(Call{Callee: e.Name, Site: lo.callSite(e.Pos), Pos: e.Pos}))
		callee := lo.info.Funs[e.Name]
		for i, a := range e.Args {
			switch typ := callee.Params[i].Type; {
			case lang.IsObjectType(typ):
				return false
			case typ != "bool" && !lo.stubInt(a):
				return false
			}
		}
		return true
	case *lang.Binary:
		switch e.Op {
		case lang.OpAdd, lang.OpSub, lang.OpMul:
			return lo.stubInt(e.L) && lo.stubInt(e.R)
		}
	case *lang.Unary:
		return lo.stubInt(e.X)
	}
	return false
}

func (lo *lowerer) stubCond(e lang.Expr) bool {
	switch e := e.(type) {
	case *lang.BoolLit, *lang.Ident:
		return true
	case *lang.Unary:
		return e.Op == '!' && lo.stubCond(e.X)
	case *lang.Binary:
		switch {
		case e.Op == lang.OpAnd || e.Op == lang.OpOr:
			// The right operand is lowered first, into the left's arm.
			return lo.stubCond(e.R) && lo.stubCond(e.L)
		case e.Opaque:
			lo.freshOpaque()
			return true
		}
		return lo.stubInt(e.L) && lo.stubInt(e.R)
	}
	return false
}
