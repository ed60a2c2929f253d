package gofront

import (
	"go/ast"
	"go/token"

	"github.com/grapple-system/grapple/internal/lang"
)

// stmt lowers one Go statement, appending MiniLang statements to out.
func (f *fnLowerer) stmt(s ast.Stmt, out *[]lang.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		f.push()
		for _, st := range s.List {
			f.stmt(st, out)
		}
		f.pop()
	case *ast.ExprStmt:
		f.lowerDiscard(s.X, out)
	case *ast.AssignStmt:
		f.assign(s, out)
	case *ast.DeclStmt:
		f.declStmt(s, out)
	case *ast.IfStmt:
		f.ifStmt(s, out)
	case *ast.ForStmt:
		f.forStmt(s, out)
	case *ast.RangeStmt:
		f.rangeStmt(s, out)
	case *ast.SwitchStmt:
		f.switchStmt(s, out)
	case *ast.TypeSwitchStmt:
		f.typeSwitchStmt(s, out)
	case *ast.SelectStmt:
		f.selectStmt(s, out)
	case *ast.ReturnStmt:
		f.returnStmt(s, out)
	case *ast.DeferStmt:
		f.deferStmt(s, out)
	case *ast.GoStmt:
		f.goStmt(s, out)
	case *ast.IncDecStmt:
		f.incDec(s, out)
	case *ast.BranchStmt:
		f.havoc(branchKind(s.Tok))
	case *ast.LabeledStmt:
		f.stmt(s.Stmt, out)
	case *ast.SendStmt:
		f.evalEffects(s.Chan, out)
		f.evalEffects(s.Value, out)
		f.havoc("chan")
	case *ast.EmptyStmt:
	default:
		f.havoc("stmt")
	}
}

// goStmt lowers a `go` statement. When the spawned call resolves to a
// lowered function, method, or function literal, it becomes a MiniLang spawn
// statement — arguments are evaluated at the spawn site (Go's semantics) and
// the callee body is marked as running on a concurrent task, which feeds the
// MHP pass. Unresolvable targets (external functions, func values) keep the
// old behavior: havoc plus an immediate call, so the body's effects stay
// visible to the checker. Options.NoMHP (test reference) does so everywhere.
func (f *fnLowerer) goStmt(s *ast.GoStmt, out *[]lang.Stmt) {
	pos := f.pos(s)
	if !f.p.opts.NoMHP {
		if lit, ok := unparen(s.Call.Fun).(*ast.FuncLit); ok {
			clo := f.liftClosure(lit, "go")
			ce, _ := f.buildLocalCall(clo.meta, nil, s.Call.Args, clo, pos, out)
			*out = append(*out, &lang.SpawnStmt{Call: ce, Pos: pos})
			return
		}
		if meta, clo, recvExpr, ok := f.matchLocalCall(s.Call, out); ok {
			ce, _ := f.buildLocalCall(meta, recvExpr, s.Call.Args, clo, pos, out)
			*out = append(*out, &lang.SpawnStmt{Call: ce, Pos: pos})
			return
		}
	}
	// The goroutine body's effects happen "sometime"; modeling it as an
	// immediate call keeps its events visible to the checker.
	f.havoc("go-stmt")
	f.lowerCall(s.Call, "void", out)
}

func branchKind(t token.Token) string {
	switch t {
	case token.BREAK:
		return "break"
	case token.CONTINUE:
		return "continue"
	case token.GOTO:
		return "goto"
	}
	return "fallthrough"
}

// declStmt lowers `var x T = e` / `const` declaration statements.
func (f *fnLowerer) declStmt(s *ast.DeclStmt, out *[]lang.Stmt) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			var init ast.Expr
			if i < len(vs.Values) {
				init = vs.Values[i]
			}
			cat := ""
			if vs.Type != nil {
				cat = f.typeNameOf(vs.Type)
			} else if init != nil {
				cat = f.catOf(init)
			}
			if cat == "" || cat == "nil" {
				cat = "int"
			}
			pos := f.p.mapPos(name.Pos())
			if name.Name == "_" {
				if init != nil {
					f.evalEffects(init, out)
				}
				continue
			}
			// Zero-value declaration of a tracked composite type
			// (var mu sync.Mutex) is an allocation.
			var initExpr lang.Expr
			if init != nil {
				initExpr = f.lowerByCat(init, cat, out)
			} else if lang.IsObjectType(cat) {
				initExpr = f.zeroValueAlloc(vs.Type, cat, pos)
			} else {
				initExpr = zeroLit(cat, pos)
			}
			ml := f.fresh(name.Name)
			f.bind(name.Name, &varInfo{ml: ml, cat: cat})
			f.p.regObjType(cat)
			*out = append(*out, &lang.VarDecl{Name: ml, Type: cat, Init: initExpr, Pos: pos})
		}
	}
}

// zeroValueAlloc decides whether a zero-value object declaration allocates.
// Tracked composite types (sync.Mutex) allocate; everything else starts null.
func (f *fnLowerer) zeroValueAlloc(typeExpr ast.Expr, cat string, pos lang.Pos) lang.Expr {
	if typeExpr != nil {
		if sel, ok := unparen(typeExpr).(*ast.SelectorExpr); ok {
			if x, ok := unparen(sel.X).(*ast.Ident); ok {
				if base, isPkg := f.imp[x.Name]; isPkg {
					if t, ok := f.p.rules.CompositeAllocs[base+"."+sel.Sel.Name]; ok {
						f.p.regObjType(t)
						return &lang.NewExpr{Type: t, Pos: pos}
					}
				}
			}
		}
		// Local struct value types are objects from declaration on.
		if id, ok := unparen(typeExpr).(*ast.Ident); ok {
			if def, ok := f.p.localType[id.Name]; ok {
				if _, isStruct := def.(*ast.StructType); isStruct {
					return &lang.NewExpr{Type: cat, Pos: pos}
				}
			}
		}
	}
	return &lang.NullLit{Pos: pos}
}

func zeroLit(cat string, pos lang.Pos) lang.Expr {
	switch cat {
	case "bool":
		return &lang.BoolLit{Value: false, Pos: pos}
	case "int":
		return &lang.IntLit{Value: 0, Pos: pos}
	}
	return &lang.NullLit{Pos: pos}
}

// ---------------------------------------------------------------------------
// Assignment

func (f *fnLowerer) assign(s *ast.AssignStmt, out *[]lang.Stmt) {
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		f.opAssign(s, out)
		return
	}
	define := s.Tok == token.DEFINE
	if len(s.Lhs) > 1 && len(s.Rhs) == 1 {
		f.tupleAssign(s.Lhs, s.Rhs[0], define, out)
		return
	}
	if len(s.Lhs) == len(s.Rhs) {
		// Pairwise. For multi-assign, stage RHS values in temps first so
		// `a, b = b, a` keeps Go's simultaneous semantics.
		if len(s.Lhs) == 1 {
			f.singleAssign(s.Lhs[0], s.Rhs[0], define, out)
			return
		}
		type staged struct {
			expr lang.Expr
			cat  string
		}
		vals := make([]staged, len(s.Rhs))
		for i, r := range s.Rhs {
			cat := f.lhsCat(s.Lhs[i], r, define)
			e := f.lowerByCat(r, cat, out)
			id := f.materialize(e, cat, f.pos(r), out)
			vals[i] = staged{expr: id, cat: cat}
		}
		for i, l := range s.Lhs {
			f.assignLowered(l, vals[i].expr, vals[i].cat, define, out)
		}
		return
	}
	// Mismatched arity (invalid Go); evaluate everything.
	for _, r := range s.Rhs {
		f.evalEffects(r, out)
	}
	f.havoc("assign")
}

// lhsCat decides the category an assignment's RHS should be lowered into:
// the existing variable's category when assigning, the RHS's natural
// category when defining.
func (f *fnLowerer) lhsCat(lhs, rhs ast.Expr, define bool) string {
	if id, ok := unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
		if vi := f.lookup(id.Name); vi != nil && (!define || f.inCurrentScope(id.Name) != nil) {
			return vi.cat
		}
	}
	cat := f.catOf(rhs)
	if cat == "nil" || cat == "" {
		cat = "int"
	}
	return cat
}

func (f *fnLowerer) singleAssign(lhs, rhs ast.Expr, define bool, out *[]lang.Stmt) {
	pos := f.pos(lhs)
	// Blank target still evaluates (events!) then drops.
	if isBlank(lhs) {
		f.evalEffects(rhs, out)
		return
	}
	// Closure literal bound to a variable: lift, bind, no runtime statement.
	if lit, ok := unparen(rhs).(*ast.FuncLit); ok {
		if id, ok := unparen(lhs).(*ast.Ident); ok {
			clo := f.liftClosure(lit, id.Name)
			f.bind(id.Name, &varInfo{ml: f.fresh(id.Name), cat: "Func", clo: clo})
			return
		}
	}
	if id, ok := unparen(lhs).(*ast.Ident); ok {
		vi := f.lookup(id.Name)
		reuse := vi != nil && (!define || f.inCurrentScope(id.Name) != nil)
		if reuse {
			e := f.lowerByCat(rhs, vi.cat, out)
			*out = append(*out, &lang.AssignStmt{LHS: f.ident(vi, pos), RHS: e, Pos: pos})
			return
		}
		// New variable (define, or first sight of an if-init shadow).
		cat := f.catOf(rhs)
		if cat == "nil" || cat == "" {
			cat = "int"
		}
		var e lang.Expr
		if lang.IsObjectType(cat) {
			var typ string
			e, typ = f.lowerObj(rhs, out)
			if typ != "" {
				cat = typ
			}
		} else {
			e = f.lowerByCat(rhs, cat, out)
		}
		ml := f.fresh(id.Name)
		f.bind(id.Name, &varInfo{ml: ml, cat: cat})
		f.p.regObjType(cat)
		*out = append(*out, &lang.VarDecl{Name: ml, Type: cat, Init: e, Pos: pos})
		return
	}
	// Field store: object-typed stores are modeled; scalar stores drop.
	if sel, ok := unparen(lhs).(*ast.SelectorExpr); ok {
		if iv := f.identVar(sel.X); iv != nil && lang.IsObjectType(iv.cat) {
			rcat := f.catOf(rhs)
			if lang.IsObjectType(rcat) || rcat == "nil" {
				e, _ := f.lowerObj(rhs, out)
				*out = append(*out, &lang.AssignStmt{
					LHS: &lang.FieldAccess{Recv: f.ident(iv, pos), Field: sel.Sel.Name, Pos: pos},
					RHS: e, Pos: pos})
				return
			}
			f.evalEffects(rhs, out)
			return
		}
		f.evalEffects(sel.X, out)
		f.evalEffects(rhs, out)
		f.havoc("store")
		return
	}
	// *p = e, m[k] = e, a[i] = e.
	f.lowerDiscard(lhs, out)
	f.evalEffects(rhs, out)
	f.havoc("store")
}

// assignLowered stores an already-lowered value into a target.
func (f *fnLowerer) assignLowered(lhs ast.Expr, val lang.Expr, cat string, define bool, out *[]lang.Stmt) {
	pos := f.pos(lhs)
	if isBlank(lhs) {
		return
	}
	if id, ok := unparen(lhs).(*ast.Ident); ok {
		vi := f.lookup(id.Name)
		if vi != nil && (!define || f.inCurrentScope(id.Name) != nil) {
			*out = append(*out, &lang.AssignStmt{LHS: f.ident(vi, pos), RHS: val, Pos: pos})
			return
		}
		ml := f.fresh(id.Name)
		f.bind(id.Name, &varInfo{ml: ml, cat: cat})
		f.p.regObjType(cat)
		*out = append(*out, &lang.VarDecl{Name: ml, Type: cat, Init: val, Pos: pos})
		return
	}
	if sel, ok := unparen(lhs).(*ast.SelectorExpr); ok {
		if iv := f.identVar(sel.X); iv != nil && lang.IsObjectType(iv.cat) && lang.IsObjectType(cat) {
			*out = append(*out, &lang.AssignStmt{
				LHS: &lang.FieldAccess{Recv: f.ident(iv, pos), Field: sel.Sel.Name, Pos: pos},
				RHS: val, Pos: pos})
			return
		}
	}
	f.havoc("store")
}

// tupleAssign lowers `a, b, ... = rhs` for a multi-result RHS: allocator
// calls become guarded allocations binding both the object and the error
// symbol; local calls bind the chosen result; everything else is opaque.
func (f *fnLowerer) tupleAssign(lhs []ast.Expr, rhs ast.Expr, define bool, out *[]lang.Stmt) {
	pos := f.pos(rhs)
	switch rhs := unparen(rhs).(type) {
	case *ast.CallExpr:
		if al, ok := f.matchAlloc(rhs, out); ok {
			f.lowerAllocTuple(lhs, al, define, pos, out)
			return
		}
		if meta, clo, recvExpr, ok := f.matchLocalCall(rhs, out); ok {
			f.lowerLocalTuple(lhs, meta, clo, recvExpr, rhs, define, pos, out)
			return
		}
		// Mapped event in tuple position: n, err := fh.ReadAt(...).
		if mc, ok := f.matchEvent(rhs, out); ok {
			*out = append(*out, &lang.ExprStmt{X: mc, Pos: pos})
			f.opaqueTargets(lhs, define, pos, out)
			return
		}
		// External multi-result call.
		f.lowerCall(rhs, "void", out)
		f.opaqueTargets(lhs, define, pos, out)
		return
	case *ast.TypeAssertExpr:
		// v, ok := x.(T): identity-preserving narrow + opaque ok.
		if len(lhs) == 2 {
			cat := "Ext"
			if rhs.Type != nil {
				cat = f.typeNameOf(rhs.Type)
			}
			if lang.IsObjectType(cat) {
				e, _ := f.lowerObj(rhs.X, out)
				id := f.materialize(e, cat, pos, out)
				f.assignLowered(lhs[0], &lang.Ident{Name: id.Name, Pos: pos}, cat, define, out)
			} else {
				f.evalEffects(rhs.X, out)
				f.assignLowered(lhs[0], opaqueInt(pos), "int", define, out)
			}
			f.assignLowered(lhs[1], opaqueBool(pos), "bool", define, out)
			return
		}
	case *ast.IndexExpr:
		// v, ok := m[k].
		f.evalEffects(rhs.X, out)
		f.evalEffects(rhs.Index, out)
		f.opaqueTargets(lhs, define, pos, out)
		return
	case *ast.UnaryExpr:
		if rhs.Op == token.ARROW {
			f.evalEffects(rhs.X, out)
			f.havoc("chan")
			f.opaqueTargets(lhs, define, pos, out)
			return
		}
	}
	f.evalEffects(rhs, out)
	f.opaqueTargets(lhs, define, pos, out)
}

// opaqueTargets binds each target to a fresh opaque value of its category.
func (f *fnLowerer) opaqueTargets(lhs []ast.Expr, define bool, pos lang.Pos, out *[]lang.Stmt) {
	for _, l := range lhs {
		if isBlank(l) {
			continue
		}
		cat := "int"
		if id, ok := unparen(l).(*ast.Ident); ok {
			if vi := f.lookup(id.Name); vi != nil && (!define || f.inCurrentScope(id.Name) != nil) {
				cat = vi.cat
			} else if c, ok := f.p.typesDefCat(id); ok {
				cat = c
			}
		}
		f.assignLowered(l, zeroFor(cat, pos), cat, define, out)
	}
}

// matchAlloc recognizes allocator calls (pack FuncAllocs/MethodAllocs),
// evaluating the receiver and arguments for effect.
func (f *fnLowerer) matchAlloc(call *ast.CallExpr, out *[]lang.Stmt) (Alloc, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return Alloc{}, false
	}
	if x, ok := unparen(sel.X).(*ast.Ident); ok && f.lookup(x.Name) == nil {
		if base, isPkg := f.imp[x.Name]; isPkg {
			if al, ok := f.p.rules.FuncAllocs[base+"."+sel.Sel.Name]; ok {
				f.evalArgs(call.Args, out)
				return al, true
			}
		}
		return Alloc{}, false
	}
	recvCat := f.catOf(sel.X)
	if lang.IsObjectType(recvCat) && recvCat != "nil" {
		if al, ok := f.p.rules.MethodAllocs[TypeMethod{Type: recvCat, Method: sel.Sel.Name}]; ok {
			f.evalEffects(sel.X, out)
			f.evalArgs(call.Args, out)
			return al, true
		}
	}
	return Alloc{}, false
}

// matchLocalCall recognizes calls to lowered functions/methods/closures.
func (f *fnLowerer) matchLocalCall(call *ast.CallExpr, out *[]lang.Stmt) (*funcMeta, *closureBinding, lang.Expr, bool) {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if vi := f.lookup(fun.Name); vi != nil {
			if vi.clo != nil {
				return vi.clo.meta, vi.clo, nil, true
			}
			return nil, nil, nil, false
		}
		if meta := f.p.funcs[fun.Name]; meta != nil {
			return meta, nil, nil, true
		}
	case *ast.SelectorExpr:
		if x, ok := unparen(fun.X).(*ast.Ident); ok && f.lookup(x.Name) == nil {
			return nil, nil, nil, false
		}
		recvCat := f.catOf(fun.X)
		if lang.IsObjectType(recvCat) && recvCat != "nil" {
			if mm := f.p.methods[typeMethodKey{recvCat, fun.Sel.Name}]; mm != nil {
				recvExpr, _ := f.lowerObj(fun.X, out)
				return mm, nil, recvExpr, true
			}
		}
	}
	return nil, nil, nil, false
}

// matchEvent recognizes mapped event calls used in tuple position.
func (f *fnLowerer) matchEvent(call *ast.CallExpr, out *[]lang.Stmt) (*lang.MethodCall, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	pos := f.pos(call)
	if inner, ok := unparen(sel.X).(*ast.SelectorExpr); ok {
		if iv := f.identVar(inner.X); iv != nil && lang.IsObjectType(iv.cat) {
			key := TypeFieldMethod{Type: iv.cat, Field: inner.Sel.Name, Method: sel.Sel.Name}
			if ev, ok := f.p.rules.FieldEvents[key]; ok {
				f.evalArgs(call.Args, out)
				return &lang.MethodCall{Recv: f.ident(iv, pos), Method: ev, Pos: pos}, true
			}
		}
	}
	recvCat := f.catOf(sel.X)
	if !lang.IsObjectType(recvCat) || recvCat == "nil" {
		return nil, false
	}
	ev, ok := f.p.rules.Events[TypeMethod{Type: recvCat, Method: sel.Sel.Name}]
	if !ok {
		return nil, false
	}
	recvExpr, typ := f.lowerObj(sel.X, out)
	if typ == "" {
		typ = recvCat
	}
	recv := f.materialize(recvExpr, typ, pos, out)
	f.evalArgs(call.Args, out)
	return &lang.MethodCall{Recv: recv, Method: ev, Pos: pos}, true
}

// lowerAllocTuple binds `obj, err := allocator(...)` as a guarded
// allocation: err gets a fresh symbol and the object is non-null exactly on
// the err == 0 arm, so later `if err != nil` branches correlate.
func (f *fnLowerer) lowerAllocTuple(lhs []ast.Expr, al Alloc, define bool, pos lang.Pos, out *[]lang.Stmt) {
	f.p.regObjType(al.Type)
	var errTarget, objTarget ast.Expr
	if al.Err >= 0 && al.Err < len(lhs) {
		errTarget = lhs[al.Err]
	}
	if al.Obj >= 0 && al.Obj < len(lhs) {
		objTarget = lhs[al.Obj]
	}
	// Remaining results are opaque.
	for i, l := range lhs {
		if i == al.Err || i == al.Obj || isBlank(l) {
			continue
		}
		f.assignLowered(l, zeroFor("int", pos), "int", define, out)
	}
	if errTarget == nil || isBlank(errTarget) {
		// No observable error: unconditional allocation.
		objExpr := lang.Expr(&lang.NewExpr{Type: al.Type, Pos: pos})
		if objTarget == nil || isBlank(objTarget) {
			// Object also dropped: still allocate into a temp so the leak
			// checker sees the acquisition.
			name := f.temp("drop")
			*out = append(*out, &lang.VarDecl{Name: name, Type: al.Type, Init: objExpr, Pos: pos})
			return
		}
		f.assignLowered(objTarget, objExpr, al.Type, define, out)
		return
	}
	errVar := f.bindScalarTarget(errTarget, "int", define, opaqueInt(pos), pos, out)
	objVar := f.bindObjTarget(objTarget, al.Type, define, pos, out)
	*out = append(*out, &lang.IfStmt{
		Cond: &lang.Binary{Op: lang.OpEq, L: &lang.Ident{Name: errVar, Pos: pos},
			R: &lang.IntLit{Value: 0, Pos: pos}, Pos: pos},
		Then: []lang.Stmt{&lang.AssignStmt{
			LHS: &lang.Ident{Name: objVar, Pos: pos},
			RHS: &lang.NewExpr{Type: al.Type, Pos: pos}, Pos: pos}},
		Pos: pos,
	})
}

// bindScalarTarget assigns/declares a scalar target with init, returning the
// MiniLang name holding the value.
func (f *fnLowerer) bindScalarTarget(t ast.Expr, cat string, define bool, init lang.Expr, pos lang.Pos, out *[]lang.Stmt) string {
	if id, ok := unparen(t).(*ast.Ident); ok && id.Name != "_" {
		if vi := f.lookup(id.Name); vi != nil && (!define || f.inCurrentScope(id.Name) != nil) && vi.cat == cat {
			*out = append(*out, &lang.AssignStmt{LHS: f.ident(vi, pos), RHS: init, Pos: pos})
			return vi.ml
		}
		ml := f.fresh(id.Name)
		f.bind(id.Name, &varInfo{ml: ml, cat: cat})
		*out = append(*out, &lang.VarDecl{Name: ml, Type: cat, Init: init, Pos: pos})
		return ml
	}
	name := f.temp("err")
	*out = append(*out, &lang.VarDecl{Name: name, Type: cat, Init: init, Pos: pos})
	return name
}

// bindObjTarget declares/assigns an object target initialized to null,
// returning the MiniLang name to allocate into.
func (f *fnLowerer) bindObjTarget(t ast.Expr, typ string, define bool, pos lang.Pos, out *[]lang.Stmt) string {
	f.p.regObjType(typ)
	if t != nil && !isBlank(t) {
		if id, ok := unparen(t).(*ast.Ident); ok {
			if vi := f.lookup(id.Name); vi != nil && (!define || f.inCurrentScope(id.Name) != nil) && vi.cat == typ {
				*out = append(*out, &lang.AssignStmt{LHS: f.ident(vi, pos), RHS: &lang.NullLit{Pos: pos}, Pos: pos})
				return vi.ml
			}
			ml := f.fresh(id.Name)
			f.bind(id.Name, &varInfo{ml: ml, cat: typ})
			*out = append(*out, &lang.VarDecl{Name: ml, Type: typ, Init: &lang.NullLit{Pos: pos}, Pos: pos})
			return ml
		}
	}
	name := f.temp("obj")
	*out = append(*out, &lang.VarDecl{Name: name, Type: typ, Init: &lang.NullLit{Pos: pos}, Pos: pos})
	return name
}

// lowerLocalTuple binds a multi-result local call: the callee's chosen
// result index gets the call value, the rest are opaque.
func (f *fnLowerer) lowerLocalTuple(lhs []ast.Expr, meta *funcMeta, clo *closureBinding, recvExpr lang.Expr, call *ast.CallExpr, define bool, pos lang.Pos, out *[]lang.Stmt) {
	callExpr, cat := f.callLocal(meta, recvExpr, call.Args, clo, pos, out)
	bound := false
	for i, l := range lhs {
		if i == meta.retIndex && callExpr != nil {
			bound = true
			if isBlank(l) {
				*out = append(*out, &lang.ExprStmt{X: callExpr, Pos: pos})
				continue
			}
			f.assignLowered(l, callExpr, cat, define, out)
			continue
		}
		if isBlank(l) {
			continue
		}
		tcat := "int"
		if i < len(meta.results) {
			tcat = meta.results[i]
		}
		if lang.IsObjectType(tcat) {
			f.havoc("dropped-result")
			f.assignLowered(l, &lang.NullLit{Pos: pos}, tcat, define, out)
			continue
		}
		f.assignLowered(l, zeroFor(tcat, pos), tcat, define, out)
	}
	if !bound && callExpr != nil {
		*out = append(*out, &lang.ExprStmt{X: callExpr, Pos: pos})
	}
}

// opAssign lowers x op= e; only int += - * forms stay symbolic.
func (f *fnLowerer) opAssign(s *ast.AssignStmt, out *[]lang.Stmt) {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return
	}
	pos := f.pos(s.Lhs[0])
	id, ok := unparen(s.Lhs[0]).(*ast.Ident)
	if !ok {
		f.evalEffects(s.Rhs[0], out)
		f.havoc("store")
		return
	}
	vi := f.lookup(id.Name)
	if vi == nil || vi.cat != "int" {
		f.evalEffects(s.Rhs[0], out)
		return
	}
	var op lang.BinOp
	switch s.Tok {
	case token.ADD_ASSIGN:
		op = lang.OpAdd
	case token.SUB_ASSIGN:
		op = lang.OpSub
	case token.MUL_ASSIGN:
		op = lang.OpMul
	default:
		f.evalEffects(s.Rhs[0], out)
		*out = append(*out, &lang.AssignStmt{LHS: f.ident(vi, pos), RHS: opaqueInt(pos), Pos: pos})
		return
	}
	r := f.lowerInt(s.Rhs[0], out)
	*out = append(*out, &lang.AssignStmt{LHS: f.ident(vi, pos),
		RHS: &lang.Binary{Op: op, L: f.ident(vi, pos), R: r, Pos: pos}, Pos: pos})
}

func (f *fnLowerer) incDec(s *ast.IncDecStmt, out *[]lang.Stmt) {
	pos := f.pos(s.X)
	id, ok := unparen(s.X).(*ast.Ident)
	if !ok {
		f.evalEffects(s.X, out)
		return
	}
	vi := f.lookup(id.Name)
	if vi == nil || vi.cat != "int" {
		return
	}
	op := lang.OpAdd
	if s.Tok == token.DEC {
		op = lang.OpSub
	}
	*out = append(*out, &lang.AssignStmt{LHS: f.ident(vi, pos),
		RHS: &lang.Binary{Op: op, L: f.ident(vi, pos), R: &lang.IntLit{Value: 1, Pos: pos}, Pos: pos},
		Pos: pos})
}
