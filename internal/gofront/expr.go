package gofront

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"

	"github.com/grapple-system/grapple/internal/lang"
)

// catOf classifies a Go expression into a MiniLang category without lowering
// it: "int", "bool", "nil", or an object type name. Syntax first, the lenient
// go/types Info as fallback, "int" as the sound default (opaque scalar).
func (f *fnLowerer) catOf(e ast.Expr) string {
	switch e := unparen(e).(type) {
	case *ast.BasicLit:
		return "int"
	case *ast.Ident:
		switch e.Name {
		case "true", "false":
			return "bool"
		case "nil":
			return "nil"
		}
		if vi := f.lookup(e.Name); vi != nil {
			return vi.cat
		}
		if c, ok := f.p.typesCat(e); ok {
			return c
		}
		return "int"
	case *ast.CallExpr:
		return f.callCat(e)
	case *ast.UnaryExpr:
		switch e.Op {
		case token.NOT:
			return "bool"
		case token.AND:
			return f.catOf(e.X)
		}
		return "int"
	case *ast.BinaryExpr:
		if e.Op.Precedence() == 3 || e.Op == token.LAND || e.Op == token.LOR { // comparisons
			return "bool"
		}
		return f.catOf(e.X)
	case *ast.CompositeLit:
		if e.Type == nil {
			return "Ext"
		}
		return f.typeNameOf(e.Type)
	case *ast.FuncLit:
		return "Func"
	case *ast.StarExpr:
		return f.catOf(e.X)
	case *ast.SelectorExpr:
		if x, ok := unparen(e.X).(*ast.Ident); ok && f.lookup(x.Name) == nil {
			if _, isPkg := f.imp[x.Name]; isPkg {
				if c, ok := f.p.typesCat(e); ok {
					return c
				}
				return "int"
			}
		}
		recvCat := f.catOf(e.X)
		if lang.IsObjectType(recvCat) && recvCat != "nil" {
			if ft, ok := f.p.fields[recvCat][e.Sel.Name]; ok {
				return f.typeNameOf(ft)
			}
		}
		if c, ok := f.p.typesCat(e); ok {
			return c
		}
		return "int"
	case *ast.IndexExpr:
		c := f.catOf(e.X)
		if el, ok := strings.CutSuffix(c, "_slice"); ok {
			return el
		}
		if c, ok := f.p.typesCat(e); ok {
			return c
		}
		return "int"
	case *ast.SliceExpr:
		return f.catOf(e.X)
	case *ast.TypeAssertExpr:
		if e.Type == nil {
			return "Ext"
		}
		return f.typeNameOf(e.Type)
	}
	if c, ok := f.p.typesCat(e); ok {
		return c
	}
	return "int"
}

// callCat classifies a call expression's single-value result, mirroring the
// dispatch order of lowerCall.
func (f *fnLowerer) callCat(call *ast.CallExpr) string {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		switch fun.Name {
		case "len", "cap", "copy", "min", "max", "real", "imag", "complex", "recover":
			return "int"
		case "append":
			if len(call.Args) > 0 {
				return f.catOf(call.Args[0])
			}
			return "Ext"
		case "make", "new":
			if len(call.Args) > 0 {
				return f.typeNameOf(call.Args[0])
			}
			return "Ext"
		}
		if vi := f.lookup(fun.Name); vi != nil {
			if vi.clo != nil {
				return retCat(vi.clo.meta)
			}
			if lang.IsObjectType(vi.cat) {
				if _, ok := f.p.rules.CallEvents[vi.cat]; ok {
					return "int"
				}
			}
			return "int"
		}
		if meta := f.p.funcs[fun.Name]; meta != nil {
			return retCat(meta)
		}
		// Conversion to a local or basic type.
		if _, ok := f.p.localType[fun.Name]; ok || basicIntTypes[fun.Name] || fun.Name == "bool" {
			return f.typeNameOf(fun)
		}
		return "int"
	case *ast.SelectorExpr:
		if x, ok := unparen(fun.X).(*ast.Ident); ok && f.lookup(x.Name) == nil {
			if base, isPkg := f.imp[x.Name]; isPkg {
				qname := base + "." + fun.Sel.Name
				if errPredicates[qname] {
					return "bool"
				}
				if al, ok := f.p.rules.FuncAllocs[qname]; ok {
					return al.Type
				}
				if c, ok := f.p.typesCat(call); ok {
					return c
				}
				return "int"
			}
		}
		recvCat := f.catOf(fun.X)
		if lang.IsObjectType(recvCat) && recvCat != "nil" {
			if al, ok := f.p.rules.MethodAllocs[typeMethodKey2(recvCat, fun.Sel.Name)]; ok {
				return al.Type
			}
			if mm := f.p.methods[typeMethodKey{recvCat, fun.Sel.Name}]; mm != nil {
				return retCat(mm)
			}
		}
		if c, ok := f.p.typesCat(call); ok {
			return c
		}
		return "int"
	case *ast.ArrayType, *ast.StarExpr, *ast.MapType, *ast.ChanType,
		*ast.FuncType, *ast.InterfaceType:
		return f.typeNameOf(call.Fun)
	}
	if c, ok := f.p.typesCat(call); ok {
		return c
	}
	return "int"
}

func typeMethodKey2(t, m string) TypeMethod { return TypeMethod{Type: t, Method: m} }

func retCat(meta *funcMeta) string {
	if meta.retType == "" {
		return "int"
	}
	return meta.retType
}

func (f *fnLowerer) typeNameOf(e ast.Expr) string { return f.p.typeName(e, f.imp) }

// ---------------------------------------------------------------------------
// Discard / effects-only evaluation

// lowerDiscard evaluates e for side effects only: calls within e still emit
// events, allocations, and havoc counts; every value is dropped.
func (f *fnLowerer) lowerDiscard(e ast.Expr, out *[]lang.Stmt) {
	switch e := e.(type) {
	case *ast.CallExpr:
		expr, cat := f.lowerCall(e, "void", out)
		switch x := expr.(type) {
		case nil:
		case *lang.MethodCall, *lang.CallExpr:
			// Events and local calls still execute when discarded.
			*out = append(*out, &lang.ExprStmt{X: x, Pos: lang.PosOf(x)})
		case *lang.NewExpr:
			// A discarded allocation still acquires: bind it so the leak
			// checker sees the object.
			f.materialize(x, cat, lang.PosOf(x), out)
		}
	case *ast.ParenExpr:
		f.lowerDiscard(e.X, out)
	case *ast.UnaryExpr:
		f.lowerDiscard(e.X, out)
	case *ast.StarExpr:
		f.lowerDiscard(e.X, out)
	case *ast.TypeAssertExpr:
		f.lowerDiscard(e.X, out)
	case *ast.BinaryExpr:
		f.lowerDiscard(e.X, out)
		f.lowerDiscard(e.Y, out)
	case *ast.SelectorExpr:
		f.lowerDiscard(e.X, out)
	case *ast.IndexExpr:
		f.lowerDiscard(e.X, out)
		f.lowerDiscard(e.Index, out)
	case *ast.SliceExpr:
		f.lowerDiscard(e.X, out)
		if e.Low != nil {
			f.lowerDiscard(e.Low, out)
		}
		if e.High != nil {
			f.lowerDiscard(e.High, out)
		}
		if e.Max != nil {
			f.lowerDiscard(e.Max, out)
		}
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				f.lowerDiscard(kv.Value, out)
				continue
			}
			f.lowerDiscard(el, out)
		}
	}
}

// evalEffects evaluates e only if it can call something.
func (f *fnLowerer) evalEffects(e ast.Expr, out *[]lang.Stmt) {
	if hasCall(e) {
		f.lowerDiscard(e, out)
	}
}

func (f *fnLowerer) evalArgs(args []ast.Expr, out *[]lang.Stmt) {
	for _, a := range args {
		f.evalEffects(a, out)
	}
}

// ---------------------------------------------------------------------------
// Typed lowering

// lowerAny lowers e in its natural category; returns the expression and its
// category ("int", "bool", or object type).
func (f *fnLowerer) lowerAny(e ast.Expr, out *[]lang.Stmt) (lang.Expr, string) {
	cat := f.catOf(e)
	switch {
	case cat == "bool":
		return f.lowerBool(e, out), "bool"
	case cat == "int" || cat == "nil":
		return f.lowerInt(e, out), "int"
	default:
		expr, typ := f.lowerObj(e, out)
		if typ == "" {
			typ = cat
		}
		return expr, typ
	}
}

// lowerInt lowers e as an integer. Unknown forms become fresh opaque inputs
// after their call-bearing subexpressions are evaluated for effect.
func (f *fnLowerer) lowerInt(e ast.Expr, out *[]lang.Stmt) lang.Expr {
	pos := f.pos(e)
	switch e := e.(type) {
	case *ast.ParenExpr:
		return f.lowerInt(e.X, out)
	case *ast.BasicLit:
		if e.Kind == token.INT {
			if v, err := strconv.ParseInt(e.Value, 0, 64); err == nil {
				return &lang.IntLit{Value: v, Pos: pos}
			}
		}
		if e.Kind == token.CHAR {
			if r, _, _, err := strconv.UnquoteChar(strings.Trim(e.Value, "'"), '\''); err == nil {
				return &lang.IntLit{Value: int64(r), Pos: pos}
			}
		}
		return opaqueInt(pos)
	case *ast.Ident:
		if e.Name == "nil" {
			return &lang.IntLit{Value: 0, Pos: pos}
		}
		if vi := f.lookup(e.Name); vi != nil {
			switch vi.cat {
			case "int":
				return f.ident(vi, pos)
			case "bool":
				return opaqueInt(pos)
			default:
				return opaqueInt(pos)
			}
		}
		// Package-level constant or variable: opaque.
		return opaqueInt(pos)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.ADD, token.SUB, token.MUL:
			op := map[token.Token]lang.BinOp{
				token.ADD: lang.OpAdd, token.SUB: lang.OpSub, token.MUL: lang.OpMul,
			}[e.Op]
			if f.catOf(e.X) == "int" && f.catOf(e.Y) == "int" {
				l := f.lowerInt(e.X, out)
				r := f.lowerInt(e.Y, out)
				return &lang.Binary{Op: op, L: l, R: r, Pos: pos}
			}
		}
		f.evalEffects(e.X, out)
		f.evalEffects(e.Y, out)
		return opaqueInt(pos)
	case *ast.UnaryExpr:
		switch e.Op {
		case token.SUB:
			return &lang.Unary{Op: '-', X: f.lowerInt(e.X, out), Pos: pos}
		case token.ADD:
			return f.lowerInt(e.X, out)
		}
		f.evalEffects(e.X, out)
		return opaqueInt(pos)
	case *ast.CallExpr:
		expr, cat := f.lowerCall(e, "int", out)
		if expr == nil {
			return opaqueInt(pos)
		}
		if cat == "int" {
			return expr
		}
		return opaqueInt(pos)
	}
	f.evalEffects(e, out)
	return opaqueInt(pos)
}

// lowerBool lowers e as a boolean, preserving int-symbol correlation for
// comparisons (the engine's path conditions live here).
func (f *fnLowerer) lowerBool(e ast.Expr, out *[]lang.Stmt) lang.Expr {
	pos := f.pos(e)
	switch e := e.(type) {
	case *ast.ParenExpr:
		return f.lowerBool(e.X, out)
	case *ast.Ident:
		switch e.Name {
		case "true":
			return &lang.BoolLit{Value: true, Pos: pos}
		case "false":
			return &lang.BoolLit{Value: false, Pos: pos}
		}
		if vi := f.lookup(e.Name); vi != nil && vi.cat == "bool" {
			return f.ident(vi, pos)
		}
		return opaqueBool(pos)
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			return &lang.Unary{Op: '!', X: f.lowerBool(e.X, out), Pos: pos}
		}
		f.evalEffects(e.X, out)
		return opaqueBool(pos)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			return &lang.Binary{Op: lang.OpAnd, L: f.lowerBool(e.X, out), R: f.lowerBool(e.Y, out), Pos: pos}
		case token.LOR:
			return &lang.Binary{Op: lang.OpOr, L: f.lowerBool(e.X, out), R: f.lowerBool(e.Y, out), Pos: pos}
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			op := map[token.Token]lang.BinOp{
				token.EQL: lang.OpEq, token.NEQ: lang.OpNe, token.LSS: lang.OpLt,
				token.LEQ: lang.OpLe, token.GTR: lang.OpGt, token.GEQ: lang.OpGe,
			}[e.Op]
			cx, cy := f.catOf(e.X), f.catOf(e.Y)
			intish := func(c string) bool { return c == "int" || c == "nil" }
			if intish(cx) && intish(cy) {
				l := f.lowerInt(e.X, out)
				r := f.lowerInt(e.Y, out)
				return &lang.Binary{Op: op, L: l, R: r, Pos: pos}
			}
			f.evalEffects(e.X, out)
			f.evalEffects(e.Y, out)
			return opaqueBool(pos)
		}
		f.evalEffects(e.X, out)
		f.evalEffects(e.Y, out)
		return opaqueBool(pos)
	case *ast.CallExpr:
		expr, cat := f.lowerCall(e, "bool", out)
		if expr == nil {
			return opaqueBool(pos)
		}
		switch cat {
		case "bool":
			if _, isCall := expr.(*lang.CallExpr); isCall {
				// The IR has no bool-valued call form: run the call for
				// its effects (the callee's events stay on the path) and
				// branch on a fresh opaque bool.
				*out = append(*out, &lang.ExprStmt{X: expr, Pos: pos})
				return opaqueBool(pos)
			}
			return expr
		case "int":
			// Int-valued call in a bool slot: compare against zero so the
			// call's symbol survives into the path condition.
			id := f.materialize(expr, "int", pos, out)
			return &lang.Binary{Op: lang.OpNe, L: id, R: &lang.IntLit{Value: 0, Pos: pos}, Pos: pos}
		}
		return opaqueBool(pos)
	}
	f.evalEffects(e, out)
	return opaqueBool(pos)
}

// lowerObj lowers e as an object reference, returning the expression and its
// object type name ("" when unknown).
func (f *fnLowerer) lowerObj(e ast.Expr, out *[]lang.Stmt) (lang.Expr, string) {
	pos := f.pos(e)
	switch e := e.(type) {
	case *ast.ParenExpr:
		return f.lowerObj(e.X, out)
	case *ast.Ident:
		if e.Name == "nil" {
			return &lang.NullLit{Pos: pos}, ""
		}
		if vi := f.lookup(e.Name); vi != nil {
			if vi.clo != nil {
				// A lifted closure has no variable to refer to: as a value it
				// escapes, like a literal in value position.
				f.havoc("closure-escape")
				return &lang.NullLit{Pos: pos}, "Func"
			}
			if lang.IsObjectType(vi.cat) {
				return f.ident(vi, pos), vi.cat
			}
			return &lang.NullLit{Pos: pos}, ""
		}
		if f.p.funcs[e.Name] != nil {
			f.havoc("func-value")
			return &lang.NullLit{Pos: pos}, "Func"
		}
		return &lang.NullLit{Pos: pos}, ""
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return f.lowerObj(e.X, out)
		}
		f.evalEffects(e.X, out)
		return &lang.NullLit{Pos: pos}, ""
	case *ast.StarExpr:
		return f.lowerObj(e.X, out)
	case *ast.SelectorExpr:
		recvCat := f.catOf(e.X)
		if lang.IsObjectType(recvCat) && recvCat != "nil" {
			recvExpr, typ := f.lowerObj(e.X, out)
			if typ == "" {
				typ = recvCat
			}
			recv := f.materialize(recvExpr, typ, pos, out)
			fieldType := ""
			if ft, ok := f.p.fields[typ][e.Sel.Name]; ok {
				fieldType = f.typeNameOf(ft)
			}
			if lang.IsObjectType(fieldType) {
				return &lang.FieldAccess{Recv: recv, Field: e.Sel.Name, Pos: pos}, fieldType
			}
			// Unknown field type: still a depth-one object read.
			return &lang.FieldAccess{Recv: recv, Field: e.Sel.Name, Pos: pos}, ""
		}
		f.evalEffects(e.X, out)
		return &lang.NullLit{Pos: pos}, ""
	case *ast.CallExpr:
		expr, cat := f.lowerCall(e, "obj", out)
		if expr == nil || !lang.IsObjectType(cat) {
			return &lang.NullLit{Pos: pos}, ""
		}
		return expr, cat
	case *ast.CompositeLit:
		return f.lowerCompositeLit(e, out)
	case *ast.TypeAssertExpr:
		if e.Type == nil {
			return f.lowerObj(e.X, out)
		}
		// Identity-preserving: interface narrowing does not change the
		// object, only our name for its type.
		expr, _ := f.lowerObj(e.X, out)
		return expr, f.typeNameOf(e.Type)
	case *ast.IndexExpr:
		f.evalEffects(e.X, out)
		f.evalEffects(e.Index, out)
		f.havoc("index-obj")
		return &lang.NullLit{Pos: pos}, ""
	case *ast.SliceExpr:
		expr, typ := f.lowerObj(e.X, out)
		return expr, typ
	case *ast.FuncLit:
		// A closure escaping into a value position cannot be modeled.
		f.havoc("closure-escape")
		return &lang.NullLit{Pos: pos}, "Func"
	}
	f.evalEffects(e, out)
	return &lang.NullLit{Pos: pos}, ""
}

// lowerCompositeLit allocates an object for a struct-like composite literal,
// initializing object-typed fields (depth one) and evaluating the rest for
// effect. sync.Mutex-style composite allocations of tracked types route
// through the pack rules.
func (f *fnLowerer) lowerCompositeLit(e *ast.CompositeLit, out *[]lang.Stmt) (lang.Expr, string) {
	pos := f.pos(e)
	typ := "Ext"
	if e.Type != nil {
		typ = f.typeNameOf(e.Type)
		// Qualified tracked composite (e.g. sync.Mutex{}).
		if sel, ok := unparen(e.Type).(*ast.SelectorExpr); ok {
			if x, ok := unparen(sel.X).(*ast.Ident); ok {
				if base, isPkg := f.imp[x.Name]; isPkg {
					if t, ok := f.p.rules.CompositeAllocs[base+"."+sel.Sel.Name]; ok {
						typ = t
					}
				}
			}
		}
	}
	if !lang.IsObjectType(typ) {
		typ = "Ext"
	}
	f.p.regObjType(typ)
	name := f.temp("lit")
	*out = append(*out, &lang.VarDecl{Name: name, Type: typ,
		Init: &lang.NewExpr{Type: typ, Pos: pos}, Pos: pos})
	tmp := &lang.Ident{Name: name, Pos: pos}
	fieldOrder := f.namedFieldOrder(e.Type)
	for i, el := range e.Elts {
		key := ""
		val := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				key = id.Name
			}
			val = kv.Value
		} else if i < len(fieldOrder) {
			key = fieldOrder[i]
		}
		if key != "" && lang.IsObjectType(f.catOf(val)) && f.catOf(val) != "nil" {
			ve, _ := f.lowerObj(val, out)
			*out = append(*out, &lang.AssignStmt{
				LHS: &lang.FieldAccess{Recv: &lang.Ident{Name: name, Pos: pos}, Field: key, Pos: pos},
				RHS: ve, Pos: pos,
			})
			continue
		}
		f.evalEffects(val, out)
	}
	return tmp, typ
}

// namedFieldOrder returns the declared field order of a local struct type so
// positional composite literals can be keyed.
func (f *fnLowerer) namedFieldOrder(t ast.Expr) []string {
	id, ok := unparen(t).(*ast.Ident)
	if !ok {
		return nil
	}
	def, ok := f.p.localType[id.Name]
	if !ok {
		return nil
	}
	st, ok := def.(*ast.StructType)
	if !ok || st.Fields == nil {
		return nil
	}
	var out []string
	for _, fl := range st.Fields.List {
		for _, n := range fl.Names {
			out = append(out, n.Name)
		}
	}
	return out
}

// lowerByCat lowers e into the given category.
func (f *fnLowerer) lowerByCat(e ast.Expr, cat string, out *[]lang.Stmt) lang.Expr {
	switch cat {
	case "int":
		return f.lowerInt(e, out)
	case "bool":
		return f.lowerBool(e, out)
	default:
		expr, _ := f.lowerObj(e, out)
		return expr
	}
}
