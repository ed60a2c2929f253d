package lang

import (
	"fmt"
	"maps"
)

// Info carries resolver results consumed by IR lowering. The variable
// numbering is on the AST itself: see FunDecl.VarTypes and the Slot of
// each Ident and VarDecl.
type Info struct {
	Prog *Program
	// ObjectTypes is the set of object type names mentioned anywhere.
	ObjectTypes map[string]bool
	// Funs maps each function's name to its declaration: the table the
	// resolver checks calls against, which lowering reads its callees from.
	Funs map[string]*FunDecl
}

// Resolve checks the program and computes type information:
//   - every variable is declared before use and never shadowed,
//   - expression categories (int/bool/object) are consistent,
//   - calls match declared functions and arity,
//   - method calls and field accesses apply only to object-typed variables.
//
// It also numbers each function's variables (FunDecl.VarTypes): the lookup
// that checks a name gives every identifier its variable's slot, so later
// passes index by slot instead of looking the name up again.
func Resolve(prog *Program) (*Info, error) { return ResolveParallel(prog, 1) }

// ResolveParallel is Resolve on up to workers goroutines, one part of
// prog.Funs at a time (Program.Parts). A function's resolution reads only
// its own body and the shared function table, so each goroutine keeps its
// own name table, slab and object-type set, and the sets are merged after.
// The error is Resolve's: that of the first function in Funs that fails.
func ResolveParallel(prog *Program, workers int) (*Info, error) {
	info := &Info{
		Prog:        prog,
		ObjectTypes: make(map[string]bool),
		Funs:        make(map[string]*FunDecl, len(prog.Funs)),
	}
	for _, t := range prog.Types {
		info.ObjectTypes[t.Name] = true
	}
	for _, f := range prog.Funs {
		info.Funs[f.Name] = f
	}
	rs := make([]*resolver, max(workers, 1))
	errs := make([]error, prog.NumParts())
	prog.ForEachPart(workers, func(w, part, lo, hi int) {
		if rs[w] == nil {
			rs[w] = &resolver{funs: info.Funs, objectTypes: map[string]bool{}, vars: map[string]int32{}}
		}
		errs[part] = rs[w].resolveFuns(prog.Funs[lo:hi])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, r := range rs {
		if r != nil {
			maps.Copy(info.ObjectTypes, r.objectTypes)
		}
	}
	return info, nil
}

type resolver struct {
	funs map[string]*FunDecl
	// objectTypes collects the object types the functions mention.
	objectTypes map[string]bool
	fun         *FunDecl
	vars        map[string]int32 // name -> slot in fun
	types       []string         // fun's declared types, by slot - 1
	lists       ListSlab[string] // the functions' VarTypes

	// fun's pre-slice facts (FunDecl.Objects, Throws, Calls) as the walk
	// collects them. bare is the call of the call statement being
	// resolved, whose result is unused; hidden is > 0 inside an
	// expression lowering does not lower; ended is set once the walk has
	// passed a return or throw, and catches is > 0 inside a catch block.
	objects, throws, ended bool
	calls                  ListSlab[Call]
	bare                   *CallExpr
	hidden, catches        int
}

// resolveFuns resolves funs in order and stops at the first that fails.
// One name table serves every function (MiniLang forbids shadowing, so
// names are unique within a function), and each function's types and
// calls are cut from one slab each.
func (r *resolver) resolveFuns(funs []*FunDecl) error {
	for _, f := range funs {
		r.fun = f
		clear(r.vars)
		r.types = r.types[:0]
		r.objects, r.throws, r.ended = IsObjectType(f.RetType), false, false
		r.hidden, r.catches = 0, 0
		calls := r.calls.Mark()
		for _, p := range f.Params {
			if _, err := r.declare(p.Name, p.Type, f.Pos); err != nil {
				return err
			}
		}
		if err := r.stmts(f.Body); err != nil {
			return err
		}
		if IsObjectType(f.RetType) {
			r.objectTypes[f.RetType] = true
		}
		for _, t := range r.types {
			r.lists.Push(t)
		}
		f.VarTypes = r.lists.Cut(0)
		f.Objects, f.Throws, f.Calls = r.objects, r.throws, r.calls.Cut(calls)
	}
	return nil
}

// declare gives name the next slot of the function being resolved.
func (r *resolver) declare(name, typ string, pos Pos) (int32, error) {
	if _, dup := r.vars[name]; dup {
		return 0, fmt.Errorf("%s: variable %q redeclared in %s (MiniLang forbids shadowing)", pos, name, r.fun.Name)
	}
	r.types = append(r.types, typ)
	slot := int32(len(r.types))
	r.vars[name] = slot
	if IsObjectType(typ) {
		r.objectTypes[typ] = true
		r.objects = true
	}
	return slot, nil
}

// opaqueCmp reports whether lowering is to decide the comparison of l and r
// by an opaque condition without lowering either operand (Binary.Opaque).
func (r *resolver) opaqueCmp(l, rhs Expr) bool {
	lc := r.shape(l)
	return lc == "object" || lc == "bool" || r.shape(rhs) == "object"
}

// shape returns the category lowering tells operand e by, from its shape
// alone: "object" for null, an allocation or a field access, "bool" for a
// literal, a declared variable's category, and "" for any other form.
func (r *resolver) shape(e Expr) string {
	switch e := e.(type) {
	case *NullLit, *NewExpr, *FieldAccess:
		return "object"
	case *BoolLit:
		return "bool"
	case *Ident:
		if slot, ok := r.vars[e.Name]; ok {
			return category(r.types[slot-1])
		}
	}
	return ""
}

// typeOfVar resolves id to its variable, records the variable's slot on
// it and returns its declared type.
func (r *resolver) typeOfVar(id *Ident, pos Pos) (string, error) {
	slot, ok := r.vars[id.Name]
	if !ok {
		return "", fmt.Errorf("%s: undeclared variable %q in %s", pos, id.Name, r.fun.Name)
	}
	id.Slot = slot
	return r.types[slot-1], nil
}

// category reduces a type name to "int", "bool" or "object".
func category(typ string) string {
	if typ == "int" || typ == "bool" {
		return typ
	}
	return "object"
}

func (r *resolver) stmts(list []Stmt) error {
	for _, s := range list {
		if err := r.stmt(s); err != nil {
			return err
		}
		switch s.(type) {
		case *ReturnStmt, *ThrowStmt:
			r.ended = true // the calls after it may be unreachable
		}
	}
	return nil
}

func (r *resolver) stmt(s Stmt) error {
	switch s := s.(type) {
	case *VarDecl:
		slot, err := r.declare(s.Name, s.Type, s.Pos)
		if err != nil {
			return err
		}
		s.Slot = slot
		if s.Init != nil {
			ct, err := r.expr(s.Init)
			if err != nil {
				return err
			}
			if err := r.assignable(category(s.Type), ct, s.Pos); err != nil {
				return err
			}
		}
		return nil
	case *AssignStmt:
		var lcat string
		switch lhs := s.LHS.(type) {
		case *Ident:
			t, err := r.typeOfVar(lhs, lhs.Pos)
			if err != nil {
				return err
			}
			lcat = category(t)
		case *FieldAccess:
			t, err := r.typeOfVar(lhs.Recv, lhs.Pos)
			if err != nil {
				return err
			}
			if category(t) != "object" {
				return fmt.Errorf("%s: field store on non-object %q", lhs.Pos, lhs.Recv.Name)
			}
			lcat = "object" // fields hold object references
			r.objects = true
		default:
			return fmt.Errorf("%s: invalid assignment target", s.Pos)
		}
		rcat, err := r.expr(s.RHS)
		if err != nil {
			return err
		}
		return r.assignable(lcat, rcat, s.Pos)
	case *ExprStmt:
		if call, ok := s.X.(*CallExpr); ok {
			r.bare = call
		}
		_, err := r.expr(s.X)
		return err
	case *SpawnStmt:
		// The spawned call type-checks exactly like a call statement; its
		// result (if any) is discarded on the spawning side.
		r.objects, r.bare = true, s.Call
		_, err := r.expr(s.Call)
		return err
	case *IfStmt:
		ct, err := r.expr(s.Cond)
		if err != nil {
			return err
		}
		if ct != "bool" {
			return fmt.Errorf("%s: if condition must be bool, got %s", s.Pos, ct)
		}
		if err := r.stmts(s.Then); err != nil {
			return err
		}
		return r.stmts(s.Else)
	case *WhileStmt:
		ct, err := r.expr(s.Cond)
		if err != nil {
			return err
		}
		if ct != "bool" {
			return fmt.Errorf("%s: while condition must be bool, got %s", s.Pos, ct)
		}
		return r.stmts(s.Body)
	case *ReturnStmt:
		if s.X == nil {
			if r.fun.RetType != "" {
				return fmt.Errorf("%s: %s must return a %s", s.Pos, r.fun.Name, r.fun.RetType)
			}
			return nil
		}
		if r.fun.RetType == "" {
			return fmt.Errorf("%s: %s returns no value", s.Pos, r.fun.Name)
		}
		ct, err := r.expr(s.X)
		if err != nil {
			return err
		}
		return r.assignable(category(r.fun.RetType), ct, s.Pos)
	case *ThrowStmt:
		r.objects, r.throws = true, true
		ct, err := r.expr(s.X)
		if err != nil {
			return err
		}
		if ct != "object" {
			return fmt.Errorf("%s: throw requires an object, got %s", s.Pos, ct)
		}
		return nil
	case *TryStmt:
		r.objects = true
		if err := r.stmts(s.Try); err != nil {
			return err
		}
		catchType := s.CatchType
		if catchType == "" {
			catchType = "Exception"
		}
		if _, err := r.declare(s.CatchVar, catchType, s.Pos); err != nil {
			return err
		}
		r.catches++
		err := r.stmts(s.Catch)
		r.catches--
		return err
	}
	return fmt.Errorf("unknown statement %T", s)
}

func (r *resolver) assignable(lcat, rcat string, pos Pos) error {
	if rcat == "null" {
		if lcat == "object" {
			return nil
		}
		return fmt.Errorf("%s: cannot assign null to %s", pos, lcat)
	}
	if lcat != rcat {
		return fmt.Errorf("%s: cannot assign %s to %s", pos, rcat, lcat)
	}
	return nil
}

// expr type-checks an expression and returns its category:
// "int", "bool", "object", or "null".
func (r *resolver) expr(e Expr) (string, error) {
	switch e := e.(type) {
	case *IntLit:
		return "int", nil
	case *BoolLit:
		return "bool", nil
	case *NullLit:
		r.objects = true
		return "null", nil
	case *InputExpr:
		return "int", nil
	case *Ident:
		t, err := r.typeOfVar(e, e.Pos)
		if err != nil {
			return "", err
		}
		return category(t), nil
	case *FieldAccess:
		t, err := r.typeOfVar(e.Recv, e.Pos)
		if err != nil {
			return "", err
		}
		if category(t) != "object" {
			return "", fmt.Errorf("%s: field load on non-object %q", e.Pos, e.Recv.Name)
		}
		r.objects = true
		return "object", nil
	case *NewExpr:
		if !IsObjectType(e.Type) {
			return "", fmt.Errorf("%s: cannot allocate primitive type %q", e.Pos, e.Type)
		}
		r.objectTypes[e.Type] = true
		r.objects = true
		return "object", nil
	case *CallExpr:
		f, ok := r.funs[e.Name]
		if !ok {
			return "", fmt.Errorf("%s: call to undeclared function %q", e.Pos, e.Name)
		}
		if len(e.Args) != len(f.Params) {
			return "", fmt.Errorf("%s: %s expects %d args, got %d", e.Pos, e.Name, len(f.Params), len(e.Args))
		}
		if r.hidden == 0 {
			r.calls.Push(Call{Fun: f, Used: e != r.bare, Live: !r.ended && r.catches == 0})
		}
		r.objects = r.objects || IsObjectType(f.RetType)
		for i, a := range e.Args {
			// Lowering passes a bool argument opaquely, unlowered.
			opaque := f.Params[i].Type == "bool"
			if opaque {
				r.hidden++
			}
			r.objects = r.objects || IsObjectType(f.Params[i].Type)
			ct, err := r.expr(a)
			if opaque {
				r.hidden--
			}
			if err != nil {
				return "", err
			}
			if err := r.assignable(category(f.Params[i].Type), ct, a.exprPos()); err != nil {
				return "", err
			}
		}
		if f.RetType == "" {
			return "void", nil
		}
		return category(f.RetType), nil
	case *MethodCall:
		t, err := r.typeOfVar(e.Recv, e.Pos)
		if err != nil {
			return "", err
		}
		if category(t) != "object" {
			return "", fmt.Errorf("%s: method call on non-object %q", e.Pos, e.Recv.Name)
		}
		// An event's arguments are never lowered.
		r.objects = true
		r.hidden++
		for _, a := range e.Args {
			if _, err := r.expr(a); err != nil {
				return "", err
			}
		}
		r.hidden--
		// Methods on objects are FSM events; they return int for flexibility.
		return "int", nil
	case *Binary:
		e.Opaque = e.Op.IsComparison() && r.opaqueCmp(e.L, e.R)
		if e.Opaque {
			r.hidden++
		}
		lc, err := r.expr(e.L)
		if err != nil {
			return "", err
		}
		rc, err := r.expr(e.R)
		if err != nil {
			return "", err
		}
		if e.Opaque {
			r.hidden--
		}
		switch e.Op {
		case OpAdd, OpSub, OpMul:
			if lc != "int" || rc != "int" {
				return "", fmt.Errorf("%s: %s requires ints", e.Pos, e.Op)
			}
			return "int", nil
		case OpAnd, OpOr:
			if lc != "bool" || rc != "bool" {
				return "", fmt.Errorf("%s: %s requires bools", e.Pos, e.Op)
			}
			return "bool", nil
		case OpEq, OpNe:
			if lc == rc || lc == "null" || rc == "null" {
				return "bool", nil
			}
			return "", fmt.Errorf("%s: %s operands mismatch (%s vs %s)", e.Pos, e.Op, lc, rc)
		default: // <, <=, >, >=
			if lc != "int" || rc != "int" {
				return "", fmt.Errorf("%s: %s requires ints", e.Pos, e.Op)
			}
			return "bool", nil
		}
	case *Unary:
		ct, err := r.expr(e.X)
		if err != nil {
			return "", err
		}
		if e.Op == '!' {
			if ct != "bool" {
				return "", fmt.Errorf("%s: ! requires bool", e.Pos)
			}
			return "bool", nil
		}
		if ct != "int" {
			return "", fmt.Errorf("%s: unary - requires int", e.Pos)
		}
		return "int", nil
	}
	return "", fmt.Errorf("unknown expression %T", e)
}
