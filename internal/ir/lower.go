package ir

import (
	"fmt"
	"strconv"

	"github.com/grapple-system/grapple/internal/lang"
)

// TryRegion is a transient IR statement produced by lowering and eliminated
// by ExpandExceptions; it delimits a try body with its handler.
type TryRegion struct {
	Body      *Block
	CatchVar  string
	CatchType string
	Catch     *Block
	Pos       lang.Pos
}

// Raise is a transient IR statement: raise the object in Src (static type
// Type). ExpandExceptions resolves it against enclosing TryRegions.
type Raise struct {
	Src  string
	Type string
	Pos  lang.Pos
}

func (*TryRegion) irStmt() {}
func (*Raise) irStmt()     {}

// Options configures lowering.
type Options struct {
	// UnrollDepth bounds static loop unrolling (paper §3.1). Zero means the
	// default of 2.
	UnrollDepth int
}

// Lower lowers a resolved MiniLang program into IR and expands exceptions.
func Lower(info *lang.Info, opts Options) (*Program, error) { return LowerKept(info, opts, 1, nil) }

// LowerKept is Lower on up to workers goroutines, one part of the
// program's functions at a time (lang.Program.Parts), that lowers the
// bodies of only the functions keep marks (every function when keep is
// nil; PreKeep's answer when a check slices). Every other function is a
// stub (Func.Stub) in its declaration slot, unless its body has a form a
// stub does not follow, when it is lowered too.
//
// Each goroutine has its own slabs and temporary names, and numbers each
// part's allocation sites, call sites and opaque conditions from zero into
// the part's own site tables; a stub takes the numbers lowering would give
// it. A serial link then gives each part its bases, the prefix sums of
// the parts before it in declaration order, shifts its functions' Site and
// OpaqueID fields by them and joins the site tables, so every number is
// Lower's. The error is Lower's: that of the first function that fails.
// Exception expansion follows the link: its MayThrow fixpoint on one
// goroutine, then each part's bodies on the workers (expandExceptions).
func LowerKept(info *lang.Info, opts Options, workers int, keep []bool) (*Program, error) {
	if opts.UnrollDepth <= 0 {
		opts.UnrollDepth = 2
	}
	funs := info.Prog.Funs
	p := &Program{
		Funs:        make([]*Func, len(funs)),
		FunByName:   make(map[string]*Func, len(funs)),
		ObjectTypes: make(map[string]bool, len(info.ObjectTypes)),
	}
	for t := range info.ObjectTypes {
		p.ObjectTypes[t] = true
	}
	parts := make([]siteTable, info.Prog.NumParts())
	los := make([]*lowerer, max(workers, 1))
	info.Prog.ForEachPart(workers, func(w, part, lo, hi int) {
		if los[w] == nil {
			los[w] = &lowerer{info: info, opts: opts}
		}
		l := los[w]
		l.sites = &parts[part]
		for i := lo; i < hi; i++ {
			if keep != nil && !keep[i] {
				if fn := l.stubFun(funs[i]); fn != nil {
					p.Funs[i] = fn
					continue
				}
			}
			fn, err := l.lowerFun(funs[i])
			if err != nil {
				l.sites.err = err
				return
			}
			p.Funs[i] = fn
		}
	})
	for i := range parts {
		if parts[i].err != nil {
			return nil, parts[i].err
		}
	}
	link(p, info.Prog, parts, workers)
	for _, fn := range p.Funs {
		p.FunByName[fn.Name] = fn
	}
	expandExceptions(p, info.Prog, workers)
	return p, nil
}

// siteTable numbers the allocation sites, call sites and opaque conditions
// of one part's functions: sites from 0, opaque conditions from 1, as Lower
// numbers the whole program's.
type siteTable struct {
	allocPos  []lang.Pos
	allocType []string
	callPos   []lang.Pos
	opaqueN   int32
	err       error // the first error lowering the part
}

// link joins the parts' site tables into p in part order and shifts the
// numbers in each part's functions by the sites and opaque conditions of
// the parts before it (on up to workers goroutines: a part's shift reads
// and writes only its own functions).
func link(p *Program, prog *lang.Program, parts []siteTable, workers int) {
	var bases []siteBase
	var alloc, call, opaque int32
	for i := range parts {
		bases = append(bases, siteBase{alloc, call, opaque})
		alloc += int32(len(parts[i].allocPos))
		call += int32(len(parts[i].callPos))
		opaque += parts[i].opaqueN
	}
	if len(parts) == 1 {
		t := &parts[0]
		p.AllocSitePos, p.AllocSiteType, p.CallSitePos = t.allocPos, t.allocType, t.callPos
	} else {
		p.AllocSitePos = make([]lang.Pos, 0, alloc)
		p.AllocSiteType = make([]string, 0, alloc)
		p.CallSitePos = make([]lang.Pos, 0, call)
		for i := range parts {
			p.AllocSitePos = append(p.AllocSitePos, parts[i].allocPos...)
			p.AllocSiteType = append(p.AllocSiteType, parts[i].allocType...)
			p.CallSitePos = append(p.CallSitePos, parts[i].callPos...)
		}
		prog.ForEachPart(workers, func(_, part, lo, hi int) {
			if part == 0 {
				return
			}
			for _, fn := range p.Funs[lo:hi] {
				bases[part].shift(fn.Body)
			}
		})
	}
	p.NumAllocSites, p.NumCallSites = int(alloc), int(call)
}

// siteBase is what link adds to a part's local site and opaque numbers.
type siteBase struct {
	alloc, call, opaque int32
}

// shift adds the bases to every site and opaque number in b. Lowering
// attaches each block it builds once (a duplicated branch is a deep copy),
// so no number is shifted twice.
func (sb siteBase) shift(b *Block) {
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *NewObj:
			s.Site += sb.alloc
		case *Call:
			s.Site += sb.call
		case *BoolAssign:
			sb.shiftCond(&s.Cond)
		case *If:
			sb.shiftCond(&s.Cond)
			sb.shift(s.Then)
			sb.shift(s.Else)
		case *TryRegion:
			sb.shift(s.Body)
			sb.shift(s.Catch)
		}
	}
}

func (sb siteBase) shiftCond(c *Cond) {
	if c.IsOpaque() {
		c.OpaqueID += sb.opaque
	}
}

type lowerer struct {
	info  *lang.Info
	opts  Options
	sites *siteTable // the part being lowered

	fun   *lang.FunDecl
	tempN int
	// tempNames[i] is "$t<i+1>": temporaries restart at $t1 in every
	// function, so each name is built once per lowerer. tempTypes[i] is
	// the type of the function's $t<i+1>, which takes the slot after the
	// declared variables and the temporaries before it.
	tempNames []string
	tempTypes []string

	// ints is the slab of the IntAssigns lowering emits; they outlive
	// expansion. ifs, blocks and lists hold the structured body lowering
	// builds and expansion replaces, so they die with this Lower call.
	ints   lang.Slab[IntAssign]
	ifs    lang.Slab[If]
	blocks lang.Slab[Block]
	lists  lang.ListSlab[Stmt]
	// open is the stack of blocks under construction. Lowering fills one
	// block at a time: a nested block (a branch arm, a loop body, the inner
	// test of a short-circuit condition) is opened, filled and closed
	// before its parent gets another statement. So statements collect on
	// lists' scratch stack and a block's list is cut when it closes.
	open []pendingBlock
	// stub collects the calls of the stub being made (stubFun); stubs and
	// calls hold the stubs, which outlive expansion.
	stub  []Stmt
	stubs lang.Slab[Func]
	calls lang.Slab[Call]
}

type pendingBlock struct {
	b    *Block
	mark int
}

// varRef is a variable as lowering reads or writes it: its name and its
// slot in the function's numbering. The zero varRef is no variable (a null
// object, an ignored result).
type varRef struct {
	name string
	slot int32
}

func identRef(id *lang.Ident) varRef { return varRef{id.Name, id.Slot} }

func (v varRef) op() Operand { return VarOp(v.name, v.slot) }

func (lo *lowerer) lowerFun(f *lang.FunDecl) (*Func, error) {
	lo.fun = f
	lo.tempN = 0
	lo.tempTypes = lo.tempTypes[:0]
	fn := &Func{Name: f.Name, Params: f.Params, RetType: f.RetType, Pos: f.Pos}
	body := lo.openBlock()
	if err := lo.lowerStmts(f.Body, body); err != nil {
		return nil, err
	}
	lo.closeBlock(body)
	fn.Body = body
	// The declared variables, the temporaries, then ExcVar.
	fn.NumVars = len(f.VarTypes) + lo.tempN + 1
	return fn, nil
}

// temp returns a fresh temporary of type typ.
func (lo *lowerer) temp(typ string) varRef {
	lo.tempN++
	for len(lo.tempNames) < lo.tempN {
		var buf [24]byte
		lo.tempNames = append(lo.tempNames, string(strconv.AppendInt(append(buf[:0], "$t"...), int64(len(lo.tempNames)+1), 10)))
	}
	lo.tempTypes = append(lo.tempTypes, typ)
	return varRef{lo.tempNames[lo.tempN-1], int32(len(lo.fun.VarTypes) + lo.tempN)}
}

// openBlock starts a block that emit then fills until closeBlock.
func (lo *lowerer) openBlock() *Block {
	b := lo.blocks.New(Block{})
	lo.open = append(lo.open, pendingBlock{b, lo.lists.Mark()})
	return b
}

// closeBlock gives b, the innermost open block, the statements emitted
// into it.
func (lo *lowerer) closeBlock(b *Block) {
	top := lo.open[len(lo.open)-1]
	if top.b != b {
		panic("ir: lowering closed a block that is not the innermost open one")
	}
	lo.open = lo.open[:len(lo.open)-1]
	b.Stmts = lo.lists.Cut(top.mark)
}

// emit appends s to out, which must be the innermost open block.
func (lo *lowerer) emit(out *Block, s Stmt) {
	if lo.open[len(lo.open)-1].b != out {
		panic("ir: lowering emitted into a block that is not the innermost open one")
	}
	lo.lists.Push(s)
}

func (lo *lowerer) freshOpaque() int32 {
	lo.sites.opaqueN++
	return lo.sites.opaqueN
}

// typeOf returns the type of the variable in slot: a declared one's, or a
// temporary's.
func (lo *lowerer) typeOf(slot int32) string {
	if n := int32(len(lo.fun.VarTypes)); slot > n {
		return lo.tempTypes[slot-n-1]
	}
	return lo.fun.VarType(slot)
}

func (lo *lowerer) allocSite(typ string, pos lang.Pos) int32 {
	t := lo.sites
	t.allocPos = append(t.allocPos, pos)
	t.allocType = append(t.allocType, typ)
	return int32(len(t.allocPos) - 1)
}

func (lo *lowerer) callSite(pos lang.Pos) int32 {
	t := lo.sites
	t.callPos = append(t.callPos, pos)
	return int32(len(t.callPos) - 1)
}

func (lo *lowerer) lowerStmts(stmts []lang.Stmt, out *Block) error {
	for _, s := range stmts {
		if err := lo.lowerStmt(s, out); err != nil {
			return err
		}
	}
	return nil
}

func (lo *lowerer) lowerStmt(s lang.Stmt, out *Block) error {
	switch s := s.(type) {
	case *lang.VarDecl:
		if s.Init == nil {
			return nil
		}
		return lo.lowerAssignTo(varRef{s.Name, s.Slot}, s.Type, s.Init, s.Pos, out)
	case *lang.AssignStmt:
		switch lhs := s.LHS.(type) {
		case *lang.Ident:
			return lo.lowerAssignTo(identRef(lhs), lo.typeOf(lhs.Slot), s.RHS, s.Pos, out)
		case *lang.FieldAccess:
			src, err := lo.lowerObjExpr(s.RHS, out)
			if err != nil {
				return err
			}
			if src.name == "" { // storing null clears the field; no object flow
				return nil
			}
			lo.emit(out, &Store{Recv: lhs.Recv.Name, Field: lhs.Field, Src: src.name, Pos: s.Pos})
			return nil
		}
		return fmt.Errorf("%s: bad assignment target", s.Pos)
	case *lang.ExprStmt:
		switch x := s.X.(type) {
		case *lang.CallExpr:
			_, err := lo.lowerCall(x, varRef{}, out)
			return err
		case *lang.MethodCall:
			lo.emit(out, &Event{Recv: x.Recv.Name, Method: x.Method, Pos: x.Pos})
			return nil
		}
		return fmt.Errorf("%s: bad expression statement", s.Pos)
	case *lang.SpawnStmt:
		c, err := lo.lowerCall(s.Call, varRef{}, out)
		if err != nil {
			return err
		}
		c.Spawn = true
		return nil
	case *lang.IfStmt:
		thenB := lo.openBlock()
		if err := lo.lowerStmts(s.Then, thenB); err != nil {
			return err
		}
		lo.closeBlock(thenB)
		elseB := lo.openBlock()
		if err := lo.lowerStmts(s.Else, elseB); err != nil {
			return err
		}
		lo.closeBlock(elseB)
		return lo.lowerCondBranch(s.Cond, thenB, elseB, s.Pos, out)
	case *lang.WhileStmt:
		return lo.lowerWhile(s, lo.opts.UnrollDepth, out)
	case *lang.ReturnStmt:
		if s.X == nil {
			lo.emit(out, &Return{Pos: s.Pos})
			return nil
		}
		if lang.IsObjectType(lo.fun.RetType) {
			src, err := lo.lowerObjExpr(s.X, out)
			if err != nil {
				return err
			}
			lo.emit(out, &Return{Src: src.op(), SrcIsObject: true, Pos: s.Pos})
			return nil
		}
		op, err := lo.lowerIntExpr(s.X, out)
		if err != nil {
			return err
		}
		lo.emit(out, &Return{Src: op, Pos: s.Pos})
		return nil
	case *lang.ThrowStmt:
		src, err := lo.lowerObjExpr(s.X, out)
		if err != nil {
			return err
		}
		if src.name == "" {
			return fmt.Errorf("%s: cannot throw null", s.Pos)
		}
		lo.emit(out, &Raise{Src: src.name, Type: lo.typeOf(src.slot), Pos: s.Pos})
		return nil
	case *lang.TryStmt:
		body := lo.openBlock()
		if err := lo.lowerStmts(s.Try, body); err != nil {
			return err
		}
		lo.closeBlock(body)
		catch := lo.openBlock()
		if err := lo.lowerStmts(s.Catch, catch); err != nil {
			return err
		}
		lo.closeBlock(catch)
		lo.emit(out, &TryRegion{
			Body: body, CatchVar: s.CatchVar, CatchType: s.CatchType,
			Catch: catch, Pos: s.Pos,
		})
		return nil
	}
	return fmt.Errorf("unknown statement %T", s)
}

// lowerWhile statically unrolls "while (c) body" depth times:
// if (c) { body; if (c) { body; ... } }.
func (lo *lowerer) lowerWhile(w *lang.WhileStmt, depth int, out *Block) error {
	if depth == 0 {
		return nil
	}
	inner := lo.openBlock()
	if err := lo.lowerStmts(w.Body, inner); err != nil {
		return err
	}
	if err := lo.lowerWhile(w, depth-1, inner); err != nil {
		return err
	}
	lo.closeBlock(inner)
	return lo.lowerCondBranch(w.Cond, inner, lo.blocks.New(Block{}), w.Pos, out)
}

// lowerAssignTo lowers "dst: typ = rhs".
func (lo *lowerer) lowerAssignTo(dst varRef, typ string, rhs lang.Expr, pos lang.Pos, out *Block) error {
	switch {
	case lang.IsObjectType(typ):
		switch e := rhs.(type) {
		case *lang.NewExpr:
			lo.emit(out, &NewObj{Dst: dst.name, Type: e.Type, Site: lo.allocSite(e.Type, e.Pos), Pos: e.Pos})
			return nil
		case *lang.FieldAccess:
			lo.emit(out, &Load{Dst: dst.name, Recv: e.Recv.Name, Field: e.Field, Pos: e.Pos})
			return nil
		case *lang.CallExpr:
			_, err := lo.lowerCall(e, dst, out)
			return err
		}
		src, err := lo.lowerObjExpr(rhs, out)
		if err != nil {
			return err
		}
		lo.emit(out, &ObjAssign{Dst: dst.name, Src: src.name, Pos: pos})
		return nil
	case typ == "bool":
		return lo.lowerBoolAssign(dst, rhs, pos, out)
	default: // int
		return lo.lowerIntExprInto(dst, rhs, out)
	}
}

// lowerObjExpr lowers an object-valued expression to a variable (the zero
// varRef for null).
func (lo *lowerer) lowerObjExpr(e lang.Expr, out *Block) (varRef, error) {
	switch e := e.(type) {
	case *lang.NullLit:
		return varRef{}, nil
	case *lang.Ident:
		return identRef(e), nil
	case *lang.NewExpr:
		t := lo.temp(e.Type)
		lo.emit(out, &NewObj{Dst: t.name, Type: e.Type, Site: lo.allocSite(e.Type, e.Pos), Pos: e.Pos})
		return t, nil
	case *lang.FieldAccess:
		t := lo.temp("Object")
		lo.emit(out, &Load{Dst: t.name, Recv: e.Recv.Name, Field: e.Field, Pos: e.Pos})
		return t, nil
	case *lang.CallExpr:
		f := lo.info.Funs[e.Name]
		t := lo.temp(f.RetType)
		if _, err := lo.lowerCall(e, t, out); err != nil {
			return varRef{}, err
		}
		return t, nil
	}
	return varRef{}, fmt.Errorf("%s: expression is not an object", lang.PosOf(e))
}

// lowerIntExprInto lowers an int expression directly into dst.
func (lo *lowerer) lowerIntExprInto(dst varRef, e lang.Expr, out *Block) error {
	switch e := e.(type) {
	case *lang.IntLit:
		lo.emit(out, lo.ints.New(IntAssign{Dst: dst.name, DstSlot: dst.slot, Op: Mov, A: ConstOp(e.Value), Pos: e.Pos}))
		return nil
	case *lang.Ident:
		lo.emit(out, lo.ints.New(IntAssign{Dst: dst.name, DstSlot: dst.slot, Op: Mov, A: identRef(e).op(), Pos: e.Pos}))
		return nil
	case *lang.InputExpr:
		lo.emit(out, lo.ints.New(IntAssign{Dst: dst.name, DstSlot: dst.slot, Op: Opaque, Pos: e.Pos}))
		return nil
	case *lang.CallExpr:
		_, err := lo.lowerCall(e, dst, out)
		return err
	case *lang.MethodCall:
		lo.emit(out, &Event{Recv: e.Recv.Name, Method: e.Method, Dst: dst.name, DstSlot: dst.slot, Pos: e.Pos})
		return nil
	case *lang.Binary:
		a, err := lo.lowerIntExpr(e.L, out)
		if err != nil {
			return err
		}
		b, err := lo.lowerIntExpr(e.R, out)
		if err != nil {
			return err
		}
		var op ArithOp
		switch e.Op {
		case lang.OpAdd:
			op = Add
		case lang.OpSub:
			op = Sub
		case lang.OpMul:
			op = Mul
		default:
			return fmt.Errorf("%s: %s is not an int operator", e.Pos, e.Op)
		}
		lo.emit(out, lo.ints.New(IntAssign{Dst: dst.name, DstSlot: dst.slot, Op: op, A: a, B: b, Pos: e.Pos}))
		return nil
	case *lang.Unary:
		a, err := lo.lowerIntExpr(e.X, out)
		if err != nil {
			return err
		}
		lo.emit(out, lo.ints.New(IntAssign{Dst: dst.name, DstSlot: dst.slot, Op: Neg, A: a, Pos: e.Pos}))
		return nil
	}
	return fmt.Errorf("cannot lower %T as int", e)
}

// lowerIntExpr lowers an int expression to an operand, flattening through
// temporaries where needed.
func (lo *lowerer) lowerIntExpr(e lang.Expr, out *Block) (Operand, error) {
	switch e := e.(type) {
	case *lang.IntLit:
		return ConstOp(e.Value), nil
	case *lang.Ident:
		return identRef(e).op(), nil
	}
	t := lo.temp("int")
	if err := lo.lowerIntExprInto(t, e, out); err != nil {
		return Operand{}, err
	}
	return t.op(), nil
}

// lowerBoolAssign lowers "dst: bool = e".
func (lo *lowerer) lowerBoolAssign(dst varRef, e lang.Expr, pos lang.Pos, out *Block) error {
	if c, simple, err := lo.simpleCond(e, out); err != nil {
		return err
	} else if simple {
		lo.emit(out, &BoolAssign{Dst: dst.name, DstSlot: dst.slot, Cond: c, Pos: pos})
		return nil
	}
	// Complex boolean (&&, ||): dst = cond ? true : false.
	thenB := lo.openBlock()
	lo.emit(thenB, &BoolAssign{Dst: dst.name, DstSlot: dst.slot, Cond: trueCond(), Pos: pos})
	lo.closeBlock(thenB)
	elseB := lo.openBlock()
	lo.emit(elseB, &BoolAssign{Dst: dst.name, DstSlot: dst.slot, Cond: falseCond(), Pos: pos})
	lo.closeBlock(elseB)
	return lo.lowerCondBranch(e, thenB, elseB, pos, out)
}

func trueCond() Cond  { return CmpCond(ConstOp(0), CmpEq, ConstOp(0)) }
func falseCond() Cond { return CmpCond(ConstOp(0), CmpNe, ConstOp(0)) }

// simpleCond tries to lower e as a single non-short-circuit condition.
// It returns simple=false for && and || which require branch desugaring.
func (lo *lowerer) simpleCond(e lang.Expr, out *Block) (Cond, bool, error) {
	switch e := e.(type) {
	case *lang.BoolLit:
		if e.Value {
			return trueCond(), true, nil
		}
		return falseCond(), true, nil
	case *lang.Ident:
		return BoolCond(e.Name, e.Slot), true, nil
	case *lang.Unary:
		if e.Op != '!' {
			return Cond{}, false, fmt.Errorf("%s: bad unary in condition", e.Pos)
		}
		c, simple, err := lo.simpleCond(e.X, out)
		if err != nil || !simple {
			return Cond{}, simple, err
		}
		return c.Negate(), true, nil
	case *lang.Binary:
		switch e.Op {
		case lang.OpAnd, lang.OpOr:
			return Cond{}, false, nil
		}
		// Comparison. Object/null and bool comparisons are statically
		// opaque (Resolve marks them).
		if e.Opaque {
			return OpaqueCond(lo.freshOpaque()), true, nil
		}
		a, err := lo.lowerIntExpr(e.L, out)
		if err != nil {
			return Cond{}, false, err
		}
		b, err := lo.lowerIntExpr(e.R, out)
		if err != nil {
			return Cond{}, false, err
		}
		var k CmpKind
		switch e.Op {
		case lang.OpEq:
			k = CmpEq
		case lang.OpNe:
			k = CmpNe
		case lang.OpLt:
			k = CmpLt
		case lang.OpLe:
			k = CmpLe
		case lang.OpGt:
			k = CmpGt
		default:
			k = CmpGe
		}
		return CmpCond(a, k, b), true, nil
	}
	return Cond{}, false, fmt.Errorf("cannot lower %T as condition", e)
}

// lowerCondBranch emits branching code for "if (cond) thenB else elseB",
// desugaring short-circuit operators into nested Ifs. Blocks passed in are
// attached (and for && / || the *short* branch is duplicated structurally;
// MiniLang conditions are small, and the CFET enumerates these paths anyway).
func (lo *lowerer) lowerCondBranch(cond lang.Expr, thenB, elseB *Block, pos lang.Pos, out *Block) error {
	switch e := cond.(type) {
	case *lang.Binary:
		switch e.Op {
		case lang.OpAnd:
			// if (a && b) T else E  =>  if a { if b T else E } else E'
			inner := lo.openBlock()
			if err := lo.lowerCondBranch(e.R, thenB, elseB, pos, inner); err != nil {
				return err
			}
			lo.closeBlock(inner)
			return lo.lowerCondBranch(e.L, inner, cloneBlock(elseB), pos, out)
		case lang.OpOr:
			// if (a || b) T else E  =>  if a T else { if b T' else E }
			inner := lo.openBlock()
			if err := lo.lowerCondBranch(e.R, cloneBlock(thenB), elseB, pos, inner); err != nil {
				return err
			}
			lo.closeBlock(inner)
			return lo.lowerCondBranch(e.L, thenB, inner, pos, out)
		}
	case *lang.Unary:
		if e.Op == '!' {
			return lo.lowerCondBranch(e.X, elseB, thenB, pos, out)
		}
	}
	c, simple, err := lo.simpleCond(cond, out)
	if err != nil {
		return err
	}
	if !simple {
		return fmt.Errorf("%s: unsupported condition form", pos)
	}
	lo.emit(out, lo.ifs.New(If{Cond: c, Then: thenB, Else: elseB, Pos: pos}))
	return nil
}

// cloneBlock deep-copies a block so duplicated branches remain independent.
// Allocation and call sites inside keep their IDs: a duplicated site is the
// same source-level site reached along a different path.
func cloneBlock(b *Block) *Block {
	if b == nil {
		return &Block{}
	}
	out := &Block{Stmts: make([]Stmt, len(b.Stmts))}
	for i, s := range b.Stmts {
		out.Stmts[i] = cloneStmt(s)
	}
	return out
}

func cloneStmt(s Stmt) Stmt {
	switch s := s.(type) {
	case *If:
		return &If{Cond: s.Cond, Then: cloneBlock(s.Then), Else: cloneBlock(s.Else), Pos: s.Pos}
	case *TryRegion:
		return &TryRegion{Body: cloneBlock(s.Body), CatchVar: s.CatchVar,
			CatchType: s.CatchType, Catch: cloneBlock(s.Catch), Pos: s.Pos}
	case *Call:
		c := *s
		c.ObjArgs = append([]ArgPair(nil), s.ObjArgs...)
		c.IntArgs = append([]IntArg(nil), s.IntArgs...)
		return &c
	case *IntAssign:
		c := *s
		return &c
	case *BoolAssign:
		c := *s
		return &c
	case *ObjAssign:
		c := *s
		return &c
	case *NewObj:
		c := *s
		return &c
	case *Store:
		c := *s
		return &c
	case *Load:
		c := *s
		return &c
	case *Event:
		c := *s
		return &c
	case *Return:
		c := *s
		return &c
	case *ThrowExit:
		c := *s
		return &c
	case *CatchBind:
		c := *s
		return &c
	case *Raise:
		c := *s
		return &c
	}
	panic(fmt.Sprintf("cloneStmt: unknown %T", s))
}

// lowerCall lowers a call expression, classifying arguments into object and
// integer groups. dst receives the result ("" to ignore).
func (lo *lowerer) lowerCall(e *lang.CallExpr, dst varRef, out *Block) (*Call, error) {
	callee := lo.info.Funs[e.Name]
	c := &Call{
		Dst:         dst.name,
		DstSlot:     dst.slot,
		DstIsObject: dst.name != "" && lang.IsObjectType(callee.RetType),
		Callee:      e.Name,
		Site:        lo.callSite(e.Pos),
		Pos:         e.Pos,
	}
	for i, a := range e.Args {
		formal := callee.Params[i]
		formalSlot := int32(i + 1) // parameters take slots 1..n
		if lang.IsObjectType(formal.Type) {
			src, err := lo.lowerObjExpr(a, out)
			if err != nil {
				return nil, err
			}
			if src.name != "" {
				c.ObjArgs = append(c.ObjArgs, ArgPair{Arg: src.name, Formal: formal.Name})
			}
			continue
		}
		if formal.Type == "bool" {
			// Bool params are carried opaquely: flatten to an int temp with
			// unknown value; path constraints inside the callee treat the
			// formal as a free variable, which over-approximates feasibility.
			t := lo.temp("int")
			lo.emit(out, lo.ints.New(IntAssign{Dst: t.name, DstSlot: t.slot, Op: Opaque, Pos: lang.PosOf(a)}))
			c.IntArgs = append(c.IntArgs, IntArg{Arg: t.op(), Formal: formal.Name, FormalSlot: formalSlot})
			continue
		}
		op, err := lo.lowerIntExpr(a, out)
		if err != nil {
			return nil, err
		}
		c.IntArgs = append(c.IntArgs, IntArg{Arg: op, Formal: formal.Name, FormalSlot: formalSlot})
	}
	lo.emit(out, c)
	return c, nil
}
