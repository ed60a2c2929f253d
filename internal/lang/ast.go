package lang

// Program is a parsed MiniLang compilation unit.
type Program struct {
	Types []*TypeDecl
	Funs  []*FunDecl
	// Parts cuts Funs into the contiguous runs ParseParallel parsed apart:
	// part i starts at Funs[Parts[i]] and ends where the next one starts.
	// Nil when the unit was parsed as one part. ResolveParallel and
	// ir.LowerKept hand out the same parts to their goroutines.
	Parts []int
}

// TypeDecl declares an object type of interest, e.g. "type FileWriter;".
// Object types may also be used without declaration; declarations exist so
// checkers can enumerate the types a source file mentions.
type TypeDecl struct {
	Name string
	Pos  Pos
}

// FunDecl is a function declaration.
type FunDecl struct {
	Name    string
	Params  []Param
	RetType string // "" for none, "int", "bool", or an object type
	Body    []Stmt
	Pos     Pos
	// VarTypes[s-1] is the declared type of the variable in slot s. Resolve
	// numbers a function's variables once: the parameters take slots 1..n
	// in order, then each local (and catch variable) the next slot in
	// declaration order. Slot 0 is no variable.
	VarTypes []string

	// Objects, Throws and Calls are what Resolve learns of the function
	// for the pre-slice (ir.PreKeep, docs/slicing.md "Step 0"). Objects:
	// it handles an object — a parameter, local or return type that is
	// neither int nor bool, a new, null, field access, event call, throw,
	// try or spawn, or a call to a function whose signature names an
	// object type. Throws: its body holds a throw.
	Objects, Throws bool
	// Calls lists the calls lowering emits, one per call expression in
	// the order Resolve meets them: every call but those inside an event
	// call's arguments, an argument bound to a bool parameter, or an
	// operand of a comparison lowering decides opaquely (see
	// resolver.opaqueCmp), whose operands it never lowers.
	Calls []Call
}

// Call is one call a function's lowering emits: the callee, whether the
// caller uses its result (every call but a bare call statement), and
// whether it is live. A call that follows a return or throw of the
// function, or sits in a catch block, is not: exception expansion may drop
// it as unreachable, so the callee may be uncalled in the expanded IR.
type Call struct {
	Fun        *FunDecl
	Used, Live bool
}

// VarType returns the declared type of the variable in slot s.
func (f *FunDecl) VarType(s int32) string { return f.VarTypes[s-1] }

// Param is a formal parameter.
type Param struct {
	Name string
	Type string
}

// Stmt is a MiniLang statement.
type Stmt interface{ stmtPos() Pos }

// VarDecl declares (and optionally initializes) a local variable.
type VarDecl struct {
	Name string
	Type string
	Init Expr // may be nil
	Pos  Pos
	Slot int32 // the variable's slot, set by Resolve
}

// AssignStmt assigns RHS to LHS; LHS is an *Ident or a *FieldAccess.
type AssignStmt struct {
	LHS Expr
	RHS Expr
	Pos Pos
}

// ExprStmt evaluates an expression for effect (a call or method call).
type ExprStmt struct {
	X   Expr
	Pos Pos
}

// SpawnStmt runs a function call on a new concurrent task ("spawn f(x);",
// the MiniLang rendering of a Go `go` statement). The call's result, if
// any, is discarded; the callee body runs, in an unknown interleaving,
// after the statement.
type SpawnStmt struct {
	Call *CallExpr
	Pos  Pos
}

// IfStmt is a two-way branch; Else may be empty.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Pos  Pos
}

// WhileStmt is a loop; Grapple statically unrolls it (paper §3.1).
type WhileStmt struct {
	Cond Expr
	Body []Stmt
	Pos  Pos
}

// ReturnStmt returns from the enclosing function.
type ReturnStmt struct {
	X   Expr // may be nil
	Pos Pos
}

// ThrowStmt raises an exception object.
type ThrowStmt struct {
	X   Expr
	Pos Pos
}

// TryStmt guards Try with a handler. A catch with type "" handles any type.
type TryStmt struct {
	Try       []Stmt
	CatchVar  string
	CatchType string
	Catch     []Stmt
	Pos       Pos
}

func (s *VarDecl) stmtPos() Pos    { return s.Pos }
func (s *AssignStmt) stmtPos() Pos { return s.Pos }
func (s *ExprStmt) stmtPos() Pos   { return s.Pos }
func (s *SpawnStmt) stmtPos() Pos  { return s.Pos }
func (s *IfStmt) stmtPos() Pos     { return s.Pos }
func (s *WhileStmt) stmtPos() Pos  { return s.Pos }
func (s *ReturnStmt) stmtPos() Pos { return s.Pos }
func (s *ThrowStmt) stmtPos() Pos  { return s.Pos }
func (s *TryStmt) stmtPos() Pos    { return s.Pos }

// Expr is a MiniLang expression.
type Expr interface{ exprPos() Pos }

// IntLit is an integer literal.
type IntLit struct {
	Value int64
	Pos   Pos
}

// BoolLit is true or false.
type BoolLit struct {
	Value bool
	Pos   Pos
}

// NullLit is the null object reference.
type NullLit struct{ Pos Pos }

// Ident references a variable.
type Ident struct {
	Name string
	Pos  Pos
	Slot int32 // the slot of the variable it names, set by Resolve
}

// FieldAccess is a depth-one field read or (as an assignment target) write.
type FieldAccess struct {
	Recv  *Ident
	Field string
	Pos   Pos
}

// NewExpr allocates an object of an object type: "new FileWriter()".
type NewExpr struct {
	Type string
	Pos  Pos
}

// CallExpr invokes a declared function.
type CallExpr struct {
	Name string
	Args []Expr
	Pos  Pos
}

// MethodCall invokes a method on an object-typed variable. Calls on objects
// are the FSM events Grapple tracks (open, close, lock, ...).
type MethodCall struct {
	Recv   *Ident
	Method string
	Args   []Expr
	Pos    Pos
}

// InputExpr is an opaque integer input (environment, CLI, network, ...).
type InputExpr struct{ Pos Pos }

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binOpNames = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpEq: "==", OpNe: "!=",
	OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=", OpAnd: "&&", OpOr: "||",
}

func (o BinOp) String() string { return binOpNames[o] }

// IsComparison reports whether o yields a boolean from two ints.
func (o BinOp) IsComparison() bool { return o >= OpEq && o <= OpGe }

// Binary applies Op to L and R.
type Binary struct {
	Op   BinOp
	L, R Expr
	Pos  Pos
	// Opaque is set by Resolve on a comparison that lowering decides by an
	// opaque condition without lowering either operand: one with an object
	// operand on either side, or a bool one on the left.
	Opaque bool
}

// Unary is !x or -x.
type Unary struct {
	Op  byte // '!' or '-'
	X   Expr
	Pos Pos
}

func (e *IntLit) exprPos() Pos      { return e.Pos }
func (e *BoolLit) exprPos() Pos     { return e.Pos }
func (e *NullLit) exprPos() Pos     { return e.Pos }
func (e *Ident) exprPos() Pos       { return e.Pos }
func (e *FieldAccess) exprPos() Pos { return e.Pos }
func (e *NewExpr) exprPos() Pos     { return e.Pos }
func (e *CallExpr) exprPos() Pos    { return e.Pos }
func (e *MethodCall) exprPos() Pos  { return e.Pos }
func (e *InputExpr) exprPos() Pos   { return e.Pos }
func (e *Binary) exprPos() Pos      { return e.Pos }
func (e *Unary) exprPos() Pos       { return e.Pos }

// PosOf returns the source position of an expression.
func PosOf(e Expr) Pos { return e.exprPos() }

// PosOfStmt returns the source position of a statement.
func PosOfStmt(s Stmt) Pos { return s.stmtPos() }

// IsObjectType reports whether a type name denotes an object type.
func IsObjectType(name string) bool {
	return name != "" && name != "int" && name != "bool"
}
