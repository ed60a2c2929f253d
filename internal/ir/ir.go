// Package ir defines Grapple's structured intermediate representation and
// the lowering from MiniLang ASTs into it.
//
// Lowering performs the normalizations the CFET builder (paper §3) relies
// on: short-circuit boolean operators become nested branches, loops are
// statically unrolled into cycle-free nests of conditionals (§3.1 "we bound
// the number of loop iterations"), nested integer expressions are flattened
// into three-address temporaries, and exceptional control flow is expanded
// into explicit branches on opaque "did it throw" conditions (mirroring the
// paper's reasoning about Fig. 8a, where sockConnect "may or may not throw").
package ir

import (
	"fmt"

	"github.com/grapple-system/grapple/internal/lang"
)

// Program is a lowered MiniLang program.
type Program struct {
	Funs      []*Func
	FunByName map[string]*Func
	// ObjectTypes is the set of object type names in the program.
	ObjectTypes map[string]bool
	// NumAllocSites and NumCallSites size ID spaces.
	NumAllocSites int
	NumCallSites  int
	// AllocSitePos and AllocSiteType index allocation sites.
	AllocSitePos  []lang.Pos
	AllocSiteType []string
	// CallSitePos indexes call sites.
	CallSitePos []lang.Pos
}

// Func is a lowered function.
type Func struct {
	Name    string
	Params  []lang.Param
	RetType string
	Body    *Block
	// MayThrow is true when the function can exit exceptionally (computed
	// transitively by ExpandExceptions).
	MayThrow bool
	// ThrowsLocally is true when the body contains a throw outside any try.
	ThrowsLocally bool
	Pos           lang.Pos
	// NumVars is how many variable slots the function numbers, 1..NumVars:
	// the resolver's (parameters 1..n in order, then locals in declaration
	// order), then lowering's temporaries, then ExcVar in slot NumVars.
	// Every Operand, scalar destination and Cond.BoolVar carries its
	// variable's slot beside the name, so a pass that keeps per-variable
	// state indexes an array of NumVars+1 instead of hashing the name.
	NumVars int
	// Stub marks a function whose body was not lowered (LowerKept): the
	// body holds only its calls, and it neither handles an object nor
	// throws.
	Stub bool
}

// ExcVar is the implicit per-function variable carrying an uncaught
// exception object out of a function (the "$exc" out-parameter).
const ExcVar = "$exc"

// Block is a sequence of statements.
type Block struct {
	Stmts []Stmt
}

// Stmt is an IR statement.
type Stmt interface{ irStmt() }

// Operand is a variable (its name and slot) or an integer constant.
type Operand struct {
	Var   string // "" when constant
	Slot  int32  // Var's slot in Func's numbering; 0 when constant
	Const int64
}

// IsConst reports whether the operand is a literal.
func (o Operand) IsConst() bool { return o.Var == "" }

// VarOp returns an operand for the variable name in slot.
func VarOp(name string, slot int32) Operand { return Operand{Var: name, Slot: slot} }

// ConstOp returns a constant operand.
func ConstOp(c int64) Operand { return Operand{Const: c} }

func (o Operand) String() string {
	if o.IsConst() {
		return fmt.Sprintf("%d", o.Const)
	}
	return o.Var
}

// ArithOp is an integer operation.
type ArithOp byte

// Arithmetic operations for IntAssign.
const (
	Mov    ArithOp = iota // Dst = A
	Add                   // Dst = A + B
	Sub                   // Dst = A - B
	Mul                   // Dst = A * B
	Neg                   // Dst = -A
	Opaque                // Dst = unknown (input(), event result)
)

// IntAssign assigns an integer computation to a variable.
type IntAssign struct {
	Dst     string
	DstSlot int32
	Op      ArithOp
	A       Operand
	B       Operand
	Pos     lang.Pos
}

// CmpKind is a comparison operator for conditions.
type CmpKind byte

// Comparison kinds.
const (
	CmpEq CmpKind = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

var cmpNames = [...]string{CmpEq: "==", CmpNe: "!=", CmpLt: "<", CmpLe: "<=", CmpGt: ">", CmpGe: ">="}

func (k CmpKind) String() string { return cmpNames[k] }

// Negate returns the complementary comparison.
func (k CmpKind) Negate() CmpKind {
	switch k {
	case CmpEq:
		return CmpNe
	case CmpNe:
		return CmpEq
	case CmpLt:
		return CmpGe
	case CmpLe:
		return CmpGt
	case CmpGt:
		return CmpLe
	default:
		return CmpLt
	}
}

// Cond is a branch condition in one of three forms:
//   - comparison of two integer operands (Kind over A, B),
//   - a boolean variable test (BoolVar != "", in slot BoolSlot): holds iff
//     the variable is true,
//   - an opaque condition (OpaqueID >= 0): statically unknown (null checks,
//     "did the call throw"), solver-wise a free 0/1 symbol.
//
// Negated complements the whole condition.
type Cond struct {
	A, B     Operand
	Kind     CmpKind
	BoolVar  string
	BoolSlot int32
	OpaqueID int32
	Negated  bool
}

// CmpCond builds a comparison condition.
func CmpCond(a Operand, k CmpKind, b Operand) Cond {
	return Cond{A: a, B: b, Kind: k, OpaqueID: -1}
}

// BoolCond builds a condition on the boolean variable v in slot.
func BoolCond(v string, slot int32) Cond { return Cond{BoolVar: v, BoolSlot: slot, OpaqueID: -1} }

// OpaqueCond builds an opaque condition with a stable per-site ID.
func OpaqueCond(id int32) Cond { return Cond{OpaqueID: id} }

// Negate returns the complement of c.
func (c Cond) Negate() Cond {
	c.Negated = !c.Negated
	return c
}

// IsOpaque reports whether c is an opaque condition.
func (c Cond) IsOpaque() bool { return c.OpaqueID >= 0 }

func (c Cond) String() string {
	var s string
	switch {
	case c.BoolVar != "":
		s = c.BoolVar
	case c.IsOpaque():
		s = fmt.Sprintf("opq%d", c.OpaqueID)
	default:
		s = fmt.Sprintf("%s %s %s", c.A, c.Kind, c.B)
	}
	if c.Negated {
		return "!(" + s + ")"
	}
	return s
}

// BoolAssign assigns a condition value to a boolean variable.
type BoolAssign struct {
	Dst     string
	DstSlot int32
	Cond    Cond
	Pos     lang.Pos
}

// ObjAssign copies an object reference: Dst = Src (Fig. 4 "assignment").
// A Src of "" assigns null (clears the reference; no graph edge).
type ObjAssign struct {
	Dst string
	Src string
	Pos lang.Pos
}

// NewObj allocates an object: Dst = new Type() (Fig. 4 "object initialization").
type NewObj struct {
	Dst  string
	Type string
	Site int32 // global allocation-site ID
	Pos  lang.Pos
}

// Store writes a field: Recv.Field = Src (Fig. 4 "field store").
type Store struct {
	Recv  string
	Field string
	Src   string
	Pos   lang.Pos
}

// Load reads a field: Dst = Recv.Field (Fig. 4 "field load").
type Load struct {
	Dst   string
	Recv  string
	Field string
	Pos   lang.Pos
}

// Call invokes a declared function. Dst is "" for void/ignored results;
// DstIsObject tells whether Dst receives an object reference.
type Call struct {
	Dst         string
	DstSlot     int32
	DstIsObject bool
	Callee      string
	// ObjArgs pairs each object-typed argument variable with the callee's
	// formal parameter name. IntArgs pairs integer argument operands
	// (already flattened) with formal names.
	ObjArgs []ArgPair
	IntArgs []IntArg
	// Site is the global call-site ID. It is not an ICFET call-edge ID:
	// cfet.Build makes one call edge per node that executes the call, so
	// a site reached along several tree paths has several edges.
	Site int32
	// Spawn marks the call as starting a concurrent task ("spawn f(x);",
	// a lowered `go` statement). The downstream pipeline treats spawn
	// calls exactly like ordinary calls — the over-approximation "callee
	// body runs here" covers every interleaving of a flow-insensitive
	// abstraction — while the MHP pass reads the flag to compute the
	// may-happen-in-parallel relation.
	Spawn bool
	Pos   lang.Pos
}

// ArgPair binds an object argument to a formal parameter.
type ArgPair struct {
	Arg    string // caller variable
	Formal string // callee parameter name
}

// IntArg binds an integer argument operand to a formal parameter.
type IntArg struct {
	Arg    Operand
	Formal string
	// FormalSlot is the formal's slot in the callee: parameter i is in
	// slot i+1.
	FormalSlot int32
}

// Event is a method call on an object-typed variable: Recv.Method(). Events
// are what FSMs transition on. If Dst != "" the (integer) result is bound
// opaquely.
type Event struct {
	Recv    string
	Method  string
	Dst     string
	DstSlot int32
	Pos     lang.Pos
}

// Return exits the function normally. Src is the returned operand/variable
// ("" none); SrcIsObject tells whether an object flows out.
type Return struct {
	Src         Operand
	SrcIsObject bool
	Pos         lang.Pos
}

// ThrowExit exits the function exceptionally. Lowering has already copied
// the thrown object into ExcVar.
type ThrowExit struct {
	Pos lang.Pos
}

// CatchBind marks a handler entry binding the in-flight exception object to
// a local variable. FromCall is the call site whose callee threw, or -1 when
// the throw was local (lowering then also emits an ObjAssign for the local
// object).
type CatchBind struct {
	Var      string
	Type     string
	FromCall int32
	Pos      lang.Pos
}

// If branches on Cond.
type If struct {
	Cond Cond
	Then *Block
	Else *Block
	Pos  lang.Pos
}

func (*IntAssign) irStmt()  {}
func (*BoolAssign) irStmt() {}
func (*ObjAssign) irStmt()  {}
func (*NewObj) irStmt()     {}
func (*Store) irStmt()      {}
func (*Load) irStmt()       {}
func (*Call) irStmt()       {}
func (*Event) irStmt()      {}
func (*Return) irStmt()     {}
func (*ThrowExit) irStmt()  {}
func (*CatchBind) irStmt()  {}
func (*If) irStmt()         {}
