package analysis

import (
	"github.com/grapple-system/grapple/internal/ir"
)

// SCCPFacts is the sparse-conditional-constant-propagation result for one
// function.
type SCCPFacts struct {
	// Verdicts maps each If whose condition is statically decided on every
	// executable path reaching it: +1 the condition always holds, -1 it never
	// holds. Ifs with unknown or path-dependent conditions are absent (nil
	// when the function decides none).
	Verdicts map[*ir.If]int
	// Exec[b] reports whether CFG block b is reachable once decided branches
	// are respected (entry is always executable).
	Exec []bool
}

// SCCP runs conditional constant propagation over integer and boolean
// temporaries, tracking edge executability in the classic Wegman–Zadeck
// style: constants found along only-executable paths decide branches, and
// decided branches in turn keep unreachable arms from polluting joins.
//
// The pass reports nothing itself; Unreachable turns its verdicts into
// diagnostics and the checker uses them to skip infeasible CFET subtrees.
var SCCP = &Analyzer{
	Name: "sccp",
	Doc:  "conditional constant propagation; proves branch conditions constant",
	Run:  runSCCP,
}

// constEnv holds what is proven constant at a program point, one slot per
// variable of the function, indexed by the slot lowering put on every
// operand, destination and boolean condition (ir.Func.NumVars). A clear
// flag means "not a constant" — the analysis is must-constant, so flags
// only ever clear as facts weaken. Ints and bools are separate facts, as
// they are separate namespaces in the IR.
type constEnv []constSlot

type constSlot struct {
	i          int64
	hasI, hasB bool
	b          bool
}

// meet intersects other into e (agreeing constants survive).
func (e constEnv) meet(other constEnv) {
	for k := range e {
		s, o := &e[k], &other[k]
		if s.hasI && (!o.hasI || o.i != s.i) {
			s.hasI = false
		}
		if s.hasB && (!o.hasB || o.b != s.b) {
			s.hasB = false
		}
	}
}

func runSCCP(p *Pass) (any, error) {
	cfg := p.CFG
	n := len(cfg.Blocks)
	facts := &SCCPFacts{Exec: make([]bool, n)}
	slots := p.Fn.NumVars + 1

	// The CFG is acyclic, so one sweep in reverse postorder meets every
	// executable predecessor into a block before the block is processed:
	// each block is processed once, on its final in-state, which is the
	// fixpoint a worklist would reach. A block's in-state exists from the
	// moment a predecessor first reaches it until it is processed, when it
	// becomes the working state; after the successors have met it, it is
	// recycled. So a function holds only as many states as its widest
	// frontier, and entering a successor is a single copy.
	in := make([]constEnv, n)
	var free []constEnv
	state := func() constEnv {
		if k := len(free); k > 0 {
			s := free[k-1]
			free = free[:k-1]
			return s
		}
		return make(constEnv, slots)
	}
	in[0] = state() // nothing is constant at entry
	facts.Exec[0] = true
	for _, bi := range cfg.RPO() {
		if !facts.Exec[bi] {
			continue
		}
		env := in[bi]
		in[bi] = nil
		b := cfg.Blocks[bi]
		for _, s := range b.Stmts {
			transferConst(env, s)
		}

		succs := b.Succs
		if b.Branch != nil {
			if v, ok := evalCond(env, b.Branch.Cond); ok {
				// Succs is [then, else]; a decided condition makes only one
				// executable.
				if facts.Verdicts == nil {
					facts.Verdicts = map[*ir.If]int{}
				}
				if v {
					facts.Verdicts[b.Branch] = 1
					succs = b.Succs[:1]
				} else {
					facts.Verdicts[b.Branch] = -1
					succs = b.Succs[1:]
				}
			}
		}
		for _, si := range succs {
			if facts.Exec[si] {
				in[si].meet(env)
				continue
			}
			s := state()
			copy(s, env)
			in[si] = s
			facts.Exec[si] = true
		}
		free = append(free, env)
	}
	return facts, nil
}

// transferConst updates the constant environment across one statement.
// Anything not provably constant (opaque reads, call results, event results)
// kills its destination.
func transferConst(env constEnv, s ir.Stmt) {
	switch s := s.(type) {
	case *ir.IntAssign:
		slot := &env[s.DstSlot]
		slot.i, slot.hasI = evalArith(env, s)
	case *ir.BoolAssign:
		slot := &env[s.DstSlot]
		slot.b, slot.hasB = evalCond(env, s.Cond)
	case *ir.Call:
		// A call's or an event's result is an unknown value. Object
		// statements (Load, CatchBind, ...) write object variables, which
		// never hold a constant.
		env[s.DstSlot] = constSlot{}
	case *ir.Event:
		env[s.DstSlot] = constSlot{}
	}
}

func evalOperand(env constEnv, o ir.Operand) (int64, bool) {
	if o.IsConst() {
		return o.Const, true
	}
	return env[o.Slot].i, env[o.Slot].hasI
}

func evalArith(env constEnv, s *ir.IntAssign) (int64, bool) {
	if s.Op == ir.Opaque {
		return 0, false
	}
	a, ok := evalOperand(env, s.A)
	if !ok {
		return 0, false
	}
	switch s.Op {
	case ir.Mov:
		return a, true
	case ir.Neg:
		return -a, true
	}
	b, ok := evalOperand(env, s.B)
	if !ok {
		return 0, false
	}
	switch s.Op {
	case ir.Add:
		return a + b, true
	case ir.Sub:
		return a - b, true
	case ir.Mul:
		return a * b, true
	}
	return 0, false
}

// evalCond decides a branch condition under the constant environment.
func evalCond(env constEnv, c ir.Cond) (bool, bool) {
	var v bool
	switch {
	case c.IsOpaque():
		return false, false
	case c.BoolVar != "":
		if !env[c.BoolSlot].hasB {
			return false, false
		}
		v = env[c.BoolSlot].b
	default:
		a, ok := evalOperand(env, c.A)
		if !ok {
			return false, false
		}
		b, ok := evalOperand(env, c.B)
		if !ok {
			return false, false
		}
		switch c.Kind {
		case ir.CmpEq:
			v = a == b
		case ir.CmpNe:
			v = a != b
		case ir.CmpLt:
			v = a < b
		case ir.CmpLe:
			v = a <= b
		case ir.CmpGt:
			v = a > b
		case ir.CmpGe:
			v = a >= b
		}
	}
	if c.Negated {
		v = !v
	}
	return v, true
}
