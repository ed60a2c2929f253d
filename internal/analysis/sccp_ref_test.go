package analysis_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/grapple-system/grapple/internal/analysis"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/workload"
)

// The reference SCCP: the pass as it was before its environment became one
// slice-backed state per frontier block. Two maps per state, a clone at
// every block visit and every newly reached successor, and a first-in
// first-out worklist that revisits a block whenever its in-state weakens.
// It is the oracle TestSCCPMatchesMapEnv holds the production pass to.

type mapEnv struct {
	ints  map[string]int64
	bools map[string]bool
}

func newMapEnv() *mapEnv {
	return &mapEnv{ints: map[string]int64{}, bools: map[string]bool{}}
}

func (e *mapEnv) clone() *mapEnv {
	c := newMapEnv()
	for k, v := range e.ints {
		c.ints[k] = v
	}
	for k, v := range e.bools {
		c.bools[k] = v
	}
	return c
}

func (e *mapEnv) meet(other *mapEnv) bool {
	changed := false
	for k, v := range e.ints {
		if ov, ok := other.ints[k]; !ok || ov != v {
			delete(e.ints, k)
			changed = true
		}
	}
	for k, v := range e.bools {
		if ov, ok := other.bools[k]; !ok || ov != v {
			delete(e.bools, k)
			changed = true
		}
	}
	return changed
}

func sccpMapReference(cfg *ir.CFG) (verdicts map[*ir.If]int, exec []bool) {
	n := len(cfg.Blocks)
	verdicts, exec = map[*ir.If]int{}, make([]bool, n)
	in := make([]*mapEnv, n)
	in[0] = newMapEnv()
	exec[0] = true
	work := []int{0}
	inWork := make([]bool, n)
	inWork[0] = true
	for len(work) > 0 {
		bi := work[0]
		work = work[1:]
		inWork[bi] = false
		b := cfg.Blocks[bi]
		env := in[bi].clone()
		for _, s := range b.Stmts {
			mapTransfer(env, s)
		}
		succs := b.Succs
		if b.Branch != nil {
			if v, ok := mapEvalCond(env, b.Branch.Cond); ok {
				if v {
					verdicts[b.Branch] = 1
					succs = b.Succs[:1]
				} else {
					verdicts[b.Branch] = -1
					succs = b.Succs[1:]
				}
			} else {
				delete(verdicts, b.Branch)
			}
		}
		for _, si := range succs {
			changed := false
			if in[si] == nil {
				in[si] = env.clone()
				exec[si] = true
				changed = true
			} else if in[si].meet(env) {
				changed = true
			}
			if changed && !inWork[si] {
				work = append(work, si)
				inWork[si] = true
			}
		}
	}
	return verdicts, exec
}

func mapTransfer(env *mapEnv, s ir.Stmt) {
	switch s := s.(type) {
	case *ir.IntAssign:
		if v, ok := mapEvalArith(env, s); ok {
			env.ints[s.Dst] = v
		} else {
			delete(env.ints, s.Dst)
		}
	case *ir.BoolAssign:
		if v, ok := mapEvalCond(env, s.Cond); ok {
			env.bools[s.Dst] = v
		} else {
			delete(env.bools, s.Dst)
		}
	default:
		for _, d := range ir.Defs(s) {
			delete(env.ints, d)
			delete(env.bools, d)
		}
	}
}

func mapEvalOperand(env *mapEnv, o ir.Operand) (int64, bool) {
	if o.IsConst() {
		return o.Const, true
	}
	v, ok := env.ints[o.Var]
	return v, ok
}

func mapEvalArith(env *mapEnv, s *ir.IntAssign) (int64, bool) {
	if s.Op == ir.Opaque {
		return 0, false
	}
	a, ok := mapEvalOperand(env, s.A)
	if !ok {
		return 0, false
	}
	switch s.Op {
	case ir.Mov:
		return a, true
	case ir.Neg:
		return -a, true
	}
	b, ok := mapEvalOperand(env, s.B)
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

func mapEvalCond(env *mapEnv, c ir.Cond) (bool, bool) {
	var v bool
	switch {
	case c.IsOpaque():
		return false, false
	case c.BoolVar != "":
		bv, ok := env.bools[c.BoolVar]
		if !ok {
			return false, false
		}
		v = bv
	default:
		a, ok := mapEvalOperand(env, c.A)
		if !ok {
			return false, false
		}
		b, ok := mapEvalOperand(env, c.B)
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

// constProgram is a random MiniLang function body built to keep SCCP busy:
// int and bool variables set to constants, to input() or to arithmetic on
// each other, branches and loops on comparisons of them, and joins where
// the arms agree on some constants and not on others.
func constProgram(rng *rand.Rand) string {
	var b strings.Builder
	ints, bools := []string{"a", "b", "c"}, []string{"p", "q"}
	b.WriteString("fun main() {\n")
	for _, v := range ints {
		fmt.Fprintf(&b, "var %s: int = %d;\n", v, rng.Intn(3))
	}
	for _, v := range bools {
		fmt.Fprintf(&b, "var %s: bool = %s < %d;\n", v, ints[rng.Intn(len(ints))], rng.Intn(3))
	}
	intExpr := func() string {
		x := ints[rng.Intn(len(ints))]
		switch rng.Intn(5) {
		case 0:
			return fmt.Sprint(rng.Intn(3))
		case 1:
			return "input()"
		case 2:
			return fmt.Sprintf("%s + %d", x, rng.Intn(2))
		case 3:
			return fmt.Sprintf("%s * %s", x, ints[rng.Intn(len(ints))])
		}
		return "-" + x
	}
	cond := func() string {
		if rng.Intn(4) == 0 {
			return bools[rng.Intn(len(bools))]
		}
		ops := []string{"==", "!=", "<", "<=", ">", ">="}
		return fmt.Sprintf("%s %s %d", ints[rng.Intn(len(ints))], ops[rng.Intn(len(ops))], rng.Intn(3))
	}
	var stmts func(depth int)
	stmts = func(depth int) {
		for n := 1 + rng.Intn(4); n > 0; n-- {
			switch k := rng.Intn(6); {
			case k < 2:
				fmt.Fprintf(&b, "%s = %s;\n", ints[rng.Intn(len(ints))], intExpr())
			case k == 2:
				fmt.Fprintf(&b, "%s = %s;\n", bools[rng.Intn(len(bools))], cond())
			case depth < 3 && k == 3:
				fmt.Fprintf(&b, "while (%s) {\n", cond())
				stmts(depth + 1)
				b.WriteString("}\n")
			case depth < 3:
				fmt.Fprintf(&b, "if (%s) {\n", cond())
				stmts(depth + 1)
				if rng.Intn(2) == 0 {
					b.WriteString("} else {\n")
					stmts(depth + 1)
				}
				b.WriteString("}\n")
			}
		}
	}
	stmts(0)
	b.WriteString("}\n")
	return b.String()
}

// TestSCCPMatchesMapEnv: on the four paper subjects, on wide-sim and on 300
// random constant-heavy functions, every function's SCCP facts — each If's
// verdict and each block's executability — are exactly what the
// map-environment reference computes on the same CFG.
func TestSCCPMatchesMapEnv(t *testing.T) {
	type subject struct{ name, src string }
	var subjects []subject
	for _, prof := range append(workload.Profiles(), workload.WideProfile(10, 10)) {
		subjects = append(subjects, subject{prof.Name, workload.Generate(prof).Source})
	}
	rng := rand.New(rand.NewSource(36))
	for i := 0; i < 300; i++ {
		subjects = append(subjects, subject{fmt.Sprintf("random-%d", i), constProgram(rng)})
	}
	decided, dead := 0, 0
	for _, sub := range subjects {
		prog, err := lang.Parse(sub.src)
		if err != nil {
			t.Fatalf("%s: %v\n%s", sub.name, err, sub.src)
		}
		info, err := lang.Resolve(prog)
		if err != nil {
			t.Fatalf("%s: %v\n%s", sub.name, err, sub.src)
		}
		p, err := ir.Lower(info, ir.Options{UnrollDepth: 2})
		if err != nil {
			t.Fatalf("%s: %v", sub.name, err)
		}
		res, err := analysis.Run(p, analysis.PruneAnalyzers())
		if err != nil {
			t.Fatalf("%s: %v", sub.name, err)
		}
		for _, fn := range p.Funs {
			sf := res.FactsOf(analysis.SCCP)[fn].(*analysis.SCCPFacts)
			want, wantExec := sccpMapReference(ir.BuildCFG(fn))
			if len(sf.Verdicts) != len(want) {
				t.Errorf("%s: %s: %d verdicts, reference %d", sub.name, fn.Name, len(sf.Verdicts), len(want))
			}
			for s, v := range want {
				if got, ok := sf.Verdicts[s]; !ok || got != v {
					t.Errorf("%s: %s: if at %s: verdict %d, reference %d", sub.name, fn.Name, s.Pos, got, v)
				}
			}
			if len(sf.Exec) != len(wantExec) {
				t.Fatalf("%s: %s: %d blocks, reference %d", sub.name, fn.Name, len(sf.Exec), len(wantExec))
			}
			for b, x := range wantExec {
				if sf.Exec[b] != x {
					t.Errorf("%s: %s: block %d executable %v, reference %v", sub.name, fn.Name, b, sf.Exec[b], x)
				}
				if !x {
					dead++
				}
			}
			decided += len(want)
		}
	}
	t.Logf("%d subjects: %d verdicts, %d dead blocks", len(subjects), decided, dead)
	if decided < 500 || dead < 500 {
		t.Errorf("%d verdicts and %d dead blocks: the corpus no longer exercises the pass", decided, dead)
	}
}
