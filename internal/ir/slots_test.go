package ir_test

import (
	"testing"

	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/workload"
)

// TestLowerNumbersEveryVariable holds the variable numbering to its
// contract on the four paper subjects and wide-sim: every variable operand,
// scalar destination and boolean condition of the expanded IR carries a
// slot in 1..NumVars-1 (NumVars is ExcVar's), one name has one slot and one
// slot one name in a function, parameters hold slots 1..n in order, and a
// call's integer argument names the callee's formal in its FormalSlot.
func TestLowerNumbersEveryVariable(t *testing.T) {
	subjects := map[string]string{"wide-sim-10x10": workload.Generate(workload.WideProfile(10, 10)).Source}
	for _, prof := range workload.Profiles() {
		subjects[prof.Name] = workload.Generate(prof).Source
	}
	for name, src := range subjects {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		info, err := lang.Resolve(prog)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ir.Lower(info, ir.Options{UnrollDepth: 2})
		if err != nil {
			t.Fatal(err)
		}
		vars := 0
		for _, fn := range p.Funs {
			c := &slotChecker{t: t, where: name + "/" + fn.Name, fn: fn, prog: p,
				slotOf: map[string]int32{}, nameOf: map[int32]string{}}
			for i, prm := range fn.Params {
				c.bind(prm.Name, int32(i+1))
			}
			c.block(fn.Body)
			vars += len(c.slotOf)
		}
		if vars == 0 {
			t.Fatalf("%s: no numbered variable read or written", name)
		}
	}
}

type slotChecker struct {
	t      *testing.T
	where  string
	fn     *ir.Func
	prog   *ir.Program
	slotOf map[string]int32
	nameOf map[int32]string
}

func (c *slotChecker) bind(name string, slot int32) {
	c.t.Helper()
	if slot < 1 || int(slot) >= c.fn.NumVars {
		c.t.Fatalf("%s: %s in slot %d, outside 1..%d", c.where, name, slot, c.fn.NumVars-1)
	}
	if s, ok := c.slotOf[name]; ok && s != slot {
		c.t.Fatalf("%s: %s in slots %d and %d", c.where, name, s, slot)
	}
	if n, ok := c.nameOf[slot]; ok && n != name {
		c.t.Fatalf("%s: slot %d holds %s and %s", c.where, slot, n, name)
	}
	c.slotOf[name], c.nameOf[slot] = slot, name
}

func (c *slotChecker) operand(o ir.Operand) {
	if !o.IsConst() {
		c.bind(o.Var, o.Slot)
	}
}

func (c *slotChecker) cond(k ir.Cond) {
	c.operand(k.A)
	c.operand(k.B)
	if k.BoolVar != "" {
		c.bind(k.BoolVar, k.BoolSlot)
	}
}

func (c *slotChecker) block(b *ir.Block) {
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *ir.IntAssign:
			c.bind(s.Dst, s.DstSlot)
			c.operand(s.A)
			c.operand(s.B)
		case *ir.BoolAssign:
			c.bind(s.Dst, s.DstSlot)
			c.cond(s.Cond)
		case *ir.Event:
			if s.Dst != "" {
				c.bind(s.Dst, s.DstSlot)
			}
		case *ir.Call:
			if s.Dst != "" {
				c.bind(s.Dst, s.DstSlot)
			}
			callee := c.prog.FunByName[s.Callee]
			for _, a := range s.IntArgs {
				c.operand(a.Arg)
				if callee.Params[a.FormalSlot-1].Name != a.Formal {
					c.t.Fatalf("%s: argument for %s.%s has formal slot %d", c.where, s.Callee, a.Formal, a.FormalSlot)
				}
			}
		case *ir.Return:
			c.operand(s.Src)
		case *ir.If:
			c.cond(s.Cond)
			c.block(s.Then)
			c.block(s.Else)
		}
	}
}
