package ir

import "github.com/grapple-system/grapple/internal/lang"

// This file exports the small control-flow-graph and def/use views of the
// structured IR that classical dataflow analyses (internal/analysis) need.
// Lowering has already unrolled loops and expanded exceptions, so a
// function's CFG is a DAG: blocks end either at a branch (two successors),
// at a Return/ThrowExit (no successors), or fall through to the block after
// an enclosing If (one successor, shared with the sibling branch — the join
// point).

// CFGBlock is one basic block of a function's CFG.
type CFGBlock struct {
	Index int
	// Stmts are the straight-line statements of the block. When the block
	// ends in a branch, Branch is that If (its Then/Else bodies live in the
	// successor blocks, not here); Stmts excludes it.
	Stmts  []Stmt
	Branch *If
	// Succs lists successor block indices: [then, else] under Branch, at
	// most one otherwise (none for exit blocks).
	Succs []int
	// Preds is the reverse of Succs, in ascending order.
	Preds []int
}

// CFG is the control-flow graph of one lowered function. Entry is always
// block 0; the graph is acyclic (loops were statically unrolled).
type CFG struct {
	Fn     *Func
	Blocks []*CFGBlock
}

// BuildCFG linearizes a lowered function's structured body into a CFG.
// Blocks, their statement lists and their edge lists are cut from arrays
// sized by one count of the body, so a CFG costs a handful of allocations
// whatever its size.
func BuildCFG(fn *Func) *CFG {
	blocks, stmts := countBlocks(fn.Body.Stmts, false)
	b := &cfgBuilder{
		cfg:    &CFG{Fn: fn, Blocks: make([]*CFGBlock, 0, blocks)},
		blocks: make([]CFGBlock, 0, blocks),
		stmts:  make([]Stmt, 0, stmts),
		// At most two successors a block, as many predecessors, and one
		// in-degree count each.
		ints: make([]int, 0, 5*blocks),
	}
	entry := b.seq(fn.Body.Stmts, -1)
	// Entry must be block 0 for analyses; swap if the builder placed it
	// elsewhere (it builds continuations first).
	if entry != 0 {
		b.cfg.Blocks[0], b.cfg.Blocks[entry] = b.cfg.Blocks[entry], b.cfg.Blocks[0]
		for _, blk := range b.cfg.Blocks {
			for i, s := range blk.Succs {
				switch s {
				case 0:
					blk.Succs[i] = entry
				case entry:
					blk.Succs[i] = 0
				}
			}
		}
		b.cfg.Blocks[0].Index = 0
		b.cfg.Blocks[entry].Index = entry
	}
	indeg := b.cut(len(b.cfg.Blocks))
	for _, blk := range b.cfg.Blocks {
		for _, s := range blk.Succs {
			indeg[s]++
		}
	}
	for i, blk := range b.cfg.Blocks {
		blk.Preds = b.cut(indeg[i])[:0]
	}
	for _, blk := range b.cfg.Blocks {
		for _, s := range blk.Succs {
			b.cfg.Blocks[s].Preds = append(b.cfg.Blocks[s].Preds, blk.Index)
		}
	}
	return b.cfg
}

// countBlocks counts the blocks and block statements seq makes of stmts,
// following seq's recursion; hasNext is seq's next >= 0.
func countBlocks(stmts []Stmt, hasNext bool) (blocks, placed int) {
	for i, s := range stmts {
		switch s := s.(type) {
		case *If:
			if i+1 < len(stmts) {
				blocks, placed = countBlocks(stmts[i+1:], hasNext)
				hasNext = true
			}
			tb, tp := countBlocks(s.Then.Stmts, hasNext)
			eb, ep := countBlocks(s.Else.Stmts, hasNext)
			return blocks + tb + eb + 1, placed + tp + ep + i
		case *Return, *ThrowExit:
			return 1, i + 1
		}
	}
	if len(stmts) == 0 && hasNext {
		return 0, 0
	}
	return 1, len(stmts)
}

// cfgBuilder cuts blocks and lists from arrays BuildCFG sized up front.
type cfgBuilder struct {
	cfg    *CFG
	blocks []CFGBlock
	stmts  []Stmt
	ints   []int
}

func (b *cfgBuilder) newBlock() *CFGBlock {
	b.blocks = append(b.blocks, CFGBlock{Index: len(b.cfg.Blocks)})
	blk := &b.blocks[len(b.blocks)-1]
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// cut returns n zeroed ints, or nil for n == 0.
func (b *cfgBuilder) cut(n int) []int {
	if n == 0 {
		return nil
	}
	if n > cap(b.ints)-len(b.ints) {
		b.ints = make([]int, 0, max(n, cap(b.ints)))
	}
	lo := len(b.ints)
	b.ints = b.ints[:lo+n]
	return b.ints[lo : lo+n : lo+n]
}

// copyStmts returns a copy of list, or nil when it is empty.
func (b *cfgBuilder) copyStmts(list []Stmt) []Stmt {
	if len(list) == 0 {
		return nil
	}
	lo := len(b.stmts)
	b.stmts = append(b.stmts, list...)
	return b.stmts[lo:len(b.stmts):len(b.stmts)]
}

// succs returns the successor list of the given block indices.
func (b *cfgBuilder) succs(to ...int) []int {
	out := b.cut(len(to))
	copy(out, to)
	return out
}

// seq builds blocks for a statement sequence whose continuation is block
// `next` (-1 for "function exit") and returns the entry block index.
func (b *cfgBuilder) seq(stmts []Stmt, next int) int {
	for i, s := range stmts {
		switch s := s.(type) {
		case *If:
			cont := next
			if i+1 < len(stmts) {
				cont = b.seq(stmts[i+1:], next)
			}
			t := b.seq(s.Then.Stmts, cont)
			f := b.seq(s.Else.Stmts, cont)
			blk := b.newBlock()
			blk.Stmts = b.copyStmts(stmts[:i])
			blk.Branch = s
			blk.Succs = b.succs(t, f)
			return blk.Index
		case *Return, *ThrowExit:
			blk := b.newBlock()
			blk.Stmts = b.copyStmts(stmts[:i+1])
			return blk.Index
		}
	}
	if len(stmts) == 0 && next >= 0 {
		return next
	}
	blk := b.newBlock()
	blk.Stmts = b.copyStmts(stmts)
	if next >= 0 {
		blk.Succs = b.succs(next)
	}
	return blk.Index
}

// RPO returns the block indices in reverse postorder from the entry —
// the iteration order under which a forward dataflow analysis over this
// acyclic CFG converges in one sweep.
func (c *CFG) RPO() []int {
	seen := make([]bool, len(c.Blocks))
	var post []int
	var dfs func(int)
	dfs = func(i int) {
		if seen[i] {
			return
		}
		seen[i] = true
		for _, s := range c.Blocks[i].Succs {
			dfs(s)
		}
		post = append(post, i)
	}
	dfs(0)
	out := make([]int, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		out = append(out, post[i])
	}
	return out
}

// Defs returns the variables a statement assigns (at most one in this IR).
func Defs(s Stmt) []string {
	if d := Def(s); d != "" {
		return []string{d}
	}
	return nil
}

// Def returns the variable a statement assigns, or "" when it assigns none.
func Def(s Stmt) string {
	switch s := s.(type) {
	case *IntAssign:
		return s.Dst
	case *BoolAssign:
		return s.Dst
	case *ObjAssign:
		return s.Dst
	case *NewObj:
		return s.Dst
	case *Load:
		return s.Dst
	case *Call:
		return s.Dst
	case *Event:
		return s.Dst
	case *CatchBind:
		return s.Var
	}
	return ""
}

// Uses returns the variables a statement reads. Branch conditions are not
// statements; use CondUses for an If's condition.
func Uses(s Stmt) []string {
	var out []string
	addOp := func(o Operand) {
		if !o.IsConst() {
			out = append(out, o.Var)
		}
	}
	switch s := s.(type) {
	case *IntAssign:
		if s.Op != Opaque {
			addOp(s.A)
			if s.Op == Add || s.Op == Sub || s.Op == Mul {
				addOp(s.B)
			}
		}
	case *BoolAssign:
		out = append(out, CondUses(s.Cond)...)
	case *ObjAssign:
		if s.Src != "" {
			out = append(out, s.Src)
		}
	case *Store:
		out = append(out, s.Recv, s.Src)
	case *Load:
		out = append(out, s.Recv)
	case *Call:
		for _, a := range s.ObjArgs {
			out = append(out, a.Arg)
		}
		for _, a := range s.IntArgs {
			addOp(a.Arg)
		}
	case *Event:
		out = append(out, s.Recv)
	case *Return:
		if s.Src.Var != "" {
			out = append(out, s.Src.Var)
		}
	case *ThrowExit:
		out = append(out, ExcVar)
	}
	return out
}

// CondUses returns the variables a branch condition reads.
func CondUses(c Cond) []string {
	if c.BoolVar != "" {
		return []string{c.BoolVar}
	}
	if c.IsOpaque() {
		return nil
	}
	var out []string
	if !c.A.IsConst() {
		out = append(out, c.A.Var)
	}
	if !c.B.IsConst() {
		out = append(out, c.B.Var)
	}
	return out
}

// StmtPos returns the source position recorded on a statement.
func StmtPos(s Stmt) lang.Pos {
	switch s := s.(type) {
	case *IntAssign:
		return s.Pos
	case *BoolAssign:
		return s.Pos
	case *ObjAssign:
		return s.Pos
	case *NewObj:
		return s.Pos
	case *Store:
		return s.Pos
	case *Load:
		return s.Pos
	case *Call:
		return s.Pos
	case *Event:
		return s.Pos
	case *Return:
		return s.Pos
	case *ThrowExit:
		return s.Pos
	case *CatchBind:
		return s.Pos
	case *If:
		return s.Pos
	case *TryRegion:
		return s.Pos
	case *Raise:
		return s.Pos
	}
	return lang.Pos{}
}
