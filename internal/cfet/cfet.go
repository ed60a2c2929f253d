// Package cfet implements the paper's central data structure (§3): per-method
// control-flow execution trees (CFETs) built by symbolic execution, connected
// into an interprocedural CFET (ICFET) by call/return edges, together with
// the interval-based path encoding, Algorithm-1 decoding, and the four
// encoding-merge cases of §4.2.
//
// A CFET is a binary tree of extended basic blocks. Node IDs follow the
// Eytzinger-style numbering of §3.1: the root is 0 and a node n has false
// child 2n+1 and true child 2n+2, so a parent is recovered by (id-1)>>1 and a
// child's branch direction by its parity. (The paper's Algorithm 1 prints
// "ID >> 1"; with its own numbering that is exact only for odd IDs — the
// intended, correct computation is (ID-1)>>1, which this package uses.)
//
// The ICFET is an in-memory index: it is never cloned (§3.3); context
// sensitivity in the *program graph* comes from inlining, while ICFET paths
// achieve context sensitivity by matching call/return parentheses during
// decoding.
package cfet

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"

	"github.com/grapple-system/grapple/internal/constraint"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/symbolic"
)

// MethodID indexes a method's CFET within an ICFET.
type MethodID int32

// LeafKind classifies how a CFET path ends.
type LeafKind uint8

// Leaf kinds.
const (
	LeafNone     LeafKind = iota // interior node
	LeafReturn                   // normal return (explicit or fall-off)
	LeafThrow                    // exceptional exit ($exc set)
	LeafTruncate                 // exploration budget exhausted
)

// PlacedStmt is one statement instance executed in a CFET node. The same IR
// statement appears in every node whose path prefix executes it.
type PlacedStmt struct {
	Stmt ir.Stmt
	// CallEdge is the ICFET call-edge ID when Stmt is *ir.Call, else -1.
	CallEdge int32
	// EventResultSym is the opaque symbol bound to an Event's result, or
	// symbolic.NoSym.
	EventResultSym symbolic.Sym
}

// RetInfo describes the value returned at a leaf.
type RetInfo struct {
	Kind    LeafKind
	HasExpr bool
	Expr    symbolic.Expr // integer return value (symbolic), if HasExpr
	ObjVar  string        // object-typed return variable, "" if none
}

// Node is one extended basic block of a CFET.
type Node struct {
	ID uint64
	// Parent is the node with ID Parent(ID); nil at the root. A walk up the
	// tree (path constraints, witnesses) follows it instead of looking the
	// parent up.
	Parent  *Node
	HasCond bool
	// Cond is the symbolic branch conditional evaluated at the end of the
	// block (only local, per §3.1 — full path constraints are reconstructed
	// by decoding).
	Cond constraint.Atom
	// CondPos is the source position of the branch conditional.
	CondPos lang.Pos
	// Branch is the IR conditional the node splits on; CondText renders it.
	Branch *ir.If
	Stmts  []PlacedStmt
	Leaf   LeafKind
	Ret    RetInfo
}

// CondText is the branch conditional as written, for witness explanations;
// "" for a node that does not split. It is rendered on demand: only an
// explained witness reads it.
func (n *Node) CondText() string {
	if n.Branch == nil {
		return ""
	}
	return n.Branch.Cond.String()
}

// CFET is the control-flow execution tree of one method.
type CFET struct {
	Method MethodID
	Name   string
	Fn     *ir.Func
	// Nodes holds the method's nodes in ascending ID order, so parents
	// before children: the order graph construction visits nodes in.
	// NodeIDs[i] is Nodes[i].ID, the sorted index Node searches. Build fills
	// both once, before the ICFET is shared; they are only read afterwards.
	Nodes   []*Node
	NodeIDs []uint64
	Leaves  []uint64
	// Syms is every symbolic variable created for this method (params,
	// opaque inputs, call results, branch opaques); decoding renames these
	// per call-frame instance.
	Syms []symbolic.Sym
	// ParamSyms[i] is the symbol of the i-th formal parameter (the one in
	// slot i+1), symbolic.NoSym until the method's walk or a call edge into
	// it interns it.
	ParamSyms []symbolic.Sym
	// Truncated counts subtrees cut by the node budget (or the depth
	// limit): each one is a path the tree does not enumerate to its end.
	Truncated int
	// Pruned counts branch sites resolved by Options.BranchVerdict: each one
	// continued straight into the statically-live arm instead of splitting
	// the tree.
	Pruned int
	// Sliced counts branch sites skipped by Options.SliceBranch: both arms
	// were property-irrelevant, so the walker continued past the conditional
	// without splitting.
	Sliced int
	// SlicedAway marks a method Options.SliceFunc dropped entirely: the tree
	// is a single-leaf stub (immediate return) kept so method IDs and call
	// edges stay well-formed.
	SlicedAway bool
}

// Node returns the node with the given ID, or nil when the tree has none.
func (m *CFET) Node(id uint64) *Node {
	if i, ok := slices.BinarySearch(m.NodeIDs, id); ok {
		return m.Nodes[i]
	}
	return nil
}

// Equation asserts Sym == Expr; used on call edges for parameter passing
// (§3.2 "a = 2*x") and on return edges for result binding ("y = a - 1").
type Equation struct {
	Sym  symbolic.Sym
	Expr symbolic.Expr
}

// CallEdge connects a caller CFET node to a callee CFET root (§3.2). One
// call edge exists per call-statement instance (per node containing it).
type CallEdge struct {
	ID         int32
	Caller     MethodID
	CallerNode uint64
	Callee     MethodID
	// ParamEqs bind callee parameter symbols to caller-side expressions.
	ParamEqs []Equation
	// RetSym is the caller-side symbol receiving an integer result
	// (symbolic.NoSym when the result is void, object-typed or ignored).
	RetSym symbolic.Sym
	// Site is the IR call-site ID (for reporting).
	Site int32
}

// ICFET is the whole-program index: all CFETs plus call edges.
type ICFET struct {
	Syms         *symbolic.Table
	Methods      []*CFET
	MethodByName map[string]MethodID
	CallEdges    []*CallEdge
	// MaxEncLen caps encoding growth (see Merge); conservative fallback
	// above it. Build sets it to maxEncLen.
	MaxEncLen int

	// owner[s] is the method whose Syms hold symbol s (-1 for none): what a
	// decoding activation of that method renames. Build fills it once; the
	// engine's workers decode concurrently and only read it.
	owner []MethodID
}

// maxEncLen is the merged-encoding length (elements) Build caps an ICFET at.
const maxEncLen = 64

// Options tunes CFET construction.
type Options struct {
	// MaxNodesPerMethod bounds symbolic-execution tree growth per method;
	// paths beyond the budget are truncated (counted in CFET.Truncated).
	// Zero means the default of 4096.
	MaxNodesPerMethod int
	// BranchVerdict, when non-nil, supplies statically-proven branch
	// verdicts (from the pre-analysis constant propagation): +1 the
	// condition always holds, -1 it never holds, 0 unknown. The walker asks
	// once per If it reaches, so the answer must not cost more than the If
	// itself: analysis.Result.BranchVerdict is one probe of an index built
	// once in analysis.Run and only read afterwards (safe for concurrent
	// builds sharing one Result). A decided branch does not split the tree
	// — the walker continues into the live arm within the current node.
	// Dropping the conditional is sound because a tautological (or
	// contradictory, on the other arm) conjunct never changes a path
	// constraint's satisfiability; it only spares the engine from
	// enumerating and refuting the dead subtree.
	BranchVerdict func(*ir.If) int
	// SliceFunc, when non-nil, names functions the property-relevance
	// slicer proved irrelevant: their trees collapse to a single-return
	// stub (see CFET.SlicedAway). docs/slicing.md gives the argument.
	SliceFunc func(name string) bool
	// SliceBranch, when non-nil, marks Ifs whose two arms contain only
	// property-irrelevant statements: the walker skips the conditional and
	// both arms without splitting the path. For a total condition c and any
	// surrounding constraint R, sat(R∧c) ∨ sat(R∧¬c) ⟺ sat(R), so
	// removing the split preserves every feasibility verdict as long as the
	// skipped arms write nothing a later statement reads — which is exactly
	// what the slicer's inertness check guarantees.
	SliceBranch func(*ir.If) bool
}

// maxNodeID keeps child IDs representable: beyond depth ~61 we truncate.
const maxNodeID = uint64(1) << 61

// Build symbolically executes every function of p and assembles the ICFET.
func Build(p *ir.Program, syms *symbolic.Table, opts Options) (*ICFET, error) {
	if opts.MaxNodesPerMethod <= 0 {
		opts.MaxNodesPerMethod = 4096
	}
	ic := &ICFET{
		Syms:         syms,
		Methods:      make([]*CFET, 0, len(p.Funs)),
		MethodByName: make(map[string]MethodID, len(p.Funs)),
		MaxEncLen:    maxEncLen,
	}
	sl := &buildSlabs{}
	// Assign method IDs first so call edges can reference forward.
	for i, fn := range p.Funs {
		id := MethodID(i)
		ic.MethodByName[fn.Name] = id
		m := sl.methods.New(CFET{Method: id, Name: fn.Name, Fn: fn})
		m.ParamSyms = sl.syms.Alloc(len(fn.Params))
		for j := range m.ParamSyms {
			m.ParamSyms[j] = symbolic.NoSym
		}
		// Room for the parameters' symbols, which is all a stub's Syms
		// holds; a walked method's grows past it onto the heap.
		m.Syms = sl.syms.Alloc(len(fn.Params))[:0]
		ic.Methods = append(ic.Methods, m)
	}
	w := &walker{
		ic:      ic,
		budget:  opts.MaxNodesPerMethod,
		verdict: opts.BranchVerdict,
		slice:   opts.SliceBranch,
		slabs:   sl,
	}
	for i, fn := range p.Funs {
		w.start(ic.Methods[i])
		if opts.SliceFunc != nil && opts.SliceFunc(fn.Name) {
			w.stub(fn)
		} else if err := w.run(fn); err != nil {
			return nil, err
		}
		w.sealNodes()
	}
	ic.indexOwners()
	return ic, nil
}

// indexOwners records which method owns each symbol of the table.
func (ic *ICFET) indexOwners() {
	ic.owner = make([]MethodID, ic.Syms.Len())
	for i := range ic.owner {
		ic.owner[i] = -1
	}
	for _, m := range ic.Methods {
		for _, s := range m.Syms {
			ic.owner[s] = m.Method
		}
	}
}

// PathCount returns the total number of encoded paths (leaves) across all
// methods — the quantity branch pruning shrinks.
func (ic *ICFET) PathCount() int {
	n := 0
	for _, m := range ic.Methods {
		n += len(m.Leaves)
	}
	return n
}

// PrunedBranches returns the total number of branch sites resolved by
// Options.BranchVerdict across all methods.
func (ic *ICFET) PrunedBranches() int {
	n := 0
	for _, m := range ic.Methods {
		n += m.Pruned
	}
	return n
}

// SlicedFunctions returns how many methods Options.SliceFunc collapsed to
// stubs.
func (ic *ICFET) SlicedFunctions() int {
	n := 0
	for _, m := range ic.Methods {
		if m.SlicedAway {
			n++
		}
	}
	return n
}

// TruncatedSubtrees returns the total number of subtrees the node budget
// (or the depth limit) cut, across all methods: 0 when every tree was
// enumerated to its leaves.
func (ic *ICFET) TruncatedSubtrees() int {
	n := 0
	for _, m := range ic.Methods {
		n += m.Truncated
	}
	return n
}

// SlicedBranches returns the total number of branch sites skipped by
// Options.SliceBranch across all methods.
func (ic *ICFET) SlicedBranches() int {
	n := 0
	for _, m := range ic.Methods {
		n += m.Sliced
	}
	return n
}

// Method returns the CFET of a method by name.
func (ic *ICFET) Method(name string) *CFET {
	id, ok := ic.MethodByName[name]
	if !ok {
		return nil
	}
	return ic.Methods[id]
}

// boolVal is a boolean variable's symbolic value: a known atom or opaque.
type boolVal struct {
	known bool
	atom  constraint.Atom
	opq   symbolic.Sym // used when !known
}

// env is a symbolic-execution environment: one pair of arrays for the whole
// method, indexed by the variable slots lowering numbered (ir.Func.NumVars),
// plus an undo trail. The tree walk is depth-first, so the bindings a node
// sees are exactly the writes on its root-to-node path; instead of copying
// both arrays at every split, the walker marks the trail, walks the true arm,
// undoes back to the mark and walks the false arm on the same arrays. Every
// write goes through setInt/setBool, which log what they overwrote; the
// trail is never longer than the writes on the current path. Ints and bools
// are separate namespaces, as in the IR: a slot may be bound in both.
type env struct {
	ints  []intSlot
	bools []boolSlot
	trail []envUndo
}

// intSlot and boolSlot are a variable's binding; set is false while the
// variable has none.
type intSlot struct {
	v   symbolic.Expr
	set bool
}

type boolSlot struct {
	v   boolVal
	set bool
}

// envUndo restores one overwritten binding (an unset one included).
type envUndo struct {
	slot    int32
	isBool  bool
	oldInt  intSlot
	oldBool boolSlot
}

// reset empties e for a function of numVars variables (slots 0..numVars).
func (e *env) reset(numVars int) {
	n := numVars + 1
	e.ints = slices.Grow(e.ints[:0], n)[:n]
	e.bools = slices.Grow(e.bools[:0], n)[:n]
	clear(e.ints)
	clear(e.bools)
	e.trail = e.trail[:0]
}

func (e *env) setInt(slot int32, v symbolic.Expr) {
	e.trail = append(e.trail, envUndo{slot: slot, oldInt: e.ints[slot]})
	e.ints[slot] = intSlot{v, true}
}

func (e *env) setBool(slot int32, v boolVal) {
	e.trail = append(e.trail, envUndo{slot: slot, isBool: true, oldBool: e.bools[slot]})
	e.bools[slot] = boolSlot{v, true}
}

// mark returns the trail position undo rolls back to.
func (e *env) mark() int { return len(e.trail) }

// undo reverts, newest first, every write made since mark.
func (e *env) undo(mark int) {
	for i := len(e.trail) - 1; i >= mark; i-- {
		u := &e.trail[i]
		if u.isBool {
			e.bools[u.slot] = u.oldBool
		} else {
			e.ints[u.slot] = u.oldInt
		}
	}
	e.trail = e.trail[:mark]
}

// walker builds one method's tree at a time; Build reuses it, with its
// environment and scratch, for every method.
type walker struct {
	ic      *ICFET
	m       *CFET
	budget  int
	nodes   int
	verdict func(*ir.If) int
	slice   func(*ir.If) bool
	env     env
	// created is the method's nodes in the order the walk made them.
	created []*Node
	// opqSyms caches stable symbols for the method's opaque branch
	// conditions.
	opqSyms map[int32]symbolic.Sym
	slabs   *buildSlabs
}

// buildSlabs allocates what one Build call makes many of: the methods, tree
// nodes, the continuation frames of the walk, call edges, the statement and
// equation lists of nodes and edges, each method's nodes, node IDs, leaves
// and parameter symbols, cut to their exact length, and the term lists of
// the symbolic values the walk computes.
type buildSlabs struct {
	terms   symbolic.Arena
	methods lang.Slab[CFET]
	nodes   lang.Slab[Node]
	conts   lang.Slab[contFrame]
	edges   lang.Slab[CallEdge]
	placed  lang.ListSlab[PlacedStmt]
	eqs     lang.ListSlab[Equation]
	byID    lang.ListSlab[*Node]
	ids     lang.ListSlab[uint64]
	leaves  lang.ListSlab[uint64]
	syms    lang.ListSlab[symbolic.Sym]
}

// start points w at m, a method not yet walked.
func (w *walker) start(m *CFET) {
	w.m = m
	w.nodes = 0
	w.created = w.created[:0]
	clear(w.opqSyms)
}

func (w *walker) fresh(prefix string) symbolic.Sym {
	s := w.ic.Syms.FreshIn(w.m.Name, prefix)
	w.m.Syms = append(w.m.Syms, s)
	return s
}

func (w *walker) intern(name string) symbolic.Sym {
	s := w.ic.Syms.InternIn(w.m.Name, name)
	w.m.Syms = append(w.m.Syms, s)
	return s
}

func (w *walker) opaqueSym(id int32) symbolic.Sym {
	if w.opqSyms == nil {
		w.opqSyms = map[int32]symbolic.Sym{}
	}
	if s, ok := w.opqSyms[id]; ok {
		return s
	}
	var buf [16]byte
	s := w.intern(string(strconv.AppendInt(append(buf[:0], "opq"...), int64(id), 10)))
	w.opqSyms[id] = s
	return s
}

func (w *walker) newNode(id uint64, parent *Node) *Node {
	n := w.slabs.nodes.New(Node{ID: id, Parent: parent})
	w.created = append(w.created, n)
	w.nodes++
	return n
}

// sealNodes gives the method its nodes and their IDs in ascending ID order,
// and its leaves in the order the walk reached them. The walk makes nodes
// depth first, the true child's subtree before the false child's, and at
// every depth a true subtree's IDs exceed its false sibling's. So the nodes
// of one depth are made in descending ID order, and a counting sort by depth
// that fills each depth from its end orders them without comparing IDs.
func (w *walker) sealNodes() {
	var end [64]int // end[d]: one past the last index of depth d
	for _, n := range w.created {
		end[depth(n.ID)]++
	}
	for d := 1; d < len(end); d++ {
		end[d] += end[d-1]
	}
	nodes := w.slabs.byID.Alloc(len(w.created))
	for _, n := range w.created {
		d := depth(n.ID)
		end[d]--
		nodes[end[d]] = n
	}
	ids := w.slabs.ids.Alloc(len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID
	}
	w.m.Nodes, w.m.NodeIDs = nodes, ids
	w.m.Leaves = w.slabs.leaves.Cut(0)
}

// depth is a node's distance from the root: IDs 2^d-1 .. 2^(d+1)-2 are
// depth d.
func depth(id uint64) int { return bits.Len64(id+1) - 1 }

// place appends a statement to the node being walked. A node's statements
// are complete when it splits or ends in a leaf, before any other node
// gets one, so they collect on the slab's scratch and seal cuts them.
func (w *walker) place(s ir.Stmt, callEdge int32, eventSym symbolic.Sym) {
	w.slabs.placed.Push(PlacedStmt{Stmt: s, CallEdge: callEdge, EventResultSym: eventSym})
}

// seal gives n the statements placed since it was started.
func (w *walker) seal(n *Node) { n.Stmts = w.slabs.placed.Cut(0) }

// contFrame lets statements after an If run inside both branches.
type contFrame struct {
	stmts []ir.Stmt
	next  *contFrame
}

func (w *walker) run(fn *ir.Func) error {
	e := &w.env
	e.reset(fn.NumVars)
	for i, p := range fn.Params {
		s := w.intern(p.Name)
		w.m.ParamSyms[i] = s
		if p.Type == "int" || p.Type == "bool" {
			e.setInt(int32(i+1), w.slabs.terms.Var(s)) // parameter i is slot i+1
		}
	}
	root := w.newNode(0, nil)
	w.walk(fn.Body.Stmts, nil, root, e)
	return nil
}

// stub replaces a sliced-away method's tree with a single immediate-return
// leaf. Parameter symbols are still interned so call edges into the stub
// bind their equations as usual.
func (w *walker) stub(fn *ir.Func) {
	for i, p := range fn.Params {
		w.m.ParamSyms[i] = w.intern(p.Name)
	}
	root := w.newNode(0, nil)
	w.endLeaf(root, LeafReturn, RetInfo{Kind: LeafReturn})
	w.m.SlicedAway = true
}

// walk executes stmts in node n under environment e; k holds statements
// following enclosing Ifs.
func (w *walker) walk(stmts []ir.Stmt, k *contFrame, n *Node, e *env) {
	for {
		if len(stmts) == 0 {
			if k == nil {
				w.endLeaf(n, LeafReturn, RetInfo{Kind: LeafReturn}) // fall-off
				return
			}
			stmts, k = k.stmts, k.next
			continue
		}
		s := stmts[0]
		rest := stmts[1:]
		switch s := s.(type) {
		case *ir.IntAssign:
			e.setInt(s.DstSlot, w.evalArith(s, e))
			w.place(s, -1, symbolic.NoSym)
		case *ir.BoolAssign:
			e.setBool(s.DstSlot, w.evalCondVal(s.Cond, e))
			w.place(s, -1, symbolic.NoSym)
		case *ir.ObjAssign, *ir.NewObj, *ir.Store, *ir.Load, *ir.CatchBind:
			w.place(s, -1, symbolic.NoSym)
		case *ir.Event:
			sym := symbolic.NoSym
			if s.Dst != "" {
				sym = w.fresh("ev_" + s.Method)
				e.setInt(s.DstSlot, w.slabs.terms.Var(sym))
			}
			w.place(s, -1, sym)
		case *ir.Call:
			ce := w.makeCallEdge(s, n, e)
			if s.Dst != "" && !s.DstIsObject && ce != nil {
				e.setInt(s.DstSlot, w.slabs.terms.Var(ce.RetSym))
			}
			id := int32(-1)
			if ce != nil {
				id = ce.ID
			}
			w.place(s, id, symbolic.NoSym)
		case *ir.Return:
			ri := RetInfo{Kind: LeafReturn}
			if s.SrcIsObject {
				ri.ObjVar = s.Src.Var
			} else if s.Src != (ir.Operand{}) {
				ri.HasExpr = true
				ri.Expr = w.evalOperand(s.Src, e)
			}
			w.place(s, -1, symbolic.NoSym)
			w.endLeaf(n, LeafReturn, ri)
			return
		case *ir.ThrowExit:
			w.place(s, -1, symbolic.NoSym)
			w.endLeaf(n, LeafThrow, RetInfo{Kind: LeafThrow})
			return
		case *ir.If:
			if w.slice != nil && w.slice(s) {
				// Property-irrelevant on both arms: continue past the
				// conditional without splitting and without either arm.
				w.m.Sliced++
				stmts = rest
				continue
			}
			if w.verdict != nil {
				if v := w.verdict(s); v != 0 {
					// Statically decided: continue into the live arm inside
					// this node; the dead arm is never built.
					w.m.Pruned++
					arm := s.Then
					if v < 0 {
						arm = s.Else
					}
					if len(rest) > 0 {
						k = w.slabs.conts.New(contFrame{stmts: rest, next: k})
					}
					stmts = arm.Stmts
					continue
				}
			}
			atom := w.evalCondAtom(s.Cond, e)
			// Constant-foldable conditions still split (the CFET stays a
			// well-formed binary tree); the unsat side prunes at decode.
			n.HasCond = true
			n.Cond = atom
			n.CondPos = s.Pos
			n.Branch = s
			falseID, trueID := 2*n.ID+1, 2*n.ID+2
			if trueID >= maxNodeID || w.nodes+2 > w.budget {
				// Budget or depth exhausted: truncate both branches.
				n.HasCond = false
				w.m.Truncated++
				w.endLeaf(n, LeafTruncate, RetInfo{Kind: LeafTruncate})
				return
			}
			w.seal(n)
			nk := k
			if len(rest) > 0 {
				nk = w.slabs.conts.New(contFrame{stmts: rest, next: k})
			}
			tn := w.newNode(trueID, n)
			mark := e.mark()
			w.walk(s.Then.Stmts, nk, tn, e)
			e.undo(mark)
			if w.nodes >= w.budget {
				// The sibling subtree consumed the budget. Skip the false
				// child entirely: no encoding will ever reference it, and
				// decoding only walks ancestors of referenced nodes.
				w.m.Truncated++
				return
			}
			// The false arm runs on the same environment: this walk returns
			// right after it, and whatever it writes is rolled back by the
			// enclosing split's undo (at the root nobody reads it again).
			fn := w.newNode(falseID, n)
			w.walk(s.Else.Stmts, nk, fn, e)
			return
		default:
			panic(fmt.Sprintf("cfet: unexpected statement %T (exceptions must be expanded)", s))
		}
		stmts = rest
	}
}

func (w *walker) endLeaf(n *Node, kind LeafKind, ri RetInfo) {
	if n.Leaf != LeafNone {
		return
	}
	w.seal(n)
	n.Leaf = kind
	n.Ret = ri
	w.slabs.leaves.Push(n.ID)
}

func (w *walker) makeCallEdge(c *ir.Call, n *Node, e *env) *CallEdge {
	calleeID, ok := w.ic.MethodByName[c.Callee]
	if !ok {
		return nil
	}
	callee := w.ic.Methods[calleeID]
	ce := w.slabs.edges.New(CallEdge{
		ID:         int32(len(w.ic.CallEdges)),
		Caller:     w.m.Method,
		CallerNode: n.ID,
		Callee:     calleeID,
		RetSym:     symbolic.NoSym,
		Site:       c.Site,
	})
	mark := w.slabs.eqs.Mark()
	for _, a := range c.IntArgs {
		// The callee's parameter symbol is interned under the callee's
		// namespace; intern here in case the callee is processed later.
		ps := &callee.ParamSyms[a.FormalSlot-1]
		if *ps == symbolic.NoSym {
			*ps = w.ic.Syms.InternIn(c.Callee, a.Formal)
			callee.Syms = append(callee.Syms, *ps)
		}
		w.slabs.eqs.Push(Equation{Sym: *ps, Expr: w.evalOperand(a.Arg, e)})
	}
	ce.ParamEqs = w.slabs.eqs.Cut(mark)
	if c.Dst != "" && !c.DstIsObject {
		var buf [24]byte
		name := strconv.AppendInt(append(buf[:0], "call"...), int64(c.Site), 10)
		ce.RetSym = w.fresh(string(append(name, ".ret"...)))
	}
	w.ic.CallEdges = append(w.ic.CallEdges, ce)
	return ce
}

func (w *walker) evalOperand(o ir.Operand, e *env) symbolic.Expr {
	if o.IsConst() {
		return symbolic.Const(o.Const)
	}
	if v := e.ints[o.Slot]; v.set {
		return v.v
	}
	// Unknown variable (e.g. used before def): opaque.
	v := w.slabs.terms.Var(w.fresh("undef_" + o.Var))
	e.setInt(o.Slot, v)
	return v
}

func (w *walker) evalArith(s *ir.IntAssign, e *env) symbolic.Expr {
	switch s.Op {
	case ir.Mov:
		return w.evalOperand(s.A, e)
	case ir.Add:
		return w.slabs.terms.Combine(w.evalOperand(s.A, e), 1, w.evalOperand(s.B, e), 1)
	case ir.Sub:
		return w.slabs.terms.Combine(w.evalOperand(s.A, e), 1, w.evalOperand(s.B, e), -1)
	case ir.Neg:
		return w.slabs.terms.Combine(w.evalOperand(s.A, e), -1, symbolic.Expr{}, 0)
	case ir.Mul:
		a, b := w.evalOperand(s.A, e), w.evalOperand(s.B, e)
		if a.IsConst() {
			return w.slabs.terms.Combine(b, a.Const, symbolic.Expr{}, 0)
		}
		if b.IsConst() {
			return w.slabs.terms.Combine(a, b.Const, symbolic.Expr{}, 0)
		}
		// Non-linear: over-approximate with a fresh symbol.
		return w.slabs.terms.Var(w.fresh("nonlin"))
	default: // Opaque
		return w.slabs.terms.Var(w.fresh("in"))
	}
}

// evalCondAtom turns an IR condition into a symbolic atom under e.
func (w *walker) evalCondAtom(c ir.Cond, e *env) constraint.Atom {
	var a constraint.Atom
	switch {
	case c.BoolVar != "":
		b := e.bools[c.BoolSlot]
		bv := b.v
		if !b.set {
			bv = boolVal{opq: w.fresh("undefb_" + c.BoolVar)}
			e.setBool(c.BoolSlot, bv)
		}
		if bv.known {
			a = bv.atom
		} else {
			a = constraint.Atom{LHS: w.slabs.terms.Var(bv.opq), Op: constraint.NE}
		}
	case c.IsOpaque():
		a = constraint.Atom{LHS: w.slabs.terms.Var(w.opaqueSym(c.OpaqueID)), Op: constraint.NE}
	default:
		l := w.evalOperand(c.A, e)
		r := w.evalOperand(c.B, e)
		var op constraint.Op
		switch c.Kind {
		case ir.CmpEq:
			op = constraint.EQ
		case ir.CmpNe:
			op = constraint.NE
		case ir.CmpLt:
			op = constraint.LT
		case ir.CmpLe:
			op = constraint.LE
		case ir.CmpGt:
			op = constraint.GT
		default:
			op = constraint.GE
		}
		a = constraint.Atom{LHS: w.slabs.terms.Combine(l, 1, r, -1), Op: op}
	}
	if c.Negated {
		a = a.Negate()
	}
	return a
}

func (w *walker) evalCondVal(c ir.Cond, e *env) boolVal {
	return boolVal{known: true, atom: w.evalCondAtom(c, e)}
}

// Parent returns the parent ID of a CFET node ((id-1)>>1; see package doc).
func Parent(id uint64) uint64 {
	if id == 0 {
		return 0
	}
	return (id - 1) >> 1
}

// IsTrueChild reports whether id is its parent's true child (even, nonzero).
func IsTrueChild(id uint64) bool { return id != 0 && id%2 == 0 }

// IsAncestorOrEqual reports whether a is an ancestor of b (or equal) in the
// complete binary numbering.
func IsAncestorOrEqual(a, b uint64) bool {
	for b > a {
		b = Parent(b)
	}
	return a == b
}

// PathConstraint reconstructs the branch constraint of the tree path from
// ancestor `from` down to `to` within this CFET (Algorithm 1), applying the
// activation renamer (nil for the identity). It looks up to's parent once
// and then follows the parent links.
func (m *CFET) PathConstraint(from, to uint64, ren *Renamer, out constraint.Conj) (constraint.Conj, error) {
	cur := to
	var pn *Node
	for cur != from {
		if cur == 0 {
			return out, fmt.Errorf("cfet %s: %d is not an ancestor of %d", m.Name, from, to)
		}
		parent := Parent(cur)
		if pn == nil {
			pn = m.Node(parent)
			if pn == nil {
				return out, fmt.Errorf("cfet %s: missing node %d", m.Name, parent)
			}
		}
		if pn.HasCond {
			a := pn.Cond
			if !IsTrueChild(cur) {
				a = a.Negate()
			}
			out = out.And(ren.Atom(a))
		}
		cur, pn = parent, pn.Parent
	}
	return out, nil
}
