package pgraph

import (
	"slices"
	"sort"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/grammar"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/storage"
)

// FlowTarget is one phase-1 result: the tracked object flows to (may be
// referenced by) a variable instance, under the path constraint Enc.
type FlowTarget struct {
	Var VarKey
	Enc cfet.Enc
}

// AliasResult holds the phase-1 aliasing facts. Per the paper's workflow
// (§2.2), it is held in memory during phase 2 to answer alias queries.
type AliasResult struct {
	// Flows maps each tracked object to its flow targets.
	Flows map[ObjID][]FlowTarget
	// Pointees counts the distinct objects (of any type) flowing to each
	// variable instance; a unique pointee upgrades may-alias to must-alias
	// for event attribution.
	Pointees map[VarKey]int
}

// maxCtxsPerObject skips objects whose relevant-context set explodes
// (usually via widely shared helpers).
const maxCtxsPerObject = 256

// DataflowGraph is the phase-2 program graph: per tracked object, a
// control-flow subgraph whose edges carry FSM transition relations and path
// encodings; the transitive closure of source->exit edges yields, for every
// feasible path bundle, the relation from allocation to program exit.
type DataflowGraph struct {
	D        *grammar.Dataflow
	Edges    []storage.Edge
	NumVerts uint32
	// Tracked lists the objects with graphs, with their source/exit
	// vertices.
	Tracked []TrackedObj
	// SkippedObjects counts objects dropped by maxCtxsPerObject.
	SkippedObjects int
}

// TrackedObj pairs an object with its FSM and its graph endpoints.
type TrackedObj struct {
	Info   ObjInfo
	FSM    *fsm.FSM
	Source uint32
	Exit   uint32
}

// item is one relevant statement occurrence inside a CFET node.
type item struct {
	kind     itemKind
	seq      int        // statement index within the node (ordering)
	event    string     // event name (event/alloc/catch)
	encs     []cfet.Enc // alias-attribution encodings (nil = definite)
	definite bool
	// entryDefinite lists the call edges whose entry into this clone
	// already implies the event's attribution (entry-node events only):
	// a flow entering through such an edge definitely observes the event,
	// so the caller routes it past the may-not-alias bypass.
	entryDefinite map[int32]bool
	site          int32 // call site (call items)
	// summary marks a call into an *irrelevant* callee whose integer
	// return value feeds path constraints: the item contributes one
	// identity edge per callee exit path, carrying {(c [0,leaf] )c} so the
	// return-value equation and the callee's branch conditions survive
	// (the fully-inlined program graph of the paper keeps them by
	// construction; the per-object scoping must put them back).
	summary  bool
	callEdge int32
}

type itemKind uint8

const (
	itemEvent itemKind = iota
	itemAlloc
	itemCall
)

// BuildDataflow generates the phase-2 graph for every tracked object.
// fsmFor maps an object type to its FSM (nil = untracked).
func BuildDataflow(pr *Program, flows AliasResult, ag *AliasGraph,
	fsmFor func(typ string) *fsm.FSM) *DataflowGraph {
	dg := &DataflowGraph{D: grammar.NewDataflow()}
	// The facts and the decoder belong to this call, not to the Program:
	// batch instances build over one Program concurrently.
	facts := make([]*methodFacts, len(pr.IC.Methods))
	dec := pr.IC.NewDecoder()
	for _, obj := range ag.Objects {
		f := fsmFor(obj.Type)
		if f == nil {
			continue
		}
		b := &objBuilder{pr: pr, dg: dg, obj: obj, fsm: f, facts: facts, dec: dec,
			pointees: flows.Pointees, points: map[pointKey]uint32{}}
		b.build(flows.Flows[obj.ID])
	}
	return dg
}

// methodFacts are what every object and context built over one method reads
// of its CFET, none of it depending on the object: where the allocations and
// calls are, which exits each subtree reaches, and the atoms of each node's
// path constraint.
type methodFacts struct {
	// allocs lists each allocation site's statements.
	allocs map[int32][]stmtAt
	// calls are the statements calling through an ICFET call edge, in
	// (node, statement) order.
	calls []callAt
	// exits holds the exit kinds each node's subtree reaches; a node whose
	// subtree reaches none is absent.
	exits map[uint64]exitBits
	// pathKeys memoizes objBuilder.pathKeys.
	pathKeys map[uint64]map[string]bool
}

type stmtAt struct {
	node uint64
	seq  int
}

type callAt struct {
	stmtAt
	call *ir.Call
	edge int32
}

type exitBits uint8

const (
	exitReturn exitBits = 1 << iota // a return leaf, or a truncated path
	exitThrow
)

// factsOf returns m's facts, scanning m on its first use in this call.
func (b *objBuilder) factsOf(m *cfet.CFET) *methodFacts {
	if f := b.facts[m.Method]; f != nil {
		return f
	}
	f := &methodFacts{allocs: map[int32][]stmtAt{}, exits: make(map[uint64]exitBits, len(m.Nodes)),
		pathKeys: map[uint64]map[string]bool{}}
	ids := m.NodeIDs
	for i, node := range ids {
		for si, ps := range m.Nodes[i].Stmts {
			switch s := ps.Stmt.(type) {
			case *ir.NewObj:
				f.allocs[s.Site] = append(f.allocs[s.Site], stmtAt{node, si})
			case *ir.Call:
				if ps.CallEdge >= 0 {
					f.calls = append(f.calls, callAt{stmtAt{node, si}, s, ps.CallEdge})
				}
			}
		}
	}
	// Children number above their parents, so descending IDs are bottom-up.
	for i := len(ids) - 1; i >= 0; i-- {
		id := ids[i]
		bits := f.exits[2*id+1] | f.exits[2*id+2]
		switch m.Nodes[i].Leaf {
		case cfet.LeafReturn, cfet.LeafTruncate:
			bits |= exitReturn
		case cfet.LeafThrow:
			bits |= exitThrow
		}
		if bits != 0 {
			f.exits[id] = bits
		}
	}
	b.facts[m.Method] = f
	return f
}

type pointKey struct {
	ctx  uint32
	node uint64
	pos  int
}

type objBuilder struct {
	pr    *Program
	dg    *DataflowGraph
	obj   ObjInfo
	fsm   *fsm.FSM
	facts []*methodFacts // by MethodID, shared by every object of the call
	dec   *cfet.Decoder  // its result lives until the next Decode

	points   map[pointKey]uint32
	pointees map[VarKey]int
	// items per (ctx, node), in statement order.
	nodeItems map[uint32]map[uint64][]item
	relevant  map[uint32]bool
	// exitN/exitX are each clone's normal and exceptional exit points.
	// Exceptional callee exits are wired directly into the caller's catch
	// subtree so a thrown state can never "return normally" past a handler.
	exitN  map[uint32]uint32
	exitX  map[uint32]uint32
	source uint32
	exit   uint32
}

func (b *objBuilder) vert() uint32 {
	v := b.dg.NumVerts
	b.dg.NumVerts++
	return v
}

func (b *objBuilder) point(ctx uint32, node uint64, pos int) uint32 {
	k := pointKey{ctx: ctx, node: node, pos: pos}
	if v, ok := b.points[k]; ok {
		return v
	}
	v := b.vert()
	b.points[k] = v
	return v
}

func (b *objBuilder) edge(src, dst uint32, rel fsm.Rel, enc cfet.Enc) {
	b.dg.Edges = append(b.dg.Edges, storage.Edge{
		Src: src, Dst: dst, Label: b.dg.D.Step, HasRel: true, Rel: rel, Enc: enc,
	})
}

// build assembles the object's subgraph.
func (b *objBuilder) build(targets []FlowTarget) {
	b.collectItems(targets)
	if !b.computeRelevance() {
		b.dg.SkippedObjects++
		return
	}
	b.source = b.vert()
	b.exit = b.vert()

	// Exit points per relevant ctx.
	b.exitN = map[uint32]uint32{}
	b.exitX = map[uint32]uint32{}
	ctxs := make([]uint32, 0, len(b.relevant))
	for c := range b.relevant {
		ctxs = append(ctxs, c)
	}
	sort.Slice(ctxs, func(i, j int) bool { return ctxs[i] < ctxs[j] })
	for _, c := range ctxs {
		b.exitN[c] = b.vert()
		b.exitX[c] = b.vert()
	}
	for _, c := range ctxs {
		b.buildCtx(c)
	}
	// Wire exits: root contexts reach the program exit both normally and by
	// crashing on an uncaught exception; called contexts return at their
	// call items (wired in buildCtx).
	id := fsm.Identity()
	for _, c := range ctxs {
		if b.isRootCtx(c) {
			b.edge(b.exitN[c], b.exit, id, nil)
			b.edge(b.exitX[c], b.exit, id, nil)
		}
	}
	b.dg.Tracked = append(b.dg.Tracked, TrackedObj{
		Info: b.obj, FSM: b.fsm, Source: b.source, Exit: b.exit,
	})
}

func (b *objBuilder) isRootCtx(c uint32) bool {
	for _, r := range b.pr.Roots {
		if r == c {
			return true
		}
	}
	return false
}

// collectItems finds, per (ctx, node), the statements relevant to this
// object, in statement order: its allocation, FSM events on aliased
// variables, and catches binding aliased variables.
func (b *objBuilder) collectItems(targets []FlowTarget) {
	b.nodeItems = map[uint32]map[uint64][]item{}
	// aliased[(ctx,node)][name] = attribution encodings.
	type nk struct {
		ctx  uint32
		node uint64
	}
	aliased := map[nk]map[string][]FlowTarget{}
	for _, t := range targets {
		k := nk{ctx: t.Var.Ctx, node: t.Var.Node}
		if aliased[k] == nil {
			aliased[k] = map[string][]FlowTarget{}
		}
		aliased[k][t.Var.Name] = append(aliased[k][t.Var.Name], t)
	}
	add := func(ctx uint32, node uint64, it item) {
		if b.nodeItems[ctx] == nil {
			b.nodeItems[ctx] = map[uint64][]item{}
		}
		b.nodeItems[ctx][node] = append(b.nodeItems[ctx][node], it)
	}
	for k, vars := range aliased {
		n := b.pr.Method(k.ctx).Node(k.node)
		if n == nil {
			continue
		}
		for si, ps := range n.Stmts {
			switch s := ps.Stmt.(type) {
			case *ir.NewObj:
				if k.ctx == b.obj.ID.Ctx && s.Site == b.obj.ID.Site {
					add(k.ctx, k.node, item{kind: itemAlloc, seq: si, event: "new", definite: true})
				}
			case *ir.Event:
				if fts := vars[s.Recv]; len(fts) > 0 {
					it := b.eventItem(s.Method, k.ctx, k.node, s.Recv, fts)
					it.seq = si
					add(k.ctx, k.node, it)
				}
			case *ir.CatchBind:
				// $exc is propagation, not a catch.
				if fts := vars[s.Var]; s.Var != ir.ExcVar && len(fts) > 0 {
					it := b.eventItem("catch", k.ctx, k.node, s.Var, fts)
					it.seq = si
					add(k.ctx, k.node, it)
				}
			}
		}
	}
	// The allocation's other nodes: the nodes visited above hold its
	// statements there already.
	allocM := b.pr.Method(b.obj.ID.Ctx)
	for _, at := range b.factsOf(allocM).allocs[b.obj.ID.Site] {
		if aliased[nk{b.obj.ID.Ctx, at.node}] == nil {
			add(b.obj.ID.Ctx, at.node, item{kind: itemAlloc, seq: at.seq, event: "new", definite: true})
		}
	}
}

// eventItem builds an event item, deciding whether the attribution is
// *definite* (must-alias): the receiver instance has a unique pointee and
// the decoded attribution constraint is subsumed by the branch constraint
// of simply reaching the event's node — then any flow arriving here
// definitely observes the event and no may-not-alias bypass is added.
func (b *objBuilder) eventItem(event string, ctx uint32, node uint64, recv string, fts []FlowTarget) item {
	it := item{kind: itemEvent, event: event}
	unique := b.pointees[VarKey{Ctx: ctx, Node: node, Name: recv}] <= 1
	m := b.pr.Method(ctx)
	var pathKeys map[string]bool
	if unique {
		pathKeys = b.pathKeys(m, node)
	}
	for _, ft := range fts {
		if unique && pathKeys != nil && b.subsumedByPath(ft.Enc, m, node, pathKeys) {
			it.definite = true
			it.encs = nil
			return it
		}
		it.encs = append(it.encs, ft.Enc)
	}
	// Intra-frame subsumption failed, but an attribution may still be
	// implied interprocedurally: the event sits at the entry node of a
	// private clone and the attribution's caller-side prefix is implied by
	// simply reaching the call node that enters it. Flows arriving through
	// such a call edge definitely observe the event; the caller-side
	// builder routes them past the may-not-alias bypass (per edge, so
	// entries on branch arms where the receiver is a different object keep
	// the bypass).
	if unique && node == 0 {
		c := b.pr.Contexts[ctx]
		if !c.Shared && c.Parent != NoContext {
			pm := b.pr.Method(c.Parent)
			for _, ce := range b.pr.IC.CallEdges {
				if ce == nil || ce.Callee != c.Method || ce.Site != c.Site || ce.Caller != pm.Method {
					continue
				}
				for _, ft := range fts {
					if b.entryCovered(ft.Enc, ctx, node, ce.ID) {
						if it.entryDefinite == nil {
							it.entryDefinite = map[int32]bool{}
						}
						it.entryDefinite[ce.ID] = true
						break
					}
				}
			}
		}
	}
	return it
}

// entryCovered checks one attribution encoding against one entry edge: the
// encoding must end with intervals of ctx's frame implied by reaching
// `node`, preceded by the given call edge, preceded (recursively) by a
// caller-side prefix implied by reaching the call node in the parent frame.
func (b *objBuilder) entryCovered(enc cfet.Enc, ctx uint32, node uint64, entry int32) bool {
	m := b.pr.Method(ctx)
	pathKeys := b.pathKeys(m, node)
	if pathKeys == nil {
		return false
	}
	i := len(enc)
	for i > 0 && enc[i-1].Kind == cfet.KInterval && enc[i-1].Method == m.Method {
		i--
	}
	if tail := enc[i:]; len(tail) > 0 && !b.subsumedByPath(tail, m, node, pathKeys) {
		return false
	}
	rest := enc[:i]
	if len(rest) == 0 {
		// No caller-side constraint at all: implied by any entry.
		return true
	}
	last := rest[len(rest)-1]
	if last.Kind != cfet.KCall || last.Call != entry {
		return false
	}
	c := b.pr.Contexts[ctx]
	if c.Shared || c.Parent == NoContext {
		return false
	}
	ce := b.pr.IC.CallEdges[entry]
	// The caller prefix must itself be implied by reaching the call node;
	// recurse with the parent clone's own entry edges.
	prefix := rest[:len(rest)-1]
	if len(prefix) == 0 {
		return true
	}
	pm := b.pr.Method(c.Parent)
	callKeys := b.pathKeys(pm, ce.CallerNode)
	if callKeys == nil {
		return false
	}
	j := len(prefix)
	for j > 0 && prefix[j-1].Kind == cfet.KInterval && prefix[j-1].Method == pm.Method {
		j--
	}
	if tail := prefix[j:]; len(tail) > 0 && !b.subsumedByPath(tail, pm, ce.CallerNode, callKeys) {
		return false
	}
	if j == 0 {
		return true
	}
	// Deeper frames: the remaining prefix must enter the parent clone via
	// one of ITS entry edges.
	pc := b.pr.Contexts[c.Parent]
	if pc.Shared || pc.Parent == NoContext {
		return false
	}
	if prefix[j-1].Kind != cfet.KCall {
		return false
	}
	deep := prefix[j-1].Call
	if int(deep) >= len(b.pr.IC.CallEdges) {
		return false
	}
	de := b.pr.IC.CallEdges[deep]
	if de == nil || de.Callee != pc.Method || de.Site != pc.Site ||
		de.Caller != b.pr.Method(pc.Parent).Method {
		return false
	}
	return b.entryCovered(prefix[:j], c.Parent, ce.CallerNode, deep)
}

// pathKeys returns the atom keys of the branch constraint of reaching node
// in m (nil if node is not in m), computed once per call.
func (b *objBuilder) pathKeys(m *cfet.CFET, node uint64) map[string]bool {
	f := b.factsOf(m)
	keys, ok := f.pathKeys[node]
	if !ok {
		if conj, err := m.PathConstraint(0, node, nil, nil); err == nil {
			keys = make(map[string]bool, len(conj))
			for _, a := range conj {
				keys[a.Key()] = true
			}
		}
		f.pathKeys[node] = keys
	}
	return keys
}

// subsumedByPath reports whether the attribution encoding adds no
// constraint beyond reaching `node` in method m.
func (b *objBuilder) subsumedByPath(enc cfet.Enc, m *cfet.CFET, node uint64, pathKeys map[string]bool) bool {
	merged, ok := b.pr.IC.Merge(enc, cfet.Enc{cfet.Interval(m.Method, node, node)})
	if !ok {
		return false
	}
	conj, err := b.dec.Decode(merged)
	if err != nil {
		return false
	}
	for _, a := range conj {
		if !pathKeys[a.Key()] {
			return false
		}
	}
	return true
}

// computeRelevance seeds relevance with item contexts (plus the allocation
// context) and closes it upward: the parent of a relevant clone is relevant
// (it must carry the flow onward), and every caller of a relevant *shared*
// clone is relevant (shared clones are context-insensitive). Returns false
// when the set exceeds the per-object budget.
func (b *objBuilder) computeRelevance() bool {
	b.relevant = map[uint32]bool{}
	var work []uint32
	push := func(c uint32) {
		if c == NoContext || b.relevant[c] {
			return
		}
		b.relevant[c] = true
		work = append(work, c)
	}
	push(b.obj.ID.Ctx)
	for c := range b.nodeItems {
		push(c)
	}
	for len(work) > 0 {
		c := work[len(work)-1]
		work = work[:len(work)-1]
		if len(b.relevant) > maxCtxsPerObject {
			return false
		}
		cc := b.pr.Contexts[c]
		if cc.Parent != NoContext {
			push(cc.Parent)
		} else if cc.Shared {
			for _, caller := range b.pr.Callers[c] {
				push(caller.ctx)
			}
		}
	}
	return true
}

// maxSummaryLeaves bounds per-call summary enumeration; callees with more
// exit paths contribute one unconstrained pass-through instead.
const maxSummaryLeaves = 32

// summaryCallEdges emits identity edges through an irrelevant callee, one
// per callee exit path, so the return-value equation ("y = a - 1") and the
// callee's internal branch constraints join the path constraint exactly as
// they would in the paper's fully-inlined program graph.
func (b *objBuilder) summaryCallEdges(ctx uint32, it item, prev, next uint32, hereEnc cfet.Enc) {
	id := fsm.Identity()
	ce := b.pr.IC.CallEdges[it.callEdge]
	callee := b.pr.IC.Methods[ce.Callee]
	if len(callee.Leaves) > maxSummaryLeaves {
		b.edge(prev, next, id, hereEnc)
		return
	}
	emitted := false
	for _, leaf := range callee.Leaves {
		if callee.Node(leaf).Leaf != cfet.LeafReturn {
			continue
		}
		enc := cfet.Enc{
			cfet.CallElem(it.callEdge),
			cfet.Interval(ce.Callee, 0, leaf),
			cfet.RetElem(it.callEdge),
		}
		b.edge(prev, next, id, enc)
		emitted = true
	}
	if !emitted {
		b.edge(prev, next, id, hereEnc)
	}
}

// buildCtx emits the intra-clone chains, tree edges, call/return edges, and
// exit edges for one relevant context.
func (b *objBuilder) buildCtx(ctx uint32) {
	m := b.pr.Method(ctx)
	facts := b.factsOf(m)
	id := fsm.Identity()

	// Relevant nodes: those with items or relevant call items, plus the
	// root. Call items are discovered here (calls into relevant contexts).
	own := b.nodeItems[ctx]
	items := make(map[uint64][]item, len(own)+1)
	for node, its := range own {
		items[node] = its
	}
	for _, c := range facts.calls {
		it := item{kind: itemCall, seq: c.seq, site: c.call.Site}
		if callee, ok := b.pr.CalleeCtx(ctx, c.call.Site); !ok || !b.relevant[callee] {
			// Irrelevant callee: keep its return-value equation when the
			// result is an integer feeding branch conditions — only in nodes
			// that already matter to this object, so fully irrelevant nodes
			// stay out of the subgraph.
			if len(own[c.node]) == 0 || c.call.Dst == "" || c.call.DstIsObject {
				continue
			}
			it.summary, it.callEdge = true, c.edge
		}
		its := items[c.node]
		if len(its) == len(own[c.node]) {
			its = slices.Clip(its) // copy, not append into, b.nodeItems
		}
		items[c.node] = append(its, it)
	}
	// A node with own and call items holds them out of statement order;
	// restore it by recorded index (each statement is one item).
	for node, its := range items {
		if n := len(own[node]); n > 0 && len(its) > n {
			slices.SortFunc(its, func(x, y item) int { return x.seq - y.seq })
		}
	}
	if _, ok := items[0]; !ok {
		items[0] = nil
	}

	relNodes := make([]uint64, 0, len(items))
	for node := range items {
		relNodes = append(relNodes, node)
	}
	slices.Sort(relNodes)
	// below marks the relevant nodes (true) and their ancestors (false): the
	// nodes whose subtree holds a relevant node.
	below := make(map[uint64]bool, 2*len(relNodes))
	for _, n := range relNodes {
		below[n] = true
	}
	for _, n := range relNodes {
		for n != 0 {
			n = cfet.Parent(n)
			if _, ok := below[n]; ok {
				break
			}
			below[n] = false
		}
	}

	// excArrival(n) is the landing point for exceptional returns of a
	// may-throw call in node n; the catch handler lives in n's true-child
	// subtree (the expansion's If(opaque-throw) branch), and ONLY this
	// point feeds that subtree, correlating "callee threw" with "handler
	// runs".
	excArrival := map[uint64]uint32{}

	// Intra-node chains.
	for _, node := range relNodes {
		its := items[node]
		for i, it := range its {
			prev := b.point(ctx, node, i)
			next := b.point(ctx, node, i+1)
			hereEnc := cfet.Enc{cfet.Interval(m.Method, node, node)}
			switch it.kind {
			case itemAlloc:
				// Anchor the allocation at the CFET root so the branch
				// conditions guarding the allocation itself participate in
				// every composed path constraint (reaching the allocation
				// under x>=0 and later taking an x<0 branch must be unsat).
				b.edge(b.source, next, fsm.EventRel(b.fsm, "new"),
					cfet.Enc{cfet.Interval(m.Method, 0, node)})
				// Identity pass-through: a re-execution of the site (via a
				// shared/recursive clone) creates a different object.
				b.edge(prev, next, id, hereEnc)
			case itemEvent:
				rel := fsm.EventRel(b.fsm, it.event)
				if it.definite {
					b.edge(prev, next, rel, hereEnc)
				} else {
					// Conditional attribution: the event applies under each
					// alias constraint; a may-not-alias bypass keeps paths
					// where the receiver is a different object.
					for _, enc := range it.encs {
						merged, ok := b.pr.IC.Merge(enc, hereEnc)
						if !ok {
							continue
						}
						b.edge(prev, next, rel, merged)
					}
					b.edge(prev, next, id, hereEnc)
				}
			case itemCall:
				if it.summary {
					b.summaryCallEdges(ctx, it, prev, next, hereEnc)
					continue
				}
				callee, _ := b.pr.CalleeCtx(ctx, it.site)
				callEdge := findCallEdge(m, node, it.site)
				if callEdge < 0 {
					b.edge(prev, next, id, hereEnc)
					continue
				}
				// Entry-definite event in the callee: the first statement of
				// the callee is an event whose attribution is implied by
				// entering through this very call edge, so the entering flow
				// observes it unconditionally — land past the event's
				// may-not-alias bypass, applying its relation on the way in.
				calleeEntry := b.point(callee, 0, 0)
				entryRel := id
				if hd := b.nodeItems[callee][0]; len(hd) > 0 &&
					hd[0].kind == itemEvent && hd[0].seq == 0 && hd[0].entryDefinite[callEdge] {
					calleeEntry = b.point(callee, 0, 1)
					entryRel = fsm.EventRel(b.fsm, hd[0].event)
				}
				b.edge(prev, calleeEntry, entryRel, cfet.Enc{cfet.CallElem(callEdge)})
				b.edge(b.exitN[callee], next, id, cfet.Enc{cfet.RetElem(callEdge)})
				if b.factsOf(b.pr.Method(callee)).exits[0]&exitThrow != 0 {
					p := b.vert()
					excArrival[node] = p
					b.edge(b.exitX[callee], p, id, cfet.Enc{cfet.RetElem(callEdge)})
				}
				// No direct pass-through: flows that bypass the callee's
				// events travel the callee's own identity chains (entry ->
				// exit tree/exit edges), so a definite event inside the
				// callee (e.g. a close() helper) is never skipped.
			}
		}
	}

	// treeSource picks the point feeding a descendant `to` of relevant
	// node `from`: the exceptional-arrival point when `to` lies in the
	// catch (true-child) subtree of a may-throw call node, else the node's
	// final position.
	treeSource := func(from, to uint64) uint32 {
		if p, ok := excArrival[from]; ok && to != from && cfet.IsAncestorOrEqual(2*from+2, to) {
			return p
		}
		return b.point(ctx, from, len(items[from]))
	}

	// Tree edges between relevant nodes.
	for _, node := range relNodes {
		if node == 0 {
			continue
		}
		cur := cfet.Parent(node)
		for {
			if below[cur] {
				src := treeSource(cur, node)
				dst := b.point(ctx, node, 0)
				b.edge(src, dst, id, cfet.Enc{cfet.Interval(m.Method, cur, node)})
				break
			}
			if cur == 0 {
				break
			}
			cur = cfet.Parent(cur)
		}
	}

	// Exit edges. Enumerating one edge per leaf would both explode (leaves
	// grow with the CFET) and trip the engine's per-endpoint variant cap,
	// widening away precisely the branch constraints path sensitivity
	// needs. Instead each relevant node emits one edge per *frontier*
	// subtree: a maximal subtree below it containing no relevant node. All
	// leaves inside a frontier subtree share the encoded prefix [node,
	// frontierRoot], and branches below the frontier cannot affect the
	// object (no relevant statements there), so the collapse is exact.
	for _, node := range relNodes {
		b.exitEdgesFrom(ctx, m, facts, node, len(items[node]), below, treeSource)
	}
}

// exitEdgesFrom walks down from a relevant node, emitting one exit edge per
// frontier subtree (and per exit kind present in it). Paths entering a
// deeper relevant node exit via that node's own edges instead.
func (b *objBuilder) exitEdgesFrom(ctx uint32, m *cfet.CFET, facts *methodFacts, node uint64, lastPos int,
	below map[uint64]bool, treeSource func(from, to uint64) uint32) {
	id := fsm.Identity()
	emit := func(d uint64) {
		src := treeSource(node, d)
		enc := cfet.Enc{cfet.Interval(m.Method, node, d)}
		if facts.exits[d]&exitReturn != 0 {
			b.edge(src, b.exitN[ctx], id, enc)
		}
		if facts.exits[d]&exitThrow != 0 {
			b.edge(src, b.exitX[ctx], id, enc)
		}
	}
	// The node itself may be a leaf.
	if n := m.Node(node); n.Leaf != cfet.LeafNone {
		enc := cfet.Enc{cfet.Interval(m.Method, node, node)}
		src := b.point(ctx, node, lastPos)
		if n.Leaf == cfet.LeafThrow {
			b.edge(src, b.exitX[ctx], id, enc)
		} else {
			b.edge(src, b.exitN[ctx], id, enc)
		}
	}
	var walk func(d uint64)
	walk = func(d uint64) {
		if m.Node(d) == nil {
			return
		}
		relevant, hasRelevant := below[d]
		if relevant {
			return // handled by d's own exit edges
		}
		if !hasRelevant {
			emit(d)
			return
		}
		walk(2*d + 1)
		walk(2*d + 2)
	}
	walk(2*node + 1)
	walk(2*node + 2)
}
