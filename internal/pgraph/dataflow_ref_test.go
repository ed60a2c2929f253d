package pgraph

import (
	"sort"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/grammar"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/storage"
)

// This file keeps the dataflow-graph builder that per-method facts replaced,
// as the oracle TestBuildDataflowMatchesReference holds BuildDataflow to. It
// re-derives every object-independent fact of a CFET for every object and
// context: it scans the allocation's whole method per object, every node of
// every relevant clone for calls, and sorts and summarizes every node's
// subtree per clone. Apart from its names and the RefCounts tally it is the
// code it was; the data types (item, pointKey), the constants and
// findCallEdge are shared with BuildDataflow.

// RefCounts tallies the event items the reference built by attribution kind,
// so a test can see that its flows reach every path of eventItem.
type RefCounts struct {
	Definite, MayAlias, EntryDefinite int
}

// buildDataflowRef generates the phase-2 graph for every tracked object.
// fsmFor maps an object type to its FSM (nil = untracked).
func buildDataflowRef(pr *Program, flows AliasResult, ag *AliasGraph,
	fsmFor func(typ string) *fsm.FSM) (*DataflowGraph, RefCounts) {
	dg := &DataflowGraph{D: grammar.NewDataflow()}
	var counts RefCounts
	for _, obj := range ag.Objects {
		f := fsmFor(obj.Type)
		if f == nil {
			continue
		}
		b := &refBuilder{pr: pr, dg: dg, obj: obj, fsm: f,
			pointees: flows.Pointees, points: map[pointKey]uint32{}, counts: &counts}
		b.build(flows.Flows[obj.ID])
	}
	return dg, counts
}

type refBuilder struct {
	pr     *Program
	dg     *DataflowGraph
	obj    ObjInfo
	fsm    *fsm.FSM
	counts *RefCounts

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

func (b *refBuilder) vert() uint32 {
	v := b.dg.NumVerts
	b.dg.NumVerts++
	return v
}

func (b *refBuilder) point(ctx uint32, node uint64, pos int) uint32 {
	k := pointKey{ctx: ctx, node: node, pos: pos}
	if v, ok := b.points[k]; ok {
		return v
	}
	v := b.vert()
	b.points[k] = v
	return v
}

func (b *refBuilder) edge(src, dst uint32, rel fsm.Rel, enc cfet.Enc) {
	b.dg.Edges = append(b.dg.Edges, storage.Edge{
		Src: src, Dst: dst, Label: b.dg.D.Step, HasRel: true, Rel: rel, Enc: enc,
	})
}

// build assembles the object's subgraph.
func (b *refBuilder) build(targets []FlowTarget) {
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

func (b *refBuilder) isRootCtx(c uint32) bool {
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
func (b *refBuilder) collectItems(targets []FlowTarget) {
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
	visit := func(ctx uint32, node uint64, n *cfet.Node) {
		for si, ps := range n.Stmts {
			switch s := ps.Stmt.(type) {
			case *ir.NewObj:
				if ctx == b.obj.ID.Ctx && s.Site == b.obj.ID.Site {
					add(ctx, node, item{kind: itemAlloc, seq: si, event: "new", definite: true})
				}
			case *ir.Event:
				fts := aliased[nk{ctx, node}][s.Recv]
				if len(fts) == 0 {
					continue
				}
				it := b.eventItem(s.Method, ctx, node, s.Recv, fts)
				it.seq = si
				add(ctx, node, it)
			case *ir.CatchBind:
				if s.Var == ir.ExcVar {
					continue // propagation, not a catch
				}
				fts := aliased[nk{ctx, node}][s.Var]
				if len(fts) == 0 {
					continue
				}
				it := b.eventItem("catch", ctx, node, s.Var, fts)
				it.seq = si
				add(ctx, node, it)
			}
		}
	}
	// Which (ctx,node) pairs to scan: alias targets plus the allocation ctx.
	scanned := map[nk]bool{}
	for k := range aliased {
		m := b.pr.Method(k.ctx)
		if n := m.Node(k.node); n != nil && !scanned[k] {
			scanned[k] = true
			visit(k.ctx, k.node, n)
		}
	}
	allocM := b.pr.Method(b.obj.ID.Ctx)
	for _, n := range allocM.Nodes {
		k := nk{b.obj.ID.Ctx, n.ID}
		if !scanned[k] {
			scanned[k] = true
			visit(b.obj.ID.Ctx, n.ID, n)
		}
	}
}

// eventItem builds an event item, deciding whether the attribution is
// *definite* (must-alias): the receiver instance has a unique pointee and
// the decoded attribution constraint is subsumed by the branch constraint
// of simply reaching the event's node — then any flow arriving here
// definitely observes the event and no may-not-alias bypass is added.
func (b *refBuilder) eventItem(event string, ctx uint32, node uint64, recv string, fts []FlowTarget) item {
	it := item{kind: itemEvent, event: event}
	unique := b.pointees[VarKey{Ctx: ctx, Node: node, Name: recv}] <= 1
	m := b.pr.Method(ctx)
	var pathKeys map[string]bool
	if unique {
		if pathConj, err := m.PathConstraint(0, node, nil, nil); err == nil {
			pathKeys = map[string]bool{}
			for _, a := range pathConj {
				pathKeys[a.Key()] = true
			}
		}
	}
	for _, ft := range fts {
		if unique && pathKeys != nil && b.subsumedByPath(ft.Enc, m, node, pathKeys) {
			it.definite = true
			it.encs = nil
			b.counts.Definite++
			return it
		}
		it.encs = append(it.encs, ft.Enc)
	}
	b.counts.MayAlias++
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
							b.counts.EntryDefinite++
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
func (b *refBuilder) entryCovered(enc cfet.Enc, ctx uint32, node uint64, entry int32) bool {
	m := b.pr.Method(ctx)
	pathConj, err := m.PathConstraint(0, node, nil, nil)
	if err != nil {
		return false
	}
	pathKeys := map[string]bool{}
	for _, a := range pathConj {
		pathKeys[a.Key()] = true
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
	callConj, err := pm.PathConstraint(0, ce.CallerNode, nil, nil)
	if err != nil {
		return false
	}
	callKeys := map[string]bool{}
	for _, a := range callConj {
		callKeys[a.Key()] = true
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

// subsumedByPath reports whether the attribution encoding adds no
// constraint beyond reaching `node` in method m.
func (b *refBuilder) subsumedByPath(enc cfet.Enc, m *cfet.CFET, node uint64, pathKeys map[string]bool) bool {
	merged, ok := b.pr.IC.Merge(enc, cfet.Enc{cfet.Interval(m.Method, node, node)})
	if !ok {
		return false
	}
	conj, err := b.pr.IC.Decode(merged)
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
func (b *refBuilder) computeRelevance() bool {
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

// summaryCallEdges emits identity edges through an irrelevant callee, one
// per callee exit path, so the return-value equation ("y = a - 1") and the
// callee's internal branch constraints join the path constraint exactly as
// they would in the paper's fully-inlined program graph.
func (b *refBuilder) summaryCallEdges(ctx uint32, it item, prev, next uint32, hereEnc cfet.Enc) {
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

// refHasThrowLeaf reports whether a method can exit exceptionally.
func refHasThrowLeaf(m *cfet.CFET) bool {
	for _, l := range m.Leaves {
		if m.Node(l).Leaf == cfet.LeafThrow {
			return true
		}
	}
	return false
}

// buildCtx emits the intra-clone chains, tree edges, call/return edges, and
// exit edges for one relevant context.
func (b *refBuilder) buildCtx(ctx uint32) {
	m := b.pr.Method(ctx)
	id := fsm.Identity()

	// Relevant nodes: those with items or relevant call items, plus the
	// root. Call items are discovered here (calls into relevant contexts).
	items := map[uint64][]item{}
	for node, its := range b.nodeItems[ctx] {
		items[node] = its
	}
	for _, n := range m.Nodes {
		node := n.ID
		// Only nodes that already matter to this object (or the root chain)
		// get summary call items; fully irrelevant nodes stay out of the
		// subgraph.
		nodeMatters := len(b.nodeItems[ctx][node]) > 0
		for si, ps := range n.Stmts {
			c, ok := ps.Stmt.(*ir.Call)
			if !ok || ps.CallEdge < 0 {
				continue
			}
			callee, okc := b.pr.CalleeCtx(ctx, c.Site)
			if okc && b.relevant[callee] {
				items[node] = append(items[node], item{kind: itemCall, seq: si, site: c.Site})
				continue
			}
			// Irrelevant callee: keep its return-value equation when the
			// result is an integer feeding branch conditions.
			if nodeMatters && c.Dst != "" && !c.DstIsObject {
				items[node] = append(items[node],
					item{kind: itemCall, seq: si, site: c.Site, summary: true, callEdge: ps.CallEdge})
			}
		}
	}
	// Items were appended out of statement order when a node has both event
	// and call items; restore true statement order by recorded index.
	for node := range items {
		its := items[node]
		sort.SliceStable(its, func(i, j int) bool { return its[i].seq < its[j].seq })
	}
	if _, ok := items[0]; !ok {
		items[0] = nil
	}

	relNodes := make([]uint64, 0, len(items))
	for node := range items {
		relNodes = append(relNodes, node)
	}
	sort.Slice(relNodes, func(i, j int) bool { return relNodes[i] < relNodes[j] })
	isRel := map[uint64]bool{}
	for _, n := range relNodes {
		isRel[n] = true
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
				if refHasThrowLeaf(b.pr.Method(callee)) {
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
			if isRel[cur] {
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
	sub := b.refSubtreeInfo(m, isRel)
	for _, node := range relNodes {
		b.exitEdgesFrom(ctx, m, node, len(items[node]), sub, isRel, treeSource)
	}
}

// refSubtreeSummary records, per CFET node, whether its subtree contains a
// relevant node and which leaf kinds it can end at.
type refSubtreeSummary struct {
	hasRelevant bool
	hasReturn   bool
	hasThrow    bool
}

// refSubtreeInfo computes subtree summaries bottom-up (descending node IDs:
// children have larger IDs than parents in the Eytzinger numbering).
func (b *refBuilder) refSubtreeInfo(m *cfet.CFET, isRel map[uint64]bool) map[uint64]*refSubtreeSummary {
	ids := make([]uint64, 0, len(m.Nodes))
	for _, n := range m.Nodes {
		ids = append(ids, n.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] > ids[j] })
	sub := make(map[uint64]*refSubtreeSummary, len(ids))
	for _, id := range ids {
		n := m.Node(id)
		s := &refSubtreeSummary{hasRelevant: isRel[id]}
		switch n.Leaf {
		case cfet.LeafReturn, cfet.LeafTruncate:
			s.hasReturn = true
		case cfet.LeafThrow:
			s.hasThrow = true
		}
		for _, child := range [2]uint64{2*id + 1, 2*id + 2} {
			if cs, ok := sub[child]; ok {
				s.hasRelevant = s.hasRelevant || cs.hasRelevant
				s.hasReturn = s.hasReturn || cs.hasReturn
				s.hasThrow = s.hasThrow || cs.hasThrow
			}
		}
		sub[id] = s
	}
	return sub
}

// exitEdgesFrom walks down from a relevant node, emitting one exit edge per
// frontier subtree (and per exit kind present in it). Paths entering a
// deeper relevant node exit via that node's own edges instead.
func (b *refBuilder) exitEdgesFrom(ctx uint32, m *cfet.CFET, node uint64, lastPos int,
	sub map[uint64]*refSubtreeSummary, isRel map[uint64]bool,
	treeSource func(from, to uint64) uint32) {
	id := fsm.Identity()
	emit := func(d uint64) {
		s := sub[d]
		src := treeSource(node, d)
		enc := cfet.Enc{cfet.Interval(m.Method, node, d)}
		if s.hasReturn {
			b.edge(src, b.exitN[ctx], id, enc)
		}
		if s.hasThrow {
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
		s, ok := sub[d]
		if !ok {
			return
		}
		if isRel[d] {
			return // handled by d's own exit edges
		}
		if !s.hasRelevant {
			emit(d)
			return
		}
		walk(2*d + 1)
		walk(2*d + 2)
	}
	walk(2*node + 1)
	walk(2*node + 2)
}
