// Package pgraph generates the program graphs Grapple processes (paper
// §4.1): the pointer/alias graph over Fig. 4 edges and the dataflow/
// typestate graph, both made context sensitive by bottom-up cloning of
// callee graphs into callers.
//
// Cloning is realized as a context tree: a context is one clone of a method,
// created per (caller context, call site) for non-recursive methods.
// Methods in call-graph SCCs (recursion) get a single shared context and are
// treated context-insensitively, exactly as the paper prescribes (§2.1).
// Parameter-passing and value-return edges connect clones and carry their
// ICFET call/return edge IDs in the path encoding so decoding can match
// parentheses (§4.1).
package pgraph

import (
	"fmt"

	"github.com/grapple-system/grapple/internal/callgraph"
	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
)

// maxContexts caps the number of clones; beyond it new call sites reuse the
// callee's shared (context-insensitive) clone. maxDepth caps the context-tree
// depth the same way.
const (
	maxContexts = 4096
	maxDepth    = 32
)

// Options shapes the cloning.
type Options struct {
	// Skip, when non-nil, names methods the property-relevance slicer
	// dropped: call sites into them get no callee context at all (their
	// CFETs are single-return stubs anyway), so the context tree never
	// grows below them.
	Skip func(name string) bool
}

// NoContext marks absent parent contexts.
const NoContext = ^uint32(0)

// Context is one clone of a method.
type Context struct {
	ID     uint32
	Method cfet.MethodID
	// Parent is the calling context (NoContext for roots).
	Parent uint32
	// Site is the IR call site that created this clone (-1 for roots).
	Site int32
	// Depth in the context tree.
	Depth int
	// Shared marks the context-insensitive clone of a recursive method (or
	// a budget-overflow fallback).
	Shared bool
}

// Program holds the context tree plus vertex tables for graph generation.
type Program struct {
	IR   *ir.Program
	CG   *callgraph.Graph
	IC   *cfet.ICFET
	Opts Options

	Contexts []Context
	// Roots are the entry contexts.
	Roots []uint32
	// children maps (ctx, site) -> callee ctx.
	children map[ctxSiteKey]uint32
	// Callers is the reverse of children: callee ctx -> calling (ctx, site)
	// pairs (a shared clone has many callers).
	Callers map[uint32][]ctxSiteKey
	// sharedCtx maps a method to its context-insensitive clone.
	sharedCtx map[cfet.MethodID]uint32
	// ContextOverflow counts call sites that fell back to shared clones.
	ContextOverflow int
}

type ctxSiteKey struct {
	ctx  uint32
	site int32
}

// NewProgram enumerates the context tree from the call-graph roots.
func NewProgram(p *ir.Program, cg *callgraph.Graph, ic *cfet.ICFET, opts Options) *Program {
	pr := &Program{
		IR: p, CG: cg, IC: ic, Opts: opts,
		children:  map[ctxSiteKey]uint32{},
		Callers:   map[uint32][]ctxSiteKey{},
		sharedCtx: map[cfet.MethodID]uint32{},
	}
	for _, root := range cg.Roots() {
		mid, ok := ic.MethodByName[root]
		if !ok {
			continue
		}
		id := pr.newContext(mid, NoContext, -1, 0, false)
		pr.Roots = append(pr.Roots, id)
		pr.expand(id)
	}
	return pr
}

func (pr *Program) newContext(m cfet.MethodID, parent uint32, site int32, depth int, shared bool) uint32 {
	id := uint32(len(pr.Contexts))
	pr.Contexts = append(pr.Contexts, Context{
		ID: id, Method: m, Parent: parent, Site: site, Depth: depth, Shared: shared,
	})
	return id
}

// shared returns (creating if needed) the context-insensitive clone of m.
func (pr *Program) shared(m cfet.MethodID) uint32 {
	if id, ok := pr.sharedCtx[m]; ok {
		return id
	}
	id := pr.newContext(m, NoContext, -1, 0, true)
	pr.sharedCtx[m] = id
	pr.expandShared(id)
	return id
}

// expand creates callee contexts for every call site in ctx's method.
func (pr *Program) expand(ctx uint32) {
	c := pr.Contexts[ctx]
	name := pr.IC.Methods[c.Method].Name
	for _, call := range pr.CG.CallSites[name] {
		calleeID, ok := pr.IC.MethodByName[call.Callee]
		if !ok {
			continue
		}
		if pr.Opts.Skip != nil && pr.Opts.Skip(call.Callee) {
			continue
		}
		key := ctxSiteKey{ctx: ctx, site: call.Site}
		if _, done := pr.children[key]; done {
			continue
		}
		switch {
		case pr.CG.IsRecursive(call.Callee):
			pr.setChild(key, pr.shared(calleeID))
		case len(pr.Contexts) >= maxContexts || c.Depth+1 >= maxDepth:
			pr.ContextOverflow++
			pr.setChild(key, pr.shared(calleeID))
		default:
			child := pr.newContext(calleeID, ctx, call.Site, c.Depth+1, false)
			pr.setChild(key, child)
			pr.expand(child)
		}
	}
}

// expandShared wires a shared clone's call sites to shared callee clones
// (context-insensitive region).
func (pr *Program) expandShared(ctx uint32) {
	c := pr.Contexts[ctx]
	name := pr.IC.Methods[c.Method].Name
	for _, call := range pr.CG.CallSites[name] {
		calleeID, ok := pr.IC.MethodByName[call.Callee]
		if !ok {
			continue
		}
		if pr.Opts.Skip != nil && pr.Opts.Skip(call.Callee) {
			continue
		}
		key := ctxSiteKey{ctx: ctx, site: call.Site}
		if _, done := pr.children[key]; done {
			continue
		}
		pr.setChild(key, pr.shared(calleeID))
	}
}

// setChild records a (ctx, site) -> callee mapping and its reverse.
func (pr *Program) setChild(key ctxSiteKey, callee uint32) {
	pr.children[key] = callee
	pr.Callers[callee] = append(pr.Callers[callee], key)
}

// CalleeCtx returns the callee context for (ctx, call site).
func (pr *Program) CalleeCtx(ctx uint32, site int32) (uint32, bool) {
	id, ok := pr.children[ctxSiteKey{ctx: ctx, site: site}]
	return id, ok
}

// Method returns the CFET of a context's method.
func (pr *Program) Method(ctx uint32) *cfet.CFET {
	return pr.IC.Methods[pr.Contexts[ctx].Method]
}

// ObjID identifies a tracked object: an allocation site under a context.
type ObjID struct {
	Ctx  uint32
	Site int32
}

// ObjInfo describes a tracked allocation instance.
type ObjInfo struct {
	ID   ObjID
	Type string
	Pos  lang.Pos
	// Node is the CFET node of the allocation (first occurrence).
	Node uint64
}

// String renders an object for reports.
func (o ObjInfo) String() string {
	return fmt.Sprintf("%s@%s(ctx%d)", o.Type, o.Pos, o.ID.Ctx)
}
