package pgraph

import (
	"sort"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/grammar"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/storage"
)

// VarKey identifies a variable-instance vertex: per the paper (§4.1), a
// separate vertex exists for each variable in each extended basic block it
// appears in, per clone.
type VarKey struct {
	Ctx  uint32
	Node uint64
	Name string
}

// AliasGraph is the program graph for the pointer/alias analysis.
type AliasGraph struct {
	Ptr *grammar.Pointer

	VarVert map[VarKey]uint32
	ObjVert map[ObjID]uint32
	// RevVar maps vertex IDs back to variable instances (for event
	// attribution and reporting); nil entries are object vertices.
	RevVar []*VarKey
	RevObj map[uint32]ObjID

	Edges   []storage.Edge
	Objects []ObjInfo
	// NumVerts sizes the engine's vertex space.
	NumVerts uint32

	objSeen map[ObjID]bool
	// appearances collects, per context, the nodes each variable occurs in.
	appearances map[VarKey]bool
}

// BuildAlias generates the alias program graph for all contexts.
func BuildAlias(pr *Program) *AliasGraph {
	fields := collectFields(pr.IR)
	ag := &AliasGraph{
		Ptr:         grammar.NewPointer(fields),
		VarVert:     map[VarKey]uint32{},
		ObjVert:     map[ObjID]uint32{},
		RevObj:      map[uint32]ObjID{},
		objSeen:     map[ObjID]bool{},
		appearances: map[VarKey]bool{},
	}
	for ctx := range pr.Contexts {
		ag.buildCtx(pr, uint32(ctx))
	}
	ag.addArtificialEdges(pr)
	return ag
}

func collectFields(p *ir.Program) []string {
	set := map[string]bool{}
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		for _, s := range b.Stmts {
			switch s := s.(type) {
			case *ir.Store:
				set[s.Field] = true
			case *ir.Load:
				set[s.Field] = true
			case *ir.If:
				walk(s.Then)
				walk(s.Else)
			}
		}
	}
	for _, fn := range p.Funs {
		walk(fn.Body)
	}
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

func (ag *AliasGraph) varVert(k VarKey) uint32 {
	if v, ok := ag.VarVert[k]; ok {
		return v
	}
	v := ag.NumVerts
	ag.NumVerts++
	ag.VarVert[k] = v
	kk := k
	ag.RevVar = append(ag.RevVar, &kk)
	return v
}

func (ag *AliasGraph) objVert(o ObjID) uint32 {
	if v, ok := ag.ObjVert[o]; ok {
		return v
	}
	v := ag.NumVerts
	ag.NumVerts++
	ag.ObjVert[o] = v
	ag.RevVar = append(ag.RevVar, nil)
	ag.RevObj[v] = o
	return v
}

// appear registers that a variable occurs in a node (for artificial edges
// and event attribution) and returns its vertex.
func (ag *AliasGraph) appear(ctx uint32, node uint64, name string) uint32 {
	k := VarKey{Ctx: ctx, Node: node, Name: name}
	ag.appearances[k] = true
	return ag.varVert(k)
}

func (ag *AliasGraph) edge(src, dst uint32, label grammar.Label, enc cfet.Enc) {
	ag.Edges = append(ag.Edges, storage.Edge{Src: src, Dst: dst, Label: label, Enc: enc})
}

func here(m cfet.MethodID, n uint64) cfet.Enc {
	return cfet.Enc{cfet.Interval(m, n, n)}
}

// buildCtx emits Fig. 4 edges for every statement instance in one clone.
func (ag *AliasGraph) buildCtx(pr *Program, ctx uint32) {
	m := pr.Method(ctx)
	// Formal parameters of object type appear at the root block.
	fn := m.Fn
	for _, p := range fn.Params {
		if p.Type != "int" && p.Type != "bool" {
			ag.appear(ctx, 0, p.Name)
		}
	}
	for i, node := range m.NodeIDs {
		n := m.Nodes[i]
		for _, ps := range n.Stmts {
			switch s := ps.Stmt.(type) {
			case *ir.NewObj:
				o := ObjID{Ctx: ctx, Site: s.Site}
				ov := ag.objVert(o)
				if !ag.objSeen[o] {
					ag.objSeen[o] = true
					ag.Objects = append(ag.Objects, ObjInfo{
						ID: o, Type: s.Type, Pos: s.Pos, Node: node,
					})
				}
				dv := ag.appear(ctx, node, s.Dst)
				ag.edge(ov, dv, ag.Ptr.New, here(m.Method, node))
			case *ir.ObjAssign:
				if s.Src == "" {
					continue // null assignment: no object flow
				}
				sv := ag.appear(ctx, node, s.Src)
				dv := ag.appear(ctx, node, s.Dst)
				ag.edge(sv, dv, ag.Ptr.Assign, here(m.Method, node))
			case *ir.Store:
				sv := ag.appear(ctx, node, s.Src)
				rv := ag.appear(ctx, node, s.Recv)
				ag.edge(sv, rv, ag.Ptr.Store[s.Field], here(m.Method, node))
			case *ir.Load:
				rv := ag.appear(ctx, node, s.Recv)
				dv := ag.appear(ctx, node, s.Dst)
				ag.edge(rv, dv, ag.Ptr.Load[s.Field], here(m.Method, node))
			case *ir.Event:
				// Events add no alias edge but the receiver instance must
				// exist so phase 2 can attribute events via flowsTo.
				ag.appear(ctx, node, s.Recv)
			case *ir.Call:
				ag.callEdges(pr, ctx, node, s, ps.CallEdge)
			case *ir.CatchBind:
				if s.FromCall >= 0 {
					ag.excReturnEdges(pr, ctx, node, s)
				} else {
					ag.appear(ctx, node, s.Var)
				}
			case *ir.Return:
				if s.SrcIsObject && s.Src.Var != "" {
					ag.appear(ctx, node, s.Src.Var)
				}
			}
		}
	}
}

// callEdges emits parameter-passing and value-return edges (paper §4.1),
// annotated with the ICFET call edge ID so decoding matches parentheses.
func (ag *AliasGraph) callEdges(pr *Program, ctx uint32, node uint64, s *ir.Call, callEdge int32) {
	cc, ok := pr.CalleeCtx(ctx, s.Site)
	if !ok || callEdge < 0 {
		return
	}
	callee := pr.Method(cc)
	for _, a := range s.ObjArgs {
		av := ag.appear(ctx, node, a.Arg)
		fv := ag.appear(cc, 0, a.Formal)
		ag.edge(av, fv, ag.Ptr.Assign, cfet.Enc{cfet.CallElem(callEdge)})
	}
	if s.DstIsObject && s.Dst != "" {
		dv := ag.appear(ctx, node, s.Dst)
		for _, leaf := range callee.Leaves {
			ln := callee.Node(leaf)
			if ln.Leaf != cfet.LeafReturn || ln.Ret.ObjVar == "" {
				continue
			}
			rv := ag.appear(cc, leaf, ln.Ret.ObjVar)
			ag.edge(rv, dv, ag.Ptr.Assign, cfet.Enc{cfet.RetElem(callEdge)})
		}
	}
}

// excReturnEdges wires a callee's uncaught exception object ($exc at each
// exceptional leaf) to the catching/propagating variable in the caller.
func (ag *AliasGraph) excReturnEdges(pr *Program, ctx uint32, node uint64, s *ir.CatchBind) {
	cc, ok := pr.CalleeCtx(ctx, s.FromCall)
	if !ok {
		return
	}
	m := pr.Method(ctx)
	callEdge := findCallEdge(m, node, s.FromCall)
	if callEdge < 0 {
		return
	}
	callee := pr.Method(cc)
	dv := ag.appear(ctx, node, s.Var)
	for _, leaf := range callee.Leaves {
		ln := callee.Node(leaf)
		if ln.Leaf != cfet.LeafThrow {
			continue
		}
		ev := ag.appear(cc, leaf, ir.ExcVar)
		ag.edge(ev, dv, ag.Ptr.Assign, cfet.Enc{cfet.RetElem(callEdge)})
	}
}

// findCallEdge locates the ICFET call edge for the call with the given IR
// site at or above `node` (the CatchBind sits in a child of the node that
// made the call).
func findCallEdge(m *cfet.CFET, node uint64, site int32) int32 {
	for n := m.Node(node); n != nil; n = n.Parent {
		for _, ps := range n.Stmts {
			if c, ok := ps.Stmt.(*ir.Call); ok && c.Site == site && ps.CallEdge >= 0 {
				return ps.CallEdge
			}
		}
	}
	return -1
}

// addArtificialEdges connects each variable's instances along tree paths:
// an assign edge vi -> vj with encoding [bi, bj] whenever bi is the nearest
// appearance ancestor of bj (paper §4.1, Fig. 5b's {[0,2]} edge).
func (ag *AliasGraph) addArtificialEdges(pr *Program) {
	// Group appearances by (ctx, name).
	type groupKey struct {
		ctx  uint32
		name string
	}
	groups := map[groupKey]map[uint64]bool{}
	for k := range ag.appearances {
		gk := groupKey{ctx: k.Ctx, name: k.Name}
		if groups[gk] == nil {
			groups[gk] = map[uint64]bool{}
		}
		groups[gk][k.Node] = true
	}
	for gk, nodes := range groups {
		m := pr.Method(gk.ctx)
		for node := range nodes {
			if node == 0 {
				continue
			}
			// Walk up to the nearest appearance ancestor.
			cur := cfet.Parent(node)
			for {
				if nodes[cur] {
					src := ag.varVert(VarKey{Ctx: gk.ctx, Node: cur, Name: gk.name})
					dst := ag.varVert(VarKey{Ctx: gk.ctx, Node: node, Name: gk.name})
					ag.edge(src, dst, ag.Ptr.Assign,
						cfet.Enc{cfet.Interval(m.Method, cur, node)})
					break
				}
				if cur == 0 {
					break
				}
				cur = cfet.Parent(cur)
			}
		}
	}
}
