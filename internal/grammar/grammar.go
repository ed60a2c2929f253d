// Package grammar implements the context-free grammars that guide Grapple's
// dynamic transitive-closure computation (paper §2.1 "Graph Formulation").
//
// Grammars are normalized so every production has at most two right-hand
// symbols (the paper notes any CFG can be binarized, à la Chomsky normal
// form), which is what lets the engine examine one edge pair at a time.
// A label may also declare a mirror: producing an edge x->y with label A
// then also produces y->x with label mirror(A) and the same path encoding —
// this realizes the "bar" edges (flowsTo-bar) of the pointer grammar.
package grammar

import "fmt"

// Label identifies a terminal or nonterminal edge label.
type Label uint16

// NoLabel is an invalid label.
const NoLabel Label = 0xffff

// Grammar is a binarized context-free grammar over edge labels.
type Grammar struct {
	names  []string
	byName map[string]Label

	unary  map[Label][]Label
	binary map[uint32][]Label
	mirror map[Label]Label
	// hasLeft[b] (hasRight[c]) is set when some binary production has label b
	// as its first (label c as its second) symbol; AddBinary keeps both in
	// step with binary.
	hasLeft, hasRight []bool

	// Final marks labels whose edges are analysis results (e.g. flowsTo,
	// alias); the engine reports counts per final label.
	final map[Label]bool

	// err records label-space exhaustion (sticky); see Err.
	err error
}

// New returns an empty grammar.
func New() *Grammar {
	return &Grammar{
		byName: map[string]Label{},
		unary:  map[Label][]Label{},
		binary: map[uint32][]Label{},
		mirror: map[Label]Label{},
		final:  map[Label]bool{},
	}
}

// Intern returns the label for name, creating it if needed. When the 16-bit
// label space is exhausted it returns NoLabel and records a sized error
// (see Err) instead of crashing mid-run; callers building grammars from
// program-derived names (one store/load pair per distinct field) check Err
// once after construction.
func (g *Grammar) Intern(name string) Label {
	if l, ok := g.byName[name]; ok {
		return l
	}
	l := Label(len(g.names))
	if l == NoLabel {
		if g.err == nil {
			g.err = fmt.Errorf("grammar: label space exhausted: %d labels interned, limit %d; the input declares too many distinct field names for one analysis unit — split the package or reduce tracked fields",
				len(g.names), NoLabel)
		}
		return NoLabel
	}
	g.names = append(g.names, name)
	g.byName[name] = l
	return l
}

// Err reports label-space exhaustion: nil, or one sized error no matter how
// many Intern calls overflowed.
func (g *Grammar) Err() error { return g.err }

// Lookup returns the label for name, or NoLabel.
func (g *Grammar) Lookup(name string) Label {
	if l, ok := g.byName[name]; ok {
		return l
	}
	return NoLabel
}

// Name returns the name of a label.
func (g *Grammar) Name(l Label) string {
	if int(l) < len(g.names) {
		return g.names[l]
	}
	return fmt.Sprintf("label(%d)", l)
}

// NumLabels reports the number of interned labels.
func (g *Grammar) NumLabels() int { return len(g.names) }

// AddUnary adds A ::= B.
func (g *Grammar) AddUnary(a, b Label) { g.unary[b] = append(g.unary[b], a) }

// AddBinary adds A ::= B C.
func (g *Grammar) AddBinary(a, b, c Label) {
	k := binKey(b, c)
	g.binary[k] = append(g.binary[k], a)
	g.hasLeft = mark(g.hasLeft, b)
	g.hasRight = mark(g.hasRight, c)
}

// mark sets set[l], growing the table to reach it.
func mark(set []bool, l Label) []bool {
	if int(l) >= len(set) {
		set = append(set, make([]bool, int(l)+1-len(set))...)
	}
	set[l] = true
	return set
}

// SetMirror declares that producing label a also produces rev on the
// reversed edge.
func (g *Grammar) SetMirror(a, rev Label) { g.mirror[a] = rev }

// Mirror returns the mirror label of a, or NoLabel.
func (g *Grammar) Mirror(a Label) Label {
	if m, ok := g.mirror[a]; ok {
		return m
	}
	return NoLabel
}

// SetFinal marks a label as an analysis result.
func (g *Grammar) SetFinal(a Label) { g.final[a] = true }

// IsFinal reports whether a label is an analysis result.
func (g *Grammar) IsFinal(a Label) bool { return g.final[a] }

// MatchBinary returns the heads A with A ::= B C.
func (g *Grammar) MatchBinary(b, c Label) []Label { return g.binary[binKey(b, c)] }

// MatchUnary returns the heads A with A ::= B.
func (g *Grammar) MatchUnary(b Label) []Label { return g.unary[b] }

// HasLeft reports whether any binary production starts with label b; the
// engine uses this to skip edges that can never begin a match.
func (g *Grammar) HasLeft(b Label) bool {
	return int(b) < len(g.hasLeft) && g.hasLeft[b]
}

// HasRight reports whether any binary production ends with label c: only
// such an edge can be the second of a matching pair, so only such edges are
// worth indexing by source vertex.
func (g *Grammar) HasRight(c Label) bool {
	return int(c) < len(g.hasRight) && g.hasRight[c]
}

func binKey(b, c Label) uint32 { return uint32(b)<<16 | uint32(c) }

// Pointer builds the Sridharan-Bodik pointer-analysis grammar of Fig. 4:
//
//	flowsTo ::= new (assign | store[f] alias load[f])*
//	alias   ::= flowsToBar flowsTo
//
// binarized per field f as:
//
//	VF   ::= new | VF assign | VF T2_f
//	T1_f ::= store_f alias
//	T2_f ::= T1_f load_f
//	AL   ::= VFbar VF
//
// with VFbar the mirror of VF (and newBar the mirror of new so a lone new
// edge already yields a usable reversed leg).
type Pointer struct {
	G       *Grammar
	New     Label
	Assign  Label
	FlowsTo Label
	Bar     Label // flowsToBar
	Alias   Label
	Store   map[string]Label
	Load    map[string]Label
}

// NewPointer builds the pointer grammar over the given field names.
func NewPointer(fields []string) *Pointer {
	g := New()
	p := &Pointer{
		G:      g,
		Store:  map[string]Label{},
		Load:   map[string]Label{},
		New:    g.Intern("new"),
		Assign: g.Intern("assign"),
	}
	p.FlowsTo = g.Intern("flowsTo")
	p.Bar = g.Intern("flowsToBar")
	p.Alias = g.Intern("alias")

	// VF ::= new  — and every VF edge mirrors to VFbar.
	g.AddUnary(p.FlowsTo, p.New)
	g.SetMirror(p.FlowsTo, p.Bar)
	// VF ::= VF assign
	g.AddBinary(p.FlowsTo, p.FlowsTo, p.Assign)
	// AL ::= VFbar VF
	g.AddBinary(p.Alias, p.Bar, p.FlowsTo)

	for _, f := range fields {
		st := g.Intern("store[" + f + "]")
		ld := g.Intern("load[" + f + "]")
		p.Store[f] = st
		p.Load[f] = ld
		t1 := g.Intern("t1[" + f + "]")
		t2 := g.Intern("t2[" + f + "]")
		// T1_f ::= store_f alias ; T2_f ::= T1_f load_f ; VF ::= VF T2_f
		g.AddBinary(t1, st, p.Alias)
		g.AddBinary(t2, t1, ld)
		g.AddBinary(p.FlowsTo, p.FlowsTo, t2)
	}
	g.SetFinal(p.FlowsTo)
	g.SetFinal(p.Alias)
	return p
}

// Dataflow is the transitive-closure grammar of the dataflow/typestate graph,
// in left-linear form:
//
//	flow ::= step step | flow step
//
// Base edges carry step, so a flow is only ever extended by one base edge and
// a path of n base edges has exactly one derivation (flow ::= flow flow, the
// form this replaced, re-derives it at each of its n-1 split points). The
// closed flows are step ∪ flow. Edge composition carries the FSM transition
// relation (handled by the engine's relation hook).
//
// flow ::= step as a unary production would say the same with one label to
// read, but preprocess would then expand every base edge into two parallel
// ones, which re-permutes the order same-endpoint variants arrive in and so
// which of them the variant cap keeps (DESIGN.md, "Typestate as transitive
// closure").
type Dataflow struct {
	G    *Grammar
	Step Label // what base edges carry; label 0
	Flow Label // a path of two or more steps
}

// NewDataflow builds the dataflow grammar.
func NewDataflow() *Dataflow {
	g := New()
	d := &Dataflow{G: g, Step: g.Intern("step"), Flow: g.Intern("flow")}
	g.AddBinary(d.Flow, d.Step, d.Step)
	g.AddBinary(d.Flow, d.Flow, d.Step)
	g.SetFinal(d.Step)
	g.SetFinal(d.Flow)
	return d
}
