package grammar

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

func TestInternStable(t *testing.T) {
	g := New()
	a := g.Intern("assign")
	if g.Intern("assign") != a {
		t.Fatal("intern not stable")
	}
	if g.Lookup("assign") != a {
		t.Fatal("lookup failed")
	}
	if g.Lookup("nope") != NoLabel {
		t.Fatal("lookup of unknown must be NoLabel")
	}
	if g.Name(a) != "assign" {
		t.Fatal("name round trip")
	}
}

func TestPointerGrammarRules(t *testing.T) {
	p := NewPointer([]string{"f", "g"})
	g := p.G
	// VF ::= new (unary).
	heads := g.MatchUnary(p.New)
	if len(heads) != 1 || heads[0] != p.FlowsTo {
		t.Fatalf("unary heads: %v", heads)
	}
	// VF ::= VF assign.
	heads = g.MatchBinary(p.FlowsTo, p.Assign)
	if len(heads) != 1 || heads[0] != p.FlowsTo {
		t.Fatalf("VF assign heads: %v", heads)
	}
	// alias ::= VFbar VF.
	heads = g.MatchBinary(p.Bar, p.FlowsTo)
	if len(heads) != 1 || heads[0] != p.Alias {
		t.Fatalf("alias heads: %v", heads)
	}
	// Field chain: store_f alias -> t1_f ; t1_f load_f -> t2_f ; VF t2_f -> VF.
	t1 := g.MatchBinary(p.Store["f"], p.Alias)
	if len(t1) != 1 {
		t.Fatalf("t1 heads: %v", t1)
	}
	t2 := g.MatchBinary(t1[0], p.Load["f"])
	if len(t2) != 1 {
		t.Fatalf("t2 heads: %v", t2)
	}
	if heads = g.MatchBinary(p.FlowsTo, t2[0]); len(heads) != 1 || heads[0] != p.FlowsTo {
		t.Fatalf("VF t2 heads: %v", heads)
	}
	// Cross-field must NOT match: t1_f load_g.
	if got := g.MatchBinary(t1[0], p.Load["g"]); len(got) != 0 {
		t.Fatalf("cross-field match: %v", got)
	}
	// Mirror.
	if g.Mirror(p.FlowsTo) != p.Bar {
		t.Fatal("flowsTo must mirror to bar")
	}
	if g.Mirror(p.Assign) != NoLabel {
		t.Fatal("assign has no mirror")
	}
	// Finals.
	if !g.IsFinal(p.FlowsTo) || !g.IsFinal(p.Alias) || g.IsFinal(p.New) {
		t.Fatal("final labels wrong")
	}
}

func TestPointerGrammarClosureByHand(t *testing.T) {
	// Simulate the closure on the paper's Fig. 5b graph by hand:
	// object --new--> out2 --assign--> o2, out0 --assign--> out2 ... The
	// engine will do this for real; here we check the grammar drives it.
	p := NewPointer(nil)
	g := p.G
	// new edge: object->out2 becomes flowsTo via unary.
	if got := g.MatchUnary(p.New); len(got) != 1 {
		t.Fatal("new must lift to flowsTo")
	}
	// flowsTo(object,out2) + assign(out2,o2) -> flowsTo(object,o2).
	if got := g.MatchBinary(p.FlowsTo, p.Assign); len(got) != 1 || got[0] != p.FlowsTo {
		t.Fatal("transitive assign broken")
	}
	// bar(out2,object) + flowsTo(object,o2) -> alias(out2,o2).
	if got := g.MatchBinary(p.Bar, p.FlowsTo); len(got) != 1 || got[0] != p.Alias {
		t.Fatal("alias composition broken")
	}
}

func TestDataflowGrammar(t *testing.T) {
	d := NewDataflow()
	g := d.G
	// Base edges are written with label 0 (pgraph) and read back by number.
	if d.Step != 0 || d.Flow != 1 || g.NumLabels() != 2 {
		t.Fatalf("step = %d, flow = %d of %d labels; want 0, 1 of 2", d.Step, d.Flow, g.NumLabels())
	}
	// Left-linear: a flow is extended by a base edge only, so every path has
	// one derivation. flow flow, the retired production, and step flow, its
	// right-linear half, must match nothing.
	for _, c := range []struct {
		b, c Label
		want []Label
	}{
		{d.Step, d.Step, []Label{d.Flow}},
		{d.Flow, d.Step, []Label{d.Flow}},
		{d.Flow, d.Flow, nil},
		{d.Step, d.Flow, nil},
	} {
		if got := g.MatchBinary(c.b, c.c); !slices.Equal(got, c.want) {
			t.Errorf("%s %s -> %v, want %v", g.Name(c.b), g.Name(c.c), got, c.want)
		}
	}
	// No unary production: flow ::= step would make preprocess double every
	// base edge.
	if got := g.MatchUnary(d.Step); len(got) != 0 {
		t.Errorf("step lifts to %v, want no unary production", got)
	}
	// The closed flows are step ∪ flow; only a base edge is ever a second.
	if !g.IsFinal(d.Step) || !g.IsFinal(d.Flow) {
		t.Error("step and flow must both be final")
	}
	if !g.HasLeft(d.Step) || !g.HasLeft(d.Flow) || !g.HasRight(d.Step) || g.HasRight(d.Flow) {
		t.Error("step and flow start productions, only step ends one")
	}
}

// hasLeftReference is the walk over every binary production that HasLeft's
// per-label table replaced.
func hasLeftReference(g *Grammar, b Label) bool {
	for k := range g.binary {
		if Label(k>>16) == b {
			return true
		}
	}
	return false
}

func TestHasLeft(t *testing.T) {
	p := NewPointer([]string{"f", "g"})
	if !p.G.HasLeft(p.FlowsTo) {
		t.Fatal("flowsTo starts productions")
	}
	if p.G.HasLeft(p.Alias) {
		t.Fatal("alias only ever stands on the right of a production")
	}
	// A production added after construction, over a label interned late.
	late := p.G.Intern("late")
	p.G.AddBinary(p.FlowsTo, late, p.Assign)
	for _, g := range []*Grammar{p.G, NewDataflow().G, New()} {
		// Two labels past the interned ones: beyond the table, never left.
		for l := Label(0); int(l) < g.NumLabels()+2; l++ {
			if got, want := g.HasLeft(l), hasLeftReference(g, l); got != want {
				t.Fatalf("HasLeft(%s) = %v, production walk says %v", g.Name(l), got, want)
			}
		}
		if g.HasLeft(NoLabel) {
			t.Fatal("NoLabel starts no production")
		}
	}
}

// hasRightReference is hasLeftReference for a production's second symbol.
func hasRightReference(g *Grammar, c Label) bool {
	for k := range g.binary {
		if Label(k&0xffff) == c {
			return true
		}
	}
	return false
}

// TestHasRight pins what the engine indexes by source vertex under the pointer
// grammar — an allocation or a store is never the second of a pair — and holds
// the table to the production walk, as TestHasLeft does.
func TestHasRight(t *testing.T) {
	p := NewPointer([]string{"f", "g"})
	for _, name := range []string{"assign", "load[f]", "load[g]", "alias", "flowsTo", "t2[f]", "t2[g]"} {
		if !p.G.HasRight(p.G.Lookup(name)) {
			t.Errorf("%s ends a production, HasRight says no", name)
		}
	}
	for _, name := range []string{"new", "store[f]", "store[g]", "flowsToBar", "t1[f]"} {
		if p.G.HasRight(p.G.Lookup(name)) {
			t.Errorf("%s ends no production, HasRight says yes", name)
		}
	}
	late := p.G.Intern("late")
	p.G.AddBinary(p.FlowsTo, p.Assign, late)
	for _, g := range []*Grammar{p.G, NewDataflow().G, New()} {
		for l := Label(0); int(l) < g.NumLabels()+2; l++ {
			if got, want := g.HasRight(l), hasRightReference(g, l); got != want {
				t.Fatalf("HasRight(%s) = %v, production walk says %v", g.Name(l), got, want)
			}
		}
		if g.HasRight(NoLabel) {
			t.Fatal("NoLabel ends no production")
		}
	}
}

func TestInternLabelSpaceExhaustion(t *testing.T) {
	g := New()
	for i := 0; i < int(NoLabel); i++ {
		if l := g.Intern(fmt.Sprintf("l%d", i)); l == NoLabel {
			t.Fatalf("premature exhaustion at %d", i)
		}
	}
	if err := g.Err(); err != nil {
		t.Fatalf("unexpected error before overflow: %v", err)
	}
	if l := g.Intern("overflow-a"); l != NoLabel {
		t.Fatalf("overflow intern returned %d, want NoLabel", l)
	}
	err := g.Err()
	if err == nil {
		t.Fatal("no error after overflow")
	}
	if !strings.Contains(err.Error(), "65535") {
		t.Fatalf("error not sized: %v", err)
	}
	// Sticky: further overflows neither crash nor replace the error.
	if l := g.Intern("overflow-b"); l != NoLabel {
		t.Fatal("second overflow must also return NoLabel")
	}
	if g.Err() != err {
		t.Fatal("error must be sticky")
	}
	// Existing labels still resolve after exhaustion.
	if g.Intern("l7") != g.Lookup("l7") {
		t.Fatal("existing labels must survive exhaustion")
	}
}
