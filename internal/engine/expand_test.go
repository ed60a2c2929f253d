package engine

import (
	"reflect"
	"testing"

	"github.com/grapple-system/grapple/internal/grammar"
	"github.com/grapple-system/grapple/internal/storage"
)

// expandReference is the per-edge expansion the per-label table replaced:
// close one edge under unary and mirror productions breadth-first, then
// drop repeats by full edge identity. Kept as the table's oracle.
func expandReference(g *grammar.Grammar, e storage.Edge) []storage.Edge {
	out := []storage.Edge{e}
	for i := 0; i < len(out); i++ {
		cur := out[i]
		for _, head := range g.MatchUnary(cur.Label) {
			d := cur
			d.Label = head
			out = append(out, d)
		}
		if m := g.Mirror(cur.Label); m != grammar.NoLabel {
			d := cur
			d.Src, d.Dst = cur.Dst, cur.Src
			d.Label = m
			out = append(out, d)
		}
	}
	seen := map[uint64]bool{}
	kept := out[:0]
	for _, v := range out {
		if k := v.Key(); !seen[k] {
			seen[k] = true
			kept = append(kept, v)
		}
	}
	return kept
}

// TestExpansionTableMatchesReference: for every label of the pointer, dataflow
// and all-pairs grammars plus a grammar with a unary diamond that mirrors midway,
// on a plain edge and on a self-loop, the table yields exactly the
// reference expansion, in the reference's order. (The reference does not
// terminate on a grammar whose mirrors form a cycle; the table does.)
func TestExpansionTableMatchesReference(t *testing.T) {
	chain := grammar.New()
	a, b, c, d := chain.Intern("a"), chain.Intern("b"), chain.Intern("c"), chain.Intern("d")
	chain.AddUnary(b, a) // b ::= a
	chain.AddUnary(c, b) // c ::= b
	chain.AddUnary(c, a) // c ::= a as well: reached twice, kept once
	chain.SetMirror(b, d)
	grammars := map[string]*grammar.Grammar{
		"pointer":  grammar.NewPointer([]string{"f", "g"}).G,
		"dataflow": grammar.NewDataflow().G,
		"allPairs": allPairs().G,
		"chain":    chain,
	}
	for name, g := range grammars {
		en := New(emptyICFET(), g, Options{})
		for l := 0; l <= g.NumLabels(); l++ { // NumLabels itself: a label outside the table
			for _, ends := range [][2]uint32{{3, 9}, {5, 5}} {
				e := storage.Edge{Src: ends[0], Dst: ends[1], Label: grammar.Label(l), Gen: 4}
				var got []storage.Edge
				for _, d := range en.expansion(e.Label) {
					v := e
					v.Src, v.Dst = d.endpoints(&e)
					v.Label = d.label
					got = append(got, v)
				}
				if want := expandReference(g, e); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s label %d ends %v:\n  table     %+v\n  reference %+v", name, l, ends, got, want)
				}
			}
		}
	}
}
