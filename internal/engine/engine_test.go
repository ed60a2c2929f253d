package engine

import (
	"testing"

	"github.com/grapple-system/grapple/internal/callgraph"
	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/grammar"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/smt"
	"github.com/grapple-system/grapple/internal/storage"
	"github.com/grapple-system/grapple/internal/symbolic"
)

// emptyICFET builds a minimal ICFET (no methods) for tests whose edges carry
// no encodings.
func emptyICFET() *cfet.ICFET {
	return &cfet.ICFET{Syms: symbolic.NewTable(), MethodByName: map[string]cfet.MethodID{}, MaxEncLen: 64}
}

// allPairs is the dataflow grammar the checker closed its graph under before
// grammar.NewDataflow became left-linear: flow ::= flow flow over base edges
// that carry flow themselves (Step and Flow are the one label). It derives a
// path of n edges once per split point, which is why it was retired, and its
// derived edges stand second in later pairs, which is why this package's chain
// fixtures keep it: the linear grammar's seconds are all base edges, so it
// alone would leave the engine untested on seconds that arrive mid-run. The
// checker's TestLinearClosureEqualsAllPairs holds the linear closure to it.
func allPairs() *grammar.Dataflow {
	g := grammar.New()
	flow := g.Intern("flow")
	g.AddBinary(flow, flow, flow)
	g.SetFinal(flow)
	return &grammar.Dataflow{G: g, Step: flow, Flow: flow}
}

func flowEdge(src, dst uint32, l grammar.Label) storage.Edge {
	return storage.Edge{Src: src, Dst: dst, Label: l}
}

// withMemo gives opts a fresh constraint memo of the default capacity, as the
// checker gives each compilation unit, unless it has one. The run helpers
// apply it; a test that wants an engine without a memo calls New itself.
func withMemo(opts Options) Options {
	if opts.Cache == nil {
		opts.Cache = smt.NewCache(0)
	}
	return opts
}

func runEngine(t *testing.T, ic *cfet.ICFET, g *grammar.Grammar, opts Options, edges []storage.Edge, nv uint32) (*Engine, *Stats) {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	en := New(ic, g, withMemo(opts))
	st, err := en.Run(edges, nv)
	if err != nil {
		t.Fatal(err)
	}
	return en, st
}

func collectLabel(t *testing.T, en *Engine, l grammar.Label) map[[2]uint32]int {
	t.Helper()
	out := map[[2]uint32]int{}
	if err := en.ForEach(func(e *storage.Edge) bool {
		if e.Label == l {
			out[[2]uint32{e.Src, e.Dst}]++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestTransitiveClosureChain(t *testing.T) {
	d := allPairs()
	var edges []storage.Edge
	const n = 10
	for i := uint32(0); i+1 < n; i++ {
		edges = append(edges, flowEdge(i, i+1, d.Flow))
	}
	en, st := runEngine(t, emptyICFET(), d.G, Options{}, edges, n)
	got := collectLabel(t, en, d.Flow)
	// Closure of a chain: all (i,j) with i<j.
	want := n * (n - 1) / 2
	if len(got) != want {
		t.Fatalf("closure has %d edges, want %d", len(got), want)
	}
	if st.EdgesBefore != n-1 {
		t.Fatalf("edges before = %d", st.EdgesBefore)
	}
	if st.EdgesAfter != int64(want) {
		t.Fatalf("edges after = %d want %d", st.EdgesAfter, want)
	}
}

func TestClosureWithManyPartitions(t *testing.T) {
	// Tiny memory budget forces multiple partitions and out-of-core
	// behavior; the result must be identical.
	d := allPairs()
	var edges []storage.Edge
	const n = 40
	for i := uint32(0); i+1 < n; i++ {
		edges = append(edges, flowEdge(i, i+1, d.Flow))
	}
	en, st := runEngine(t, emptyICFET(), d.G, Options{MemoryBudget: 4096}, edges, n)
	got := collectLabel(t, en, d.Flow)
	want := n * (n - 1) / 2
	if len(got) != want {
		t.Fatalf("closure has %d edges, want %d (stats %+v)", len(got), want, st)
	}
	if st.Partitions < 2 {
		t.Fatalf("expected multiple partitions, got %d", st.Partitions)
	}
}

func TestRepartitioningTriggers(t *testing.T) {
	d := allPairs()
	var edges []storage.Edge
	const n = 64
	for i := uint32(0); i+1 < n; i++ {
		edges = append(edges, flowEdge(i, i+1, d.Flow))
	}
	// Budget so small that closure growth must split partitions.
	_, st := runEngine(t, emptyICFET(), d.G, Options{MemoryBudget: 8192}, edges, n)
	if st.Repartitions == 0 {
		t.Fatalf("expected eager repartitioning, stats %+v", st)
	}
	if st.EdgesAfter != int64(n*(n-1)/2) {
		t.Fatalf("closure wrong after repartitioning: %d", st.EdgesAfter)
	}
}

func TestPointerGrammarClosureFigure5b(t *testing.T) {
	// The alias graph of Fig. 5b: object --new--> out2 --assign--> o2,
	// out0 --assign--> out2 (reversed: paper draws out0 -> out2 as the
	// artificial edge; flow is object->out2, out2->o2, o2->o6).
	p := grammar.NewPointer(nil)
	const (
		object = 0
		out2   = 1
		o2     = 2
		o6     = 3
	)
	edges := []storage.Edge{
		{Src: object, Dst: out2, Label: p.New},
		{Src: out2, Dst: o2, Label: p.Assign},
		{Src: o2, Dst: o6, Label: p.Assign},
	}
	en, _ := runEngine(t, emptyICFET(), p.G, Options{}, edges, 4)
	flows := collectLabel(t, en, p.FlowsTo)
	for _, want := range [][2]uint32{{object, out2}, {object, o2}, {object, o6}} {
		if flows[want] == 0 {
			t.Errorf("missing flowsTo %v (have %v)", want, flows)
		}
	}
	aliases := collectLabel(t, en, p.Alias)
	// out2, o2, o6 all alias each other (and themselves).
	for _, want := range [][2]uint32{{out2, o2}, {o2, out2}, {out2, o6}, {o2, o6}} {
		if aliases[want] == 0 {
			t.Errorf("missing alias %v (have %v)", want, aliases)
		}
	}
}

func TestPointerGrammarFieldSensitivity(t *testing.T) {
	// a.f = b; c = a.g must NOT create a flow b -> c (different fields);
	// a.f = b; c = a.f must.
	p := grammar.NewPointer([]string{"f", "g"})
	const (
		oa = 0 // object for a
		ob = 1 // object for b
		a  = 2
		b  = 3
		c  = 4
	)
	base := []storage.Edge{
		{Src: oa, Dst: a, Label: p.New},
		{Src: ob, Dst: b, Label: p.New},
		{Src: b, Dst: a, Label: p.Store["f"]},
	}
	t.Run("same field", func(t *testing.T) {
		edges := append(append([]storage.Edge{}, base...),
			storage.Edge{Src: a, Dst: c, Label: p.Load["f"]})
		en, _ := runEngine(t, emptyICFET(), p.G, Options{}, edges, 5)
		flows := collectLabel(t, en, p.FlowsTo)
		if flows[[2]uint32{ob, c}] == 0 {
			t.Fatalf("ob should flow to c: %v", flows)
		}
	})
	t.Run("different field", func(t *testing.T) {
		edges := append(append([]storage.Edge{}, base...),
			storage.Edge{Src: a, Dst: c, Label: p.Load["g"]})
		en, _ := runEngine(t, emptyICFET(), p.G, Options{}, edges, 5)
		flows := collectLabel(t, en, p.FlowsTo)
		if flows[[2]uint32{ob, c}] != 0 {
			t.Fatalf("field mismatch must not flow: %v", flows)
		}
	})
}

func TestRelComposition(t *testing.T) {
	d := allPairs()
	f := fsm.BuiltinIO()
	newRel := fsm.EventRel(f, "new")
	writeRel := fsm.EventRel(f, "write")
	closeRel := fsm.EventRel(f, "close")
	edges := []storage.Edge{
		{Src: 0, Dst: 1, Label: d.Flow, HasRel: true, Rel: newRel},
		{Src: 1, Dst: 2, Label: d.Flow, HasRel: true, Rel: writeRel},
		{Src: 2, Dst: 3, Label: d.Flow, HasRel: true, Rel: closeRel},
	}
	en, _ := runEngine(t, emptyICFET(), d.G, Options{}, edges, 4)
	var final *storage.Edge
	if err := en.ForEach(func(e *storage.Edge) bool {
		if e.Src == 0 && e.Dst == 3 {
			cp := *e
			final = &cp
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if final == nil {
		t.Fatal("no composed 0->3 edge")
	}
	states := final.Rel.Apply(f.Init)
	closeIdx := f.StateIndex("Close")
	if states != 1<<uint(closeIdx) {
		t.Fatalf("composed relation maps Init to %b, want only Close", states)
	}
}

// buildFromSource compiles MiniLang down to an ICFET for constraint tests.
func buildFromSource(t testing.TB, src string) *cfet.ICFET {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := lang.Resolve(prog)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Lower(info, ir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = callgraph.Build(p)
	ic, err := cfet.Build(p, symbolic.NewTable(), cfet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ic
}

func TestConstraintPruningInEngine(t *testing.T) {
	// Two edges whose encodings lie on conflicting branches must not
	// compose; encodings on one path must.
	ic := buildFromSource(t, `
fun f(x: int) {
  if (x > 0) {
    x = x + 1;
  } else {
    x = x - 1;
  }
  return;
}`)
	m := ic.Method("f")
	d := allPairs()
	mkEdge := func(src, dst uint32, from, to uint64) storage.Edge {
		return storage.Edge{Src: src, Dst: dst, Label: d.Flow,
			Enc: cfet.Enc{cfet.Interval(m.Method, from, to)}}
	}
	t.Run("conflicting branches pruned", func(t *testing.T) {
		edges := []storage.Edge{
			mkEdge(0, 1, 0, 2), // true branch
			mkEdge(1, 2, 1, 1), // false branch fragment
		}
		en, st := runEngine(t, ic, d.G, Options{}, edges, 3)
		got := collectLabel(t, en, d.Flow)
		if got[[2]uint32{0, 2}] != 0 {
			t.Fatalf("conflicting-branch edge must be pruned: %v", got)
		}
		if st.RejectedConflict == 0 && st.RejectedUnsat == 0 {
			t.Fatalf("expected a rejection, stats %+v", st)
		}
	})
	t.Run("same path composes", func(t *testing.T) {
		edges := []storage.Edge{
			mkEdge(0, 1, 0, 2),
			mkEdge(1, 2, 2, 2),
		}
		en, _ := runEngine(t, ic, d.G, Options{}, edges, 3)
		got := collectLabel(t, en, d.Flow)
		if got[[2]uint32{0, 2}] == 0 {
			t.Fatalf("same-path edge missing: %v", got)
		}
	})
}

func TestUnsatPathPrunedBySolver(t *testing.T) {
	// if (x >= 0) {A} ; if (x < 0) {B}: a flow through A then B decodes to
	// x>=0 && x<0 — structurally mergeable (sequential branches), so only
	// the SMT solver can prune it.
	ic := buildFromSource(t, `
fun f(x: int) {
  var a: int = 0;
  if (x >= 0) {
    a = 1;
  }
  if (x < 0) {
    a = 2;
  }
  return;
}`)
	m := ic.Method("f")
	d := allPairs()
	// Node 2 = first-if true; its true child for second if = 2*2+2 = 6.
	edges := []storage.Edge{
		{Src: 0, Dst: 1, Label: d.Flow, Enc: cfet.Enc{cfet.Interval(m.Method, 0, 2)}},
		{Src: 1, Dst: 2, Label: d.Flow, Enc: cfet.Enc{cfet.Interval(m.Method, 2, 6)}},
	}
	en, st := runEngine(t, ic, d.G, Options{}, edges, 3)
	got := collectLabel(t, en, d.Flow)
	if got[[2]uint32{0, 2}] != 0 {
		t.Fatalf("solver should prune x>=0 && x<0: %v (stats %+v)", got, st)
	}
	if st.RejectedUnsat == 0 {
		t.Fatalf("expected unsat rejection, stats %+v", st)
	}
}

func TestDeduplication(t *testing.T) {
	d := allPairs()
	edges := []storage.Edge{
		flowEdge(0, 1, d.Flow),
		flowEdge(0, 1, d.Flow), // duplicate
		flowEdge(1, 2, d.Flow),
	}
	_, st := runEngine(t, emptyICFET(), d.G, Options{}, edges, 3)
	if st.EdgesBefore != 2 {
		t.Fatalf("duplicate initial edge not removed: %d", st.EdgesBefore)
	}
	if st.EdgesAfter != 3 {
		t.Fatalf("edges after = %d, want 3", st.EdgesAfter)
	}
}

func TestVariantWidening(t *testing.T) {
	// Many distinct encodings between the same endpoints hit the cap.
	ic := buildFromSource(t, `
fun f(x: int) {
  if (x > 0) { x = 1; } else { x = 2; }
  if (x > 1) { x = 3; } else { x = 4; }
  if (x > 2) { x = 5; } else { x = 6; }
  return;
}`)
	m := ic.Method("f")
	d := allPairs()
	var edges []storage.Edge
	// Distinct single-node encodings 0..8 between vertices 0->1, plus a
	// 1->2 edge so joins occur.
	for _, node := range []uint64{0, 1, 2, 3, 4, 5, 6} {
		edges = append(edges, storage.Edge{Src: 0, Dst: 1, Label: d.Flow,
			Enc: cfet.Enc{cfet.Interval(m.Method, node, node)}})
	}
	edges = append(edges, flowEdge(1, 2, d.Flow))
	_, st := runEngine(t, ic, d.G, Options{MaxVariants: 3}, edges, 3)
	if st.Widened == 0 {
		t.Fatalf("expected widening, stats %+v", st)
	}
}

func TestCacheCountersExposed(t *testing.T) {
	ic := buildFromSource(t, `
fun f(x: int) {
  if (x > 0) { x = 1; }
  return;
}`)
	m := ic.Method("f")
	d := allPairs()
	edges := []storage.Edge{
		{Src: 0, Dst: 1, Label: d.Flow, Enc: cfet.Enc{cfet.Interval(m.Method, 0, 2)}},
		{Src: 1, Dst: 2, Label: d.Flow, Enc: cfet.Enc{cfet.Interval(m.Method, 2, 2)}},
		{Src: 2, Dst: 3, Label: d.Flow, Enc: cfet.Enc{cfet.Interval(m.Method, 2, 2)}},
	}
	_, st := runEngine(t, ic, d.G, Options{}, edges, 4)
	if st.CacheLookups == 0 {
		t.Fatalf("cache not consulted: %+v", st)
	}
	// No memo must still work.
	st2, err := New(ic, d.G, Options{Dir: t.TempDir()}).Run(edges, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st2.CacheLookups != 0 {
		t.Fatalf("disabled cache consulted: %+v", st2)
	}
	if st2.EdgesAfter != st.EdgesAfter {
		t.Fatal("cache must not change results")
	}
}

func TestEmptyGraph(t *testing.T) {
	d := allPairs()
	_, st := runEngine(t, emptyICFET(), d.G, Options{}, nil, 1)
	if st.EdgesAfter != 0 || st.EdgesBefore != 0 {
		t.Fatalf("empty graph stats: %+v", st)
	}
}

func TestDeferRepartition(t *testing.T) {
	d := allPairs()
	var edges []storage.Edge
	const n = 64
	for i := uint32(0); i+1 < n; i++ {
		edges = append(edges, flowEdge(i, i+1, d.Flow))
	}
	deferred := New(emptyICFET(), d.G, Options{Dir: t.TempDir(), MemoryBudget: 8192})
	deferred.noSplit = true
	st, err := deferred.Run(edges, n)
	if err != nil {
		t.Fatal(err)
	}
	if st.Repartitions != 0 {
		t.Fatalf("deferred mode must not repartition: %+v", st)
	}
	if st.EdgesAfter != int64(n*(n-1)/2) {
		t.Fatalf("closure wrong: %d", st.EdgesAfter)
	}
	// Eager mode must agree on the result.
	_, st2 := runEngine(t, emptyICFET(), d.G, Options{MemoryBudget: 8192}, edges, n)
	if st2.EdgesAfter != st.EdgesAfter {
		t.Fatal("eager and deferred modes disagree")
	}
}
