package engine

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/faultpoint"
	"github.com/grapple-system/grapple/internal/grammar"
	"github.com/grapple-system/grapple/internal/storage"
	"github.com/grapple-system/grapple/internal/trace"
)

// cutFixture is one input of the frontier-cut tests.
type cutFixture struct {
	name  string
	ic    *cfet.ICFET
	g     *grammar.Grammar
	edges []storage.Edge
	nv    uint32
	// budget cuts the run into at least three partitions and splits one.
	budget int64
}

// cutChain is joinChain over a function with two sequential branches, so that
// all three ways a merged pair can die occur: paths through sibling arms
// conflict structurally, a path through the then arm of `x >= 0` and the then
// arm of `x < 0` (node 6) merges and is refuted by the solver, and — every
// other vertex pair being joined by two parallel edges — same-endpoint
// variants multiply until the variant cap (2 in runCut) widens them.
func cutChain(tb testing.TB, n uint32, label grammar.Label) (*cfet.ICFET, []storage.Edge) {
	ic := buildFromSource(tb, `
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
	var edges []storage.Edge
	for i := uint32(0); i+1 < n; i++ {
		ends := []uint64{0}
		switch {
		case i%3 == 0:
			ends = []uint64{2}
		case i%16 == 7:
			ends = []uint64{1}
		case i%23 == 11:
			ends = []uint64{6}
		case i%2 == 1:
			ends = []uint64{0, 5}
		case i%4 == 2:
			ends = []uint64{0, 2}
		}
		for _, end := range ends {
			e := flowEdge(i, i+1, label)
			e.Enc = cfet.Enc{cfet.Interval(m.Method, 0, end)}
			edges = append(edges, e)
		}
	}
	return ic, edges
}

// heapRing is a pointer-grammar input whose closure keeps deriving seconds:
// n cells in a ring, cell i storing its value into a heap object's field and
// the next cell loading it back through an alias of that object,
//
//	o_i --new--> v_i          h_i --new--> p_i, p_i --assign--> q_i
//	v_i --store[f]--> p_i     q_i --load[f]--> w_i     w_i --assign--> v_(i+1)
//
// so every value flows all the way round: flowsTo, alias and t2[f] edges —
// all right-capable — arrive in every round, and the store/load cycle closes.
// The assign edges carry cutChain's branch encodings.
func heapRing(tb testing.TB, n uint32) cutFixture {
	p := grammar.NewPointer([]string{"f"})
	ic, chain := cutChain(tb, 2*n+1, p.Assign)
	const perCell = 6 // o, v, h, p, q, w
	var edges []storage.Edge
	for i := uint32(0); i < n; i++ {
		o, v, h, pp, q, w := i*perCell, i*perCell+1, i*perCell+2, i*perCell+3, i*perCell+4, i*perCell+5
		next := ((i+1)%n)*perCell + 1
		edges = append(edges,
			storage.Edge{Src: o, Dst: v, Label: p.New},
			storage.Edge{Src: h, Dst: pp, Label: p.New},
			storage.Edge{Src: v, Dst: pp, Label: p.Store["f"]},
			storage.Edge{Src: q, Dst: w, Label: p.Load["f"]},
		)
		// The chain's edges out of vertices 2i and 2i+1 (one or two each)
		// become the cell's two assignments.
		for _, c := range chain {
			switch c.Src {
			case 2 * i:
				c.Src, c.Dst = pp, q
			case 2*i + 1:
				c.Src, c.Dst = w, next
			default:
				continue
			}
			edges = append(edges, c)
		}
	}
	return cutFixture{name: "pointer", ic: ic, g: p.G, edges: edges, nv: n * perCell, budget: 24 << 10}
}

func cutFixtures(tb testing.TB) []cutFixture { return cutFixturesOf(tb, 40, 10) }

// cutFixturesOf is the three fixtures over chains of n vertices and a ring of
// cells cells.
func cutFixturesOf(tb testing.TB, n, cells uint32) []cutFixture {
	lin, all := grammar.NewDataflow(), allPairs()
	ic, linEdges := cutChain(tb, n, lin.Step)
	_, allEdges := cutChain(tb, n, all.Step)
	return []cutFixture{
		{name: "linear", ic: ic, g: lin.G, edges: linEdges, nv: n, budget: 6 << 10},
		{name: "allPairs", ic: ic, g: all.G, edges: allEdges, nv: n, budget: 6 << 10},
		heapRing(tb, cells),
	}
}

// cutRun is one run of a fixture: the engine (for its closed graph), the
// run's counters and the frontier summed over its supersteps, read from the
// trace's superstep spans.
type cutRun struct {
	en       *Engine
	st       Stats
	frontier int64
}

// runCut closes f in dir, journaled, under budget (0: one partition), with
// the frontier cut or — whole — without it. A non-nil faults set may kill the
// run, in which case err is the injected error and the counters are what the
// run had tallied by then. resume continues the journal in dir instead of
// starting cold.
func runCut(t *testing.T, f cutFixture, dir string, budget int64, whole, resume bool, faults *faultpoint.Set) (cutRun, error) {
	t.Helper()
	var events bytes.Buffer
	rec := trace.NewWriters(nil, &events)
	en := New(f.ic, f.g, withMemo(Options{
		Dir: dir, MemoryBudget: budget, Workers: 2, MaxVariants: 2, JournalTag: 0xc07,
		Scope: trace.Scope{Rec: rec, Faults: faults},
	}))
	en.wholeFrontier = whole
	var err error
	if resume {
		_, err = en.Resume(f.nv)
	} else {
		_, err = en.Run(f.edges, f.nv)
	}
	if cerr := rec.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	run := cutRun{en: en, st: en.Stats()}
	for _, ev := range traceEvents(t, &events) {
		if ev.Name == "superstep" {
			run.frontier += ev.Args.Frontier
		}
	}
	return run, err
}

// traceEvent is one line of a recorder's event stream, as far as this
// package's tests read it: a superstep span's frontier, a repartition
// instant's boundary vertex and whether it is a cut.
type traceEvent struct {
	Name string
	Args struct {
		Frontier int64
		Mid      uint32
		Cut      bool
	}
}

// traceEvents decodes the event stream a closed recorder wrote.
func traceEvents(t *testing.T, events *bytes.Buffer) []traceEvent {
	t.Helper()
	var evs []traceEvent
	sc := bufio.NewScanner(events)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev traceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// sameJoin reports whether run a and run b — or the segments b of a run that
// was killed and resumed — did the same join work: the counters every merged
// pair feeds.
func sameJoin(a Stats, b ...Stats) bool {
	var sum Stats
	for _, s := range b {
		sum.RejectedUnsat += s.RejectedUnsat
		sum.RejectedConflict += s.RejectedConflict
		sum.CacheLookups += s.CacheLookups
		sum.Widened = s.Widened // journaled: the resumed run carries the total
	}
	return a.RejectedUnsat == sum.RejectedUnsat && a.RejectedConflict == sum.RejectedConflict &&
		a.CacheLookups == sum.CacheLookups && a.Widened == sum.Widened
}

// TestFrontierCutMatchesWholeFrontier holds the frontier cut to the run that
// collects every left-capable edge on every pass (Engine.wholeFrontier), over
// a grammar whose seconds are never derived (the linear dataflow grammar: the
// cut applies on every pass after a pair's first), one whose every derived
// edge is a second (all pairs) and the pointer grammar on a store/load cycle
// (the cut applies only on passes no new second reached): in one partition
// and under a budget that cuts the graph into several partitions and splits
// some, and each time again as a run killed and resumed at every superstep
// boundary. The cut
// leaves out only firsts none of whose pairs would pass the per-pair filter,
// in place, so the closed graph — on-disk order included — and every count a
// merged pair feeds are the reference's. On the linear grammar it must also
// be worth having: under a third of the reference's summed frontier.
func TestFrontierCutMatchesWholeFrontier(t *testing.T) {
	for _, f := range cutFixtures(t) {
		for _, budget := range []int64{0, f.budget} {
			name := f.name + "/one partition"
			if budget != 0 {
				name = f.name + "/out of core"
			}
			t.Run(name, func(t *testing.T) {
				ref, err := runCut(t, f, t.TempDir(), budget, true, false, nil)
				if err != nil {
					t.Fatal(err)
				}
				faults := faultpoint.New() // never armed: counts the boundaries
				cut, err := runCut(t, f, t.TempDir(), budget, false, false, faults)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%d supersteps, %d partitions, %d splits: frontier %d with the cut, %d without; %d lookups, %d conflicts, %d unsat, %d widened",
					cut.st.Iterations, cut.st.Partitions, cut.st.Repartitions, cut.frontier, ref.frontier,
					cut.st.CacheLookups, cut.st.RejectedConflict, cut.st.RejectedUnsat, cut.st.Widened)
				if ref.st.CacheLookups == 0 || ref.st.RejectedConflict == 0 || ref.st.RejectedUnsat == 0 || ref.st.Widened == 0 {
					t.Fatalf("workload too small to mean anything: %+v", ref.st)
				}
				if (budget != 0) != (ref.st.Partitions >= 3 && ref.st.Repartitions > 0) {
					t.Fatalf("budget %d: %d partitions, %d splits", budget, ref.st.Partitions, ref.st.Repartitions)
				}
				want := fingerprint(t, ref.en)
				if got := fingerprint(t, cut.en); got != want {
					t.Error("the cut closed to a different graph than the whole frontier")
				}
				if !sameJoin(ref.st, cut.st) || cut.st.Iterations != ref.st.Iterations || cut.st.EdgesAfter != ref.st.EdgesAfter {
					t.Errorf("the cut changed the join's counts:\n whole %+v\n cut   %+v", ref.st, cut.st)
				}
				if cut.frontier > ref.frontier {
					t.Errorf("the cut collected %d firsts, more than the whole frontier's %d", cut.frontier, ref.frontier)
				}
				if f.name == "linear" && cut.frontier*3 >= ref.frontier {
					t.Errorf("linear grammar: the cut collected %d firsts, not under a third of the whole frontier's %d", cut.frontier, ref.frontier)
				}
				// maxRightGen is not journaled: a resumed engine recomputes it as
				// it loads, and must cut — and join — as the uninterrupted one.
				// The harshest way to ask is a run that never gets past one
				// superstep: killed at every boundary, each time resumed by a
				// fresh engine that has nothing but the directory.
				kill := func() *faultpoint.Set {
					s := faultpoint.New()
					s.Arm(faultpoint.EngineSuperstep, 1)
					return s
				}
				dir := t.TempDir()
				seg, err := runCut(t, f, dir, budget, false, false, kill())
				segs, frontier := []Stats{seg.st}, seg.frontier
				for errors.Is(err, faultpoint.ErrInjected) {
					seg, err = runCut(t, f, dir, budget, false, true, kill())
					segs, frontier = append(segs, seg.st), frontier+seg.frontier
				}
				if err != nil {
					t.Fatalf("after %d resumes: %v", len(segs)-1, err)
				}
				if resumes := len(segs) - 1; resumes != faults.Count(faultpoint.EngineSuperstep) {
					t.Fatalf("%d resumes over a run of %d boundaries", resumes, faults.Count(faultpoint.EngineSuperstep))
				}
				if got := fingerprint(t, seg.en); got != want {
					t.Error("the run resumed at every boundary closed to a different graph")
				}
				if !sameJoin(ref.st, segs...) || frontier != cut.frontier {
					t.Errorf("the run resumed at every boundary did other work than the uninterrupted one: frontier %d against %d, last segment %+v, whole %+v",
						frontier, cut.frontier, seg.st, ref.st)
				}
			})
		}
	}
}

// TestBySrcHoldsOnlySeconds checks the index the pair walk reads: after a
// load, after inserts into the loaded partition and after a split, bySrc
// names exactly the right-capable edges of the partition, each under its
// source and once, and maxRightGen is the newest of them. The index is dense
// from the partition's first vertex to its last indexed source: a lookup
// below the one or past the other finds nothing, and an edge added past the
// other — into the last partition, whose interval preprocess widens after
// indexing it — extends it.
func TestBySrcHoldsOnlySeconds(t *testing.T) {
	check := func(t *testing.T, en *Engine, when string, induced bool) {
		t.Helper()
		seconds, total := 0, 0
		for _, p := range en.parts {
			mp := p.mem
			if mp == nil {
				continue
			}
			indexed := map[int32]bool{}
			var newest uint32
			for i, idxs := range mp.bySrc {
				src := p.lo + uint32(i)
				for _, x := range idxs {
					e := mp.edges.at(int(x))
					if e.Src != src || !en.g.HasRight(e.Label) || indexed[x] {
						t.Fatalf("%s: partition %d indexes edge %d (%d->%d %s) under source %d (right-capable %v, seen %v)",
							when, p.id, x, e.Src, e.Dst, en.g.Name(e.Label), src, en.g.HasRight(e.Label), indexed[x])
					}
					indexed[x] = true
					newest = max(newest, e.Gen)
				}
			}
			for x := range mp.edges.len() {
				if en.g.HasRight(mp.edges.at(x).Label) && !indexed[int32(x)] {
					t.Fatalf("%s: partition %d does not index its right-capable edge %d", when, p.id, x)
				}
			}
			if mp.maxRightGen != newest {
				t.Fatalf("%s: partition %d: maxRightGen %d, newest indexed edge %d", when, p.id, mp.maxRightGen, newest)
			}
			if p.lo > 0 && mp.seconds(p.lo, p.lo-1) != nil {
				t.Fatalf("%s: partition %d finds seconds below its interval", when, p.id)
			}
			if mp.seconds(p.lo, p.lo+uint32(len(mp.bySrc))) != nil {
				t.Fatalf("%s: partition %d finds seconds past its indexed sources", when, p.id)
			}
			seconds += len(indexed)
			total += mp.edges.len()
		}
		if seconds == 0 || induced && seconds == total {
			t.Fatalf("%s: %d of %d loaded edges indexed: the fixture does not tell seconds from the rest", when, seconds, total)
		}
	}
	for _, f := range cutFixtures(t) {
		if f.name == "allPairs" {
			continue // every edge is a second: nothing to leave out
		}
		t.Run(f.name, func(t *testing.T) {
			en := startEngine(t, f.ic, f.g, Options{MemoryBudget: f.budget, Workers: 2}, f.edges, f.nv)
			if _, err := en.load(0); err != nil {
				t.Fatal(err)
			}
			check(t, en, "after load", f.name == "pointer")
			// add: two passes' worth of induced edges into the loaded
			// partitions, derived seconds among them under the pointer grammar.
			for range 2 {
				if _, _, err := en.processPair(0, 0); err != nil {
					t.Fatal(err)
				}
			}
			if en.parts[0].mem.maxRightGen == 0 && f.name == "pointer" {
				t.Fatal("no derived second reached partition 0: the add path is not exercised")
			}
			check(t, en, "after add", true)
			nParts := len(en.parts)
			if err := en.repartition(0); err != nil {
				t.Fatal(err)
			}
			if len(en.parts) != nParts+1 {
				t.Fatal("split did not happen")
			}
			check(t, en, "after repartition", true)
			// And whatever a whole run leaves loaded at its fixpoint.
			driveToFixpoint(t, en)
			check(t, en, "at fixpoint", true)
		})
	}

	// The widened last partition, and lookups outside the index through the
	// pair walk: a chain's last vertex starts no edge, so it lies inside the
	// last partition's interval and past its indexed sources.
	t.Run("widened", func(t *testing.T) {
		f := cutFixtures(t)[0]
		en := startEngine(t, f.ic, f.g, Options{MemoryBudget: 2 << 10, Workers: 2}, f.edges, f.nv)
		last := len(en.parts) - 1
		p, err := en.load(last)
		if err != nil {
			t.Fatal(err)
		}
		if len(en.parts) < 2 || p.lo == 0 {
			t.Fatalf("%d partitions: the last one starts at vertex 0", len(en.parts))
		}
		end := p.lo + uint32(len(p.mem.bySrc))
		if end != f.nv-1 || !p.owns(end) {
			t.Fatalf("last partition [%d,%d) indexes sources up to %d, want up to %d", p.lo, p.hi, end, f.nv-1)
		}
		jn := &passJoin{pi: p, pj: p}
		for _, v := range []uint32{p.lo - 1, end, f.nv} {
			if idxs, _, _ := jn.seconds(0, v); idxs != nil {
				t.Fatalf("seconds(%d) = %v on [%d,%d) indexed up to %d", v, idxs, p.lo, p.hi, end)
			}
		}
		// What preprocess does when the last chunk leaves no room for a new
		// partition: widen the interval of one already indexed.
		p.hi = f.nv + 8
		e := flowEdge(f.nv+4, f.nv+5, f.edges[0].Label)
		e.Gen = 1
		p.add(e, storage.RecordSize(&e), true, true)
		check(t, en, "after an add past the indexed sources", false)
		if idxs, _, _ := jn.seconds(0, f.nv+4); len(idxs) != 1 || p.mem.edges.at(int(idxs[0])).Src != f.nv+4 {
			t.Fatalf("seconds(%d) = %v after the add", f.nv+4, idxs)
		}
		for _, v := range []uint32{f.nv, f.nv + 3, f.nv + 5} {
			if idxs, _, _ := jn.seconds(0, v); idxs != nil {
				t.Fatalf("seconds(%d) = %v after the add", v, idxs)
			}
		}
	})
}

// TestFrontierBufferReleasesEvictedEdges: the frontier buffer and the
// candidate batches are reused across supersteps, and what they held — edge
// pointers into a loaded partition's array, encodings in arena chunks — must
// not outlive the superstep, or a slot that a later, smaller superstep does
// not overwrite keeps an evicted partition's whole array reachable. The input
// is a short chain with 200 edges fanning into its last link: the first pass
// collects them all and induces a flow from each, and once those are joined
// (to nothing: the chain ends there) a pass collects a handful of firsts into
// buffers grown for hundreds. After every pass the buffers must be zero up to
// their capacity.
func TestFrontierBufferReleasesEvictedEdges(t *testing.T) {
	const n, fan = 6, 200
	ic, d, edges := joinChainUnder(t, n, grammar.NewDataflow())
	for k := uint32(0); k < fan; k++ {
		e := flowEdge(n+k, n-2, d.Step)
		e.Enc = edges[0].Enc
		edges = append(edges, e)
	}
	en := startEngine(t, ic, d.G, Options{Workers: 2}, edges, n+fan)
	zeroed := func(when string) {
		t.Helper()
		for k, e := range en.firstsBuf[:cap(en.firstsBuf)] {
			if e != nil {
				t.Fatalf("%s: frontier slot %d of %d still points at an edge", when, k, cap(en.firstsBuf))
			}
		}
		for w, scr := range en.scratch {
			for k, c := range scr.out[:cap(scr.out)] {
				if c.edge.Enc != nil || c.edge.Src != 0 || c.edge.Dst != 0 || c.payload != 0 {
					t.Fatalf("%s: candidate slot %d of %d of worker %d still holds %+v", when, k, cap(scr.out), w, c)
				}
			}
		}
	}
	large, _, err := en.processPair(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	induced := int(en.EdgesAfter()) - len(edges)
	zeroed("after the large superstep")
	// What the buffers pointed into goes away; the next load builds new arrays.
	if err := en.evict(en.parts[0]); err != nil {
		t.Fatal(err)
	}
	small := large
	for small >= fan {
		if small, _, err = en.processPair(0, 0); err != nil {
			t.Fatal(err)
		}
		zeroed("after a later superstep")
	}
	if large < fan || induced < fan || small == 0 || cap(en.firstsBuf) < large {
		t.Fatalf("a pass of %d firsts and %d induced edges, then one of %d, in a buffer of %d: not a large-then-small sequence",
			large, induced, small, cap(en.firstsBuf))
	}
}
