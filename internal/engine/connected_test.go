package engine

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/grapple-system/grapple/internal/grammar"
	"github.com/grapple-system/grapple/internal/storage"
	"github.com/grapple-system/grapple/internal/trace"
)

// scatter draws a random edge set from a fixture: every fourth edge is
// dropped — the chain or ring falls apart into components over contiguous
// vertices, which is what partitions can be cut between — and one in sixteen
// re-aimed at a random vertex, so some components stay connected across
// whatever lies between them, forwards or backwards.
func scatter(f cutFixture, rng *rand.Rand) []storage.Edge {
	var edges []storage.Edge
	for _, e := range f.edges {
		switch rng.Intn(16) {
		case 0, 1, 2, 3:
			continue
		case 4:
			e.Dst = uint32(rng.Intn(int(f.nv)))
		}
		edges = append(edges, e)
	}
	return edges
}

// owned returns every edge p owns, wherever it is: in memory when p is loaded,
// else in its file and its pending buffer.
func owned(t *testing.T, p *partition) []storage.Edge {
	t.Helper()
	if p.mem != nil {
		return p.mem.edges.slice()
	}
	edges, _, _, err := storage.ReadPart(p.path, nil)
	if err != nil {
		t.Fatal(err)
	}
	return append(edges, p.pending...)
}

// hiddenPair looks, by brute force, for an edge pair the scheduler owes a
// merge and does not schedule: over every partition pair owed refuses, a first
// e1 in one and a second e2 in the other (or the same) with e1.Dst == e2.Src
// that the pair's stamp does not record as joined. It also holds every
// destination range to what it stands for: the smallest and the largest Dst
// among the partition's first edges, exactly.
func hiddenPair(t *testing.T, en *Engine, when string) {
	t.Helper()
	edges := make([][]storage.Edge, len(en.parts))
	for i, p := range en.parts {
		edges[i] = owned(t, p)
		if int64(len(edges[i])) != p.edges {
			t.Fatalf("%s: partition %d owns %d edges, counts %d", when, p.id, len(edges[i]), p.edges)
		}
		dstMin, dstMax := uint32(math.MaxUint32), uint32(0)
		for k := range edges[i] {
			if e := &edges[i][k]; en.g.HasLeft(e.Label) {
				dstMin, dstMax = min(dstMin, e.Dst), max(dstMax, e.Dst)
			}
		}
		if p.dstMin != dstMin || p.dstMax != dstMax {
			t.Fatalf("%s: partition %d [%d,%d): destination range [%d,%d], its first edges end in [%d,%d]",
				when, p.id, p.lo, p.hi, p.dstMin, p.dstMax, dstMin, dstMax)
		}
	}
	for i, pi := range en.parts {
		for j := i; j < len(en.parts); j++ {
			pj := en.parts[j]
			if en.owed(pi, pj) {
				continue
			}
			st := en.stamp(pi.id, pj.id)
			dirs := [][2]int{{i, j}, {j, i}}
			if i == j {
				dirs = dirs[:1]
			}
			for _, dir := range dirs {
				from, to := edges[dir[0]], edges[dir[1]]
				starts := map[uint32][]*storage.Edge{}
				for k := range to {
					if en.g.HasRight(to[k].Label) {
						starts[to[k].Src] = append(starts[to[k].Src], &to[k])
					}
				}
				for k := range from {
					e1 := &from[k]
					if !en.g.HasLeft(e1.Label) {
						continue
					}
					for _, e2 := range starts[e1.Dst] {
						if !st.joined(e1, e2) {
							t.Fatalf("%s: pair (%d,%d) is not owed a pass, but %d->%d (gen %d) in partition %d and %d->%d (gen %d) in partition %d were never joined (stamp %+v)",
								when, pi.id, pj.id, e1.Src, e1.Dst, e1.Gen, en.parts[dir[0]].id,
								e2.Src, e2.Dst, e2.Gen, en.parts[dir[1]].id, st)
						}
					}
				}
			}
		}
	}
}

// maxForcedSplits bounds the splits closeByHand forces: every split adds a
// partition, and the stamps-only reference owes a pass to every pair it has
// never seen.
const maxForcedSplits = 6

// closeByHand closes edges under f's grammar one superstep at a time, in the
// engine's own order, and looks for a hidden pair at every superstep boundary.
// The engine itself never splits (noSplit): after each pass the partitions of
// the pair that hold more than splitAt edges are split by hand, until there
// were maxForcedSplits — a rule over the engine's state, so that a resumed run
// splits where the uninterrupted one does. With resume set, every boundary is
// also a crash: the state is checkpointed and the run continues in a fresh
// engine that has nothing but the directory — whose ranges are therefore the
// ones restoreFrom rebuilt. It returns the last engine, flushed to disk, the
// counters of every engine the run went through, and how many partition pairs
// the destination ranges kept apart, summed over the boundaries.
func closeByHand(t *testing.T, f cutFixture, edges []storage.Edge, maxVariants int, splitAt int64, stampsOnly, resume bool) (*Engine, []Stats, int) {
	t.Helper()
	opts := Options{MemoryBudget: f.budget, Workers: 2, MaxVariants: maxVariants, JournalTag: 0x0ed}
	en := startEngine(t, f.ic, f.g, opts, edges, f.nv)
	en.stampsOnly = stampsOnly
	opts.Dir = en.opts.Dir
	fresh := func() *Engine {
		en := New(f.ic, f.g, withMemo(opts))
		en.noSplit, en.stampsOnly = true, stampsOnly
		return en
	}
	if err := en.startJournal(f.nv); err != nil {
		t.Fatal(err)
	}
	var segs []Stats
	unconnected := 0
	hiddenPair(t, en, "after preprocess")
	for {
		i, j, ok := en.nextPair()
		if !ok {
			break
		}
		if _, _, err := en.processPair(i, j); err != nil {
			t.Fatal(err)
		}
		en.stats.Iterations++
		// j before i, as processPair does: a split shifts the positions after it.
		pair := []int{j, i}
		if i == j {
			pair = pair[:1]
		}
		for _, pos := range pair {
			if en.parts[pos].edges > splitAt && en.stats.Repartitions < maxForcedSplits {
				if err := en.repartition(pos); err != nil {
					t.Fatal(err)
				}
			}
		}
		hiddenPair(t, en, "after a superstep")
		for a, pa := range en.parts {
			for _, pb := range en.parts[a+1:] {
				if !pa.reaches(pb) && !pb.reaches(pa) {
					unconnected++
				}
			}
		}
		if !resume {
			continue
		}
		if err := en.checkpoint(false); err != nil {
			t.Fatal(err)
		}
		en.closeJournal()
		segs = append(segs, en.Stats())
		// A context that is done from the start: ResumeContext restores the
		// state and returns before the first superstep.
		en = fresh()
		if _, err := en.ResumeContext(&countingCtx{Context: context.Background()}, f.nv); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("resume: %v", err)
		}
		if _, err := en.openJournal(f.nv); err != nil {
			t.Fatal(err)
		}
		hiddenPair(t, en, "after resume")
	}
	if err := en.Persist(); err != nil {
		t.Fatal(err)
	}
	en.closeJournal()
	return en, append(segs, en.Stats()), unconnected
}

// TestOwedNeverHidesAJoinablePair holds the scheduler's connectivity test to
// brute force and to the scheduler without it, over the three grammars of the
// frontier-cut tests and random edge sets drawn from their fixtures, closed by
// hand with forced splits, under a variant cap of 2 and with widening off.
//
// At every superstep boundary of a run — and again in the fresh engine that
// resumes from that boundary — no edge pair that still has to be merged lies
// across (or within) a partition pair that owed refuses, and every first
// edge's Dst lies in its partition's destination range. The run resumed at
// every boundary does exactly what the uninterrupted one does: the same
// supersteps, the same closed graph in the same on-disk order, the same
// counts; the range a resumed engine rebuilds from the edges schedules as the
// one that was widened edge by edge.
//
// Against the reference that schedules by stamps alone (Engine.stampsOnly) the
// run is held to what does not depend on the schedule: the two visit the
// partitions in different orders — a pass the reference spends on two
// unconnected partitions also joins each against itself, which the range run
// does under another pair, earlier or later — so under the cap, which keeps
// the first variants to arrive, and in CacheLookups, which skips a candidate
// whose edge an earlier superstep already inserted, they may legitimately
// differ. With widening off every schedule reaches the same closed graph
// merging every edge pair once: the edge set and both rejection counts must
// be the reference's. (What the ranges save is gated where it shows, on whole
// subjects: the checker's TestOutOfCorePassesPerPartition.)
func TestOwedNeverHidesAJoinablePair(t *testing.T) {
	const noCap = 1 << 30
	for _, f := range cutFixtures(t) {
		t.Run(f.name, func(t *testing.T) {
			var apart, splits, rejected int64
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				edges, splitAt := scatter(f, rng), int64(rng.Intn(60)+30)
				for _, maxVariants := range []int{2, noCap} {
					en, segs, unconnected := closeByHand(t, f, edges, maxVariants, splitAt, false, false)
					st := segs[0]
					if st.CacheLookups == 0 || st.Partitions < 2 {
						t.Fatalf("seed %d: workload too small to mean anything: %+v", seed, st)
					}
					apart, splits = apart+int64(unconnected), splits+st.Repartitions
					rejected += st.RejectedConflict + st.RejectedUnsat + st.Widened

					ren, rsegs, _ := closeByHand(t, f, edges, maxVariants, splitAt, false, true)
					last := rsegs[len(rsegs)-1]
					if fingerprint(t, ren) != fingerprint(t, en) {
						t.Errorf("seed %d, cap %d: the run resumed at every boundary closed to a different graph", seed, maxVariants)
					}
					if !sameJoin(st, rsegs...) || last.Iterations != st.Iterations || last.Repartitions != st.Repartitions {
						t.Errorf("seed %d, cap %d: the run resumed at every boundary did other work than the uninterrupted one:\n resumed %+v\n in one  %+v",
							seed, maxVariants, last, st)
					}
					if maxVariants != noCap {
						continue
					}
					ref, refSegs, _ := closeByHand(t, f, edges, maxVariants, splitAt, true, false)
					refSt := refSegs[0]
					if !reflect.DeepEqual(closureFingerprint(t, en), closureFingerprint(t, ref)) {
						t.Errorf("seed %d: closed to a different graph than the stamps-only scheduler (%d edges, reference %d)",
							seed, en.EdgesAfter(), ref.EdgesAfter())
					}
					if st.RejectedUnsat != refSt.RejectedUnsat || st.RejectedConflict != refSt.RejectedConflict {
						t.Errorf("seed %d: rejected %d unsat / %d conflicts, the stamps-only scheduler %d / %d",
							seed, st.RejectedUnsat, st.RejectedConflict, refSt.RejectedUnsat, refSt.RejectedConflict)
					}
				}
			}
			t.Logf("%d unconnected pairs seen at boundaries, %d splits, %d candidates rejected or widened", apart, splits, rejected)
			if apart == 0 || splits == 0 || rejected == 0 {
				t.Errorf("the edge sets do not exercise the destination ranges")
			}
		})
	}
}

// TestOwedRangeIsClosed puts each end of the range test on the one edge set
// where it decides alone: two partitions [0,k) and [k,n) that a single first
// edge connects, ending exactly on the other partition's first vertex (a
// chain cut in two: the low half's largest Dst is k) or exactly on its last (two
// chains, and an edge from the end of the high one back to vertex k-1, whose
// only out-edge also points backwards: the high half's smallest Dst is k-1).
// An off-by-one at either end of reaches leaves that pair unscheduled.
func TestOwedRangeIsClosed(t *testing.T) {
	const k, n = 8, 16
	d := grammar.NewDataflow()
	forward := chainEdges(n, d.Step)
	var backward []storage.Edge
	for _, e := range forward {
		if e.Dst != k {
			backward = append(backward, e)
		}
	}
	backward = append(backward, flowEdge(k-1, k-2, d.Step), flowEdge(n-1, k-1, d.Step))
	// Both sets start k equal-sized records below vertex k and no vertex is a
	// cut: preprocess draws the boundary where its limit falls.
	budget := 4 * k * storage.RecordSize(&forward[0])
	for _, tc := range []struct {
		name  string
		edges []storage.Edge
		from  int // the partition that points into the other
	}{
		{"range ends on the first vertex", forward, 0},
		{"range ends on the last vertex", backward, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := cutFixture{ic: emptyICFET(), g: d.G, nv: n, budget: budget}
			en, _, _ := closeByHand(t, f, tc.edges, 0, 1<<30, false, false)
			if len(en.parts) != 2 || en.parts[1].lo != k || en.parts[1-tc.from].reaches(en.parts[tc.from]) {
				t.Fatalf("%d partitions, the low one pointing at [%d,%d] and the high one, from vertex %d, at [%d,%d]: not the case this test is about",
					len(en.parts), en.parts[0].dstMin, en.parts[0].dstMax, en.parts[1].lo, en.parts[1].dstMin, en.parts[1].dstMax)
			}
			ref, _ := runEngine(t, f.ic, f.g, Options{}, tc.edges, n)
			if !reflect.DeepEqual(closureFingerprint(t, en), closureFingerprint(t, ref)) {
				t.Errorf("closed to %d edges, the one-partition run to %d, or to others", en.EdgesAfter(), ref.EdgesAfter())
			}
		})
	}
}

// crossed reports whether an edge of the set crosses vertex v: starts on one
// side of it and ends on the other.
func crossed(edges []storage.Edge, v uint32) bool {
	for i := range edges {
		if e := &edges[i]; min(e.Src, e.Dst) < v && v <= max(e.Src, e.Dst) {
			return true
		}
	}
	return false
}

// islands is a random union of unconnected components over contiguous
// vertices, labelled as base edges of the dataflow grammar: chains with a few
// chords, most of them small, now and then one that outweighs any window a
// boundary is looked for in, and with probability 1/2 a single edge from
// somewhere to a far-away vertex, which no boundary between its ends may be
// called a cut over.
func islands(rng *rand.Rand, step grammar.Label) ([]storage.Edge, uint32) {
	var edges []storage.Edge
	have := map[[2]uint32]bool{}
	add := func(src, dst uint32) {
		if !have[[2]uint32{src, dst}] {
			have[[2]uint32{src, dst}] = true
			edges = append(edges, flowEdge(src, dst, step))
		}
	}
	var base uint32
	for c := rng.Intn(20) + 4; c > 0; c-- {
		size := uint32(rng.Intn(12) + 2)
		if rng.Intn(6) == 0 {
			size *= 12
		}
		for v := uint32(0); v+1 < size; v++ {
			add(base+v, base+v+1)
			if rng.Intn(4) == 0 {
				add(base+v, base+uint32(rng.Intn(int(size))))
			}
		}
		base += size + uint32(rng.Intn(3)) // sometimes vertices no edge touches
	}
	if rng.Intn(2) == 0 {
		add(uint32(rng.Intn(int(base))), uint32(rng.Intn(int(base))))
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges, base
}

// TestCutIsACut holds both boundary rules to brute force, over random unions
// of components and random budgets. preprocess: the number of boundaries it
// reports as cuts is the number no input edge crosses; a chunk ends at the
// first cut once it is within a quarter of the limit, so no cut inside that
// window was passed over, and a boundary that is not a cut is where the limit
// fell. repartition, over what the partitions hold after two rounds of
// closure: the boundary it reports as a cut is one of the loaded edges — an
// edge that leaves the partition's interval crosses every vertex up to the
// interval's end — and leaves between a quarter and three quarters of them
// below it, no cut in that window is nearer the median, and it falls back to
// the median source exactly when the window holds no cut.
func TestCutIsACut(t *testing.T) {
	d := grammar.NewDataflow()
	var snapped, fallbacks int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		edges, nv := islands(rng, d.Step)
		var events bytes.Buffer
		rec := trace.NewWriters(nil, &events)
		en := New(emptyICFET(), d.G, Options{
			Dir: t.TempDir(), MemoryBudget: int64(rng.Intn(6)+1) << 10, Workers: 1, Scope: trace.Scope{Rec: rec},
		})
		en.noSplit = true
		cuts, err := en.preprocess(edges, nv)
		if err != nil {
			t.Fatal(err)
		}

		limit := en.opts.MemoryBudget / 4
		bytesIn := func(lo, hi uint32) (n int64) { // of the edges that start in [lo, hi)
			for i := range edges {
				if edges[i].Src >= lo && edges[i].Src < hi {
					n += storage.RecordSize(&edges[i])
				}
			}
			return n
		}
		isSource := map[uint32]bool{}
		for i := range edges {
			isSource[edges[i].Src] = true
		}
		trueCuts := 0
		for k, p := range en.parts[1:] {
			lo, b := en.parts[k].lo, p.lo
			isCut := !crossed(edges, b)
			if isCut {
				trueCuts++
			}
			if forced := bytesIn(lo, b+1) > limit; !forced && !(isCut && bytesIn(lo, b) >= limit-limit/4) {
				t.Fatalf("seed %d: preprocess drew a boundary at %d (cut: %v) after %d bytes of a limit of %d",
					seed, b, isCut, bytesIn(lo, b), limit)
			}
			for v := lo + 1; v < b; v++ {
				if isSource[v] && !crossed(edges, v) && bytesIn(lo, v) >= limit-limit/4 {
					t.Fatalf("seed %d: preprocess drew a boundary at %d (cut: %v) and passed over the cut at %d inside the window",
						seed, b, isCut, v)
				}
			}
		}
		if cuts != trueCuts {
			t.Fatalf("seed %d: preprocess reports %d cuts among its %d boundaries, brute force finds %d",
				seed, cuts, len(en.parts)-1, trueCuts)
		}

		// Two rounds of closure in every partition, then split each.
		type split struct {
			loaded []storage.Edge
			lo, hi uint32
		}
		var splits []split
		for pos := len(en.parts) - 1; pos >= 0; pos-- {
			for range 2 {
				if _, _, err := en.processPair(pos, pos); err != nil {
					t.Fatal(err)
				}
			}
			p, nParts := en.parts[pos], len(en.parts)
			s := split{loaded: p.mem.edges.slice(), lo: p.lo, hi: p.hi}
			if err := en.repartition(pos); err != nil {
				t.Fatal(err)
			}
			if len(en.parts) > nParts {
				splits = append(splits, s)
			}
			if err := en.evict(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		for _, ev := range traceEvents(t, &events) {
			if ev.Name != "repartition" {
				continue
			}
			s, mid := splits[0], ev.Args.Mid
			splits = splits[1:]
			n := len(s.loaded)
			below := func(v uint32) (k int) {
				for i := range s.loaded {
					if s.loaded[i].Src < v {
						k++
					}
				}
				return k
			}
			inWindow := func(v uint32) bool { return 4*below(v) >= n && 4*below(v) <= 3*n }
			off := func(v uint32) int { return max(below(v)-n/2, n/2-below(v)) }
			if mid <= s.lo || mid >= s.hi {
				t.Fatalf("seed %d: split of [%d,%d) at %d", seed, s.lo, s.hi, mid)
			}
			if isCut := isSource[mid] && !crossed(s.loaded, mid) && inWindow(mid); isCut != ev.Args.Cut {
				t.Fatalf("seed %d: split of [%d,%d) at %d, %d of %d edges below it, reported as cut: %v, brute force says %v",
					seed, s.lo, s.hi, mid, below(mid), n, ev.Args.Cut, isCut)
			}
			for v := s.lo + 1; v < s.hi; v++ {
				if !isSource[v] || crossed(s.loaded, v) || !inWindow(v) {
					continue
				}
				if !ev.Args.Cut {
					t.Fatalf("seed %d: split of [%d,%d) fell back to %d although %d is a cut inside the window", seed, s.lo, s.hi, mid, v)
				}
				if off(v) < off(mid) {
					t.Fatalf("seed %d: split of [%d,%d) snapped to %d, %d edges off the median, although the cut at %d is %d off",
						seed, s.lo, s.hi, mid, off(mid), v, off(v))
				}
			}
			if ev.Args.Cut {
				snapped++
			} else {
				fallbacks++
			}
		}
		if len(splits) != 0 {
			t.Fatalf("seed %d: %d splits left no repartition instant in the trace", seed, len(splits))
		}
	}
	t.Logf("%d splits snapped to a cut, %d fell back to the median source", snapped, fallbacks)
	if snapped == 0 || fallbacks == 0 {
		t.Fatalf("%d snapped splits and %d fallbacks: the edge sets do not exercise both rules", snapped, fallbacks)
	}
}
