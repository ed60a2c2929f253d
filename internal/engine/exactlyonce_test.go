package engine

import (
	"os"
	"reflect"
	"testing"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/grammar"
	"github.com/grapple-system/grapple/internal/storage"
)

// startEngine preprocesses the initial edges and stops before the first
// superstep, so a test can drive the pair loop by hand; like runEngine it
// gives the engine a fresh memo unless opts has one. The engine never
// splits on its own (noSplit): the only splits are the ones the test forces.
func startEngine(t *testing.T, ic *cfet.ICFET, g *grammar.Grammar, opts Options, edges []storage.Edge, nv uint32) *Engine {
	t.Helper()
	opts.Dir = t.TempDir()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		t.Fatal(err)
	}
	en := New(ic, g, withMemo(opts))
	en.noSplit = true
	if _, err := en.preprocess(edges, nv); err != nil {
		t.Fatal(err)
	}
	return en
}

// driveToFixpoint is runLoop without the journal and the final flush of the
// pending buffers.
func driveToFixpoint(t *testing.T, en *Engine) {
	t.Helper()
	for {
		i, j, ok := en.nextPair()
		if !ok {
			return
		}
		if _, _, err := en.processPair(i, j); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRepartitionInheritsStamps splits a partition whose every sub-join is
// clean and requires that the split-off half starts with its parent's
// history instead of none: the three kinds of inherited entry exist, nothing
// becomes dirty, and passes forced over every pair merge nothing — every
// edge pair in the graph predates the split and was joined before it.
func TestRepartitionInheritsStamps(t *testing.T) {
	const n = 96
	ic, d, edges := joinChain(t, n)
	en := startEngine(t, ic, d.G, Options{MemoryBudget: 4 << 10, Workers: 2}, edges, n)
	if len(en.parts) < 2 {
		t.Fatalf("%d partitions after preprocess, want at least 2", len(en.parts))
	}
	driveToFixpoint(t, en)
	before, edgesBefore := en.Stats(), en.EdgesAfter()
	if before.RejectedConflict == 0 || before.CacheLookups == 0 {
		t.Fatalf("workload too small to mean anything: %+v", before)
	}

	if _, err := en.load(0); err != nil {
		t.Fatal(err)
	}
	nParts := len(en.parts)
	if err := en.repartition(0); err != nil {
		t.Fatal(err)
	}
	if len(en.parts) != nParts+1 {
		t.Fatalf("split did not happen: %d partitions, had %d", len(en.parts), nParts)
	}
	p, np, q := en.parts[0].id, en.parts[1].id, en.parts[2].id
	self := en.stamp(p, p)
	if !self.seen {
		t.Fatal("partition 0 has no self stamp at fixpoint")
	}
	for _, c := range []struct {
		name      string
		got, want stamp
	}{
		{"self (new, new)", en.stamp(np, np), self},
		{"sibling (low, new)", en.stamp(p, np), self},
		{"other (new, q)", en.stamp(np, q), en.stamp(p, q)},
	} {
		if !c.want.seen || c.got != c.want {
			t.Errorf("%s stamp = %+v, want the inherited %+v", c.name, c.got, c.want)
		}
	}
	if i, j, dirty := en.nextPair(); dirty {
		t.Errorf("split made pair (%d,%d) dirty; nothing is newer than the inherited stamps", i, j)
	}

	// Force a pass over every pair, dirty or not. A merge of two pre-split
	// edges would show as a conflict (counted before the dedupe probe) or as
	// a cache lookup or a new edge.
	for i := range en.parts {
		for j := i; j < len(en.parts); j++ {
			if _, _, err := en.processPair(i, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := en.Stats()
	if after.RejectedConflict != before.RejectedConflict || after.CacheLookups != before.CacheLookups ||
		after.RejectedUnsat != before.RejectedUnsat || en.EdgesAfter() != edgesBefore {
		t.Fatalf("passes after the split re-merged old pairs (%d edges, had %d):\n before %+v\n after  %+v",
			en.EdgesAfter(), edgesBefore, before, after)
	}
}

// TestSplitMidRunJoinsEachPairOnce forces a split right after the first
// self pass, while new edges are still waiting to be joined, and requires
// the run to close to the same graph with exactly the rejection counts of
// the run that never split: the pairs the split-off half inherited as
// joined are not merged again, and none is skipped.
func TestSplitMidRunJoinsEachPairOnce(t *testing.T) {
	const n = 96
	ic, d, edges := joinChain(t, n)
	opts := Options{MemoryBudget: 4 << 10, Workers: 2}

	ref := startEngine(t, ic, d.G, opts, edges, n)
	driveToFixpoint(t, ref)

	en := startEngine(t, ic, d.G, opts, edges, n)
	if _, _, err := en.processPair(0, 0); err != nil {
		t.Fatal(err)
	}
	nParts := len(en.parts)
	if err := en.repartition(0); err != nil {
		t.Fatal(err)
	}
	if len(en.parts) != nParts+1 {
		t.Fatal("split did not happen")
	}
	driveToFixpoint(t, en)

	want, got := ref.Stats(), en.Stats()
	if got.RejectedConflict != want.RejectedConflict || got.RejectedUnsat != want.RejectedUnsat || got.Widened != want.Widened {
		t.Fatalf("split run rejected %d conflicts / %d unsat (widened %d), unsplit run %d / %d (%d)",
			got.RejectedConflict, got.RejectedUnsat, got.Widened, want.RejectedConflict, want.RejectedUnsat, want.Widened)
	}
	if !reflect.DeepEqual(closureFingerprint(t, en), closureFingerprint(t, ref)) {
		t.Fatal("split run closed to a different graph")
	}
}

// TestChunkClaimingIsOrderPreserving closes joinChain in and out of core on
// 1, 2, 3 and 8 workers, over a frontier of many chunks and over one smaller
// than a single chunk: whichever worker claims which chunk, insertion
// happens in frontier order, so the closed graph — on-disk order included —
// and every counter insertion order feeds must equal the one-worker run's.
func TestChunkClaimingIsOrderPreserving(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      uint32
		budget int64
	}{
		{"in core", 96, 0},
		{"out of core", 96, 16 << 10},
		{"frontier under one chunk", 12, 0},
		{"frontier under one chunk, out of core", 12, 1 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ic, d, edges := joinChain(t, tc.n)
			var baseline string
			var baseStats *Stats
			for _, workers := range []int{1, 2, 3, 8} {
				en, st := runEngine(t, ic, d.G, Options{MemoryBudget: tc.budget, Workers: workers}, edges, tc.n)
				fp := fingerprint(t, en)
				if baseStats == nil {
					if small := tc.n == 12; small != (st.EdgesAfter < joinChunkEdges) {
						t.Fatalf("%d edges after closure does not fit the case (chunk is %d)", st.EdgesAfter, joinChunkEdges)
					}
					if (tc.budget != 0) != (st.Partitions > 1) {
						t.Fatalf("%d partitions under budget %d", st.Partitions, tc.budget)
					}
					baseline, baseStats = fp, st
					continue
				}
				if fp != baseline {
					t.Fatalf("closed graph differs between 1 and %d workers", workers)
				}
				if st.EdgesAfter != baseStats.EdgesAfter || st.Widened != baseStats.Widened ||
					st.RejectedUnsat != baseStats.RejectedUnsat || st.RejectedConflict != baseStats.RejectedConflict ||
					st.CacheLookups != baseStats.CacheLookups || st.Iterations != baseStats.Iterations {
					t.Fatalf("stats differ between 1 and %d workers:\n  %+v\n  %+v", workers, baseStats, st)
				}
			}
		})
	}
}
