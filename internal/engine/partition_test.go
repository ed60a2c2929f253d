package engine

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"github.com/grapple-system/grapple/internal/storage"
)

// fileHas reports whether p's file holds an edge src -> dst.
func fileHas(t *testing.T, p *partition, src, dst uint32) bool {
	t.Helper()
	edges, _, _, err := storage.ReadPart(p.path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range edges {
		if edges[i].Src == src && edges[i].Dst == dst {
			return true
		}
	}
	return false
}

// TestSplitKeepsPerPartitionState: a split moves table positions, so nothing
// a partition owns may be found by position. A later partition is given
// pending edges and a seat in the hot pair; after partition 0 is split under
// it, both must still be that partition's —
// and the next checkpoint must journal the hot pair under its unchanged ids.
func TestSplitKeepsPerPartitionState(t *testing.T) {
	const n = 200
	d := allPairs()
	en := startEngine(t, emptyICFET(), d.G, Options{MemoryBudget: 4 << 10}, chainEdges(n, d.Flow), n)
	if err := en.startJournal(n); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(en.closeJournal)
	last := len(en.parts) - 1
	if last < 2 {
		t.Fatalf("%d partitions after preprocess, want at least 3", len(en.parts))
	}
	other, later := en.parts[1], en.parts[last]
	otherID, laterID := other.id, later.id

	// The hot seat, by a real pass; then out of memory again, so that the
	// edge inserted next is buffered.
	if _, _, err := en.processPair(1, last); err != nil {
		t.Fatal(err)
	}
	if err := en.evict(later); err != nil {
		t.Fatal(err)
	}
	e := flowEdge(later.lo, 0, d.Flow)
	e.Gen = en.curGen
	en.insert(&e, e.PayloadHash())
	if len(later.pending) != 1 {
		t.Fatalf("%d pending edges on the unloaded partition, want 1", len(later.pending))
	}

	if _, err := en.load(0); err != nil {
		t.Fatal(err)
	}
	if err := en.repartition(0); err != nil {
		t.Fatal(err)
	}
	if len(en.parts) != last+2 || en.parts[last+1] != later || en.parts[2] != other {
		t.Fatalf("split of partition 0 did not shift the later partitions by one position")
	}

	if en.hot != [2]*partition{other, later} {
		t.Errorf("hot pair names partitions %d,%d after the split, want %d,%d",
			en.hot[0].id, en.hot[1].id, otherID, laterID)
	}
	if len(later.pending) != 1 {
		t.Errorf("%d pending edges after the split, want the 1 buffered before it", len(later.pending))
	}

	// The checkpoint flushes pending buffers and journals the hot pair.
	if err := en.checkpoint(false); err != nil {
		t.Fatal(err)
	}
	if !fileHas(t, later, e.Src, e.Dst) {
		t.Error("the pending edge did not reach its partition's file on the flush")
	}
	for _, p := range en.parts {
		if p != later && fileHas(t, p, e.Src, e.Dst) {
			t.Errorf("the pending edge was flushed into partition %d's file", p.id)
		}
	}
	_, recs, _, err := storage.ReadJournal[JournalRecord](filepath.Join(en.opts.Dir, JournalName))
	if err != nil {
		t.Fatal(err)
	}
	rec := recs[len(recs)-1]
	if rec.HotA != otherID || rec.HotB != laterID {
		t.Errorf("journaled hot pair %d,%d, want the unchanged ids %d,%d", rec.HotA, rec.HotB, otherID, laterID)
	}
	if got := rec.Parts[last+1]; got.ID != laterID || got.Lo != later.lo || got.Edges != later.edges {
		t.Errorf("journaled partition at the shifted position is %+v, want id %d over [%d,%d) with %d edges",
			got, laterID, later.lo, later.hi, later.edges)
	}
}

// TestLoadedPendingEdgesSurviveEviction: edges merged from the pending buffer
// at load exist only in memory, so the loaded partition must count as dirty
// even if the pass it was loaded for adds nothing to it.
func TestLoadedPendingEdgesSurviveEviction(t *testing.T) {
	const n = 200
	d := allPairs()
	en := startEngine(t, emptyICFET(), d.G, Options{MemoryBudget: 4 << 10}, chainEdges(n, d.Flow), n)
	last := len(en.parts) - 1
	p := en.parts[last]
	// Out of memory first: preprocess leaves what fits the budget loaded.
	if err := en.evict(p); err != nil {
		t.Fatal(err)
	}
	e := flowEdge(p.lo, 0, d.Flow)
	e.Gen = 1
	en.insert(&e, e.PayloadHash())
	if len(p.pending) != 1 {
		t.Fatalf("%d pending edges, want 1", len(p.pending))
	}
	if _, err := en.load(last); err != nil {
		t.Fatal(err)
	}
	if err := en.evict(p); err != nil {
		t.Fatal(err)
	}
	if !fileHas(t, p, e.Src, e.Dst) {
		t.Fatal("an edge merged from pending at load was dropped by a clean eviction")
	}
	var onDisk int64
	if err := en.ForEach(func(*storage.Edge) bool { onDisk++; return true }); err != nil {
		t.Fatal(err)
	}
	if onDisk != en.EdgesAfter() {
		t.Fatalf("%d edges on disk, %d counted", onDisk, en.EdgesAfter())
	}
}

// TestForEachMixedResidency reads a closed graph that lies where a run under a
// tight budget leaves it and where a caller may find it between passes: some
// partitions loaded and dirty, the others in their files with edges still in
// their pending buffers. ForEach must hand out every edge exactly once, each
// partition's in the order its file will have, whichever place it comes from,
// and stop the moment f returns false — inside a loaded partition, inside a
// file, inside a pending buffer.
func TestForEachMixedResidency(t *testing.T) {
	const n = 96
	d := allPairs()
	en, _ := runEngine(t, emptyICFET(), d.G, Options{MemoryBudget: 16 << 10}, chainEdges(n, d.Flow), n)
	// One more edge into every other partition, loaded or not.
	for i, p := range en.parts {
		if i%2 == 0 {
			e := flowEdge(p.lo, n-1-p.lo, d.Flow)
			e.HasRel = true // no edge of the closure has one: a new key
			e.Gen = en.curGen
			en.insert(&e, e.PayloadHash())
		}
	}
	var want []uint64
	var stops []int // each partition's first, middle and last edge, and its first pending one
	var loadedDirty, unloadedPending int
	for _, p := range en.parts {
		switch {
		case p.mem != nil && p.mem.dirty:
			loadedDirty++
		case p.mem == nil && len(p.pending) > 0:
			unloadedPending++
		}
		edges := owned(t, p)
		stops = append(stops, len(want)+1, len(want)+len(edges)/2, len(want)+len(edges))
		if p.mem == nil && len(p.pending) > 0 {
			stops = append(stops, len(want)+len(edges)-len(p.pending)+1)
		}
		for _, e := range edges {
			want = append(want, e.Key())
		}
	}
	if loadedDirty == 0 || unloadedPending == 0 || int64(len(want)) != en.EdgesAfter() {
		t.Fatalf("%d partitions loaded and dirty, %d unloaded with pending edges, %d edges owned of %d counted: not the mix the test is about",
			loadedDirty, unloadedPending, len(want), en.EdgesAfter())
	}
	readBefore := en.Stats().IO
	var got []uint64
	if err := en.ForEach(func(e *storage.Edge) bool { got = append(got, e.Key()); return true }); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("ForEach handed out %d edges, the partitions own %d, or in another order", len(got), len(want))
	}
	seen := map[uint64]bool{}
	for _, k := range got {
		if seen[k] {
			t.Fatalf("edge %#x handed out twice", k)
		}
		seen[k] = true
	}
	// The files it streamed are read traffic, and not loads: nothing entered
	// memory.
	if io := en.Stats().IO; io.BytesRead <= readBefore.BytesRead || io.Loads != readBefore.Loads {
		t.Fatalf("streaming the unloaded partitions moved bytes read %d -> %d and loads %d -> %d",
			readBefore.BytesRead, io.BytesRead, readBefore.Loads, io.Loads)
	}
	for _, stop := range stops {
		calls := 0
		if err := en.ForEach(func(*storage.Edge) bool { calls++; return calls < stop }); err != nil {
			t.Fatal(err)
		}
		if calls != stop {
			t.Fatalf("f returned false at edge %d, ForEach went on to %d", stop, calls)
		}
	}
}

// TestPartitionEdgesInGenerationOrder checks the invariant the frontier's
// binary search rests on (memPart.edges): every loaded partition's edges are
// in non-decreasing generation order after preprocess, after each superstep's
// loads — which merge pending edges after the file's — and after its inserts
// and splits, over the cut fixtures at budgets that split partitions; and so
// they are in a run killed at its midpoint and resumed from the journal by a
// fresh engine. A partition of a superstep is loaded and checked before the
// pass joins it, the pass's own loads then being cache hits.
func TestPartitionEdgesInGenerationOrder(t *testing.T) {
	ordered := func(t *testing.T, en *Engine, when string) {
		t.Helper()
		for _, p := range en.parts {
			if p.mem == nil {
				continue
			}
			for k := 1; k < p.mem.edges.len(); k++ {
				if a, b := p.mem.edges.at(k-1).Gen, p.mem.edges.at(k).Gen; a > b {
					t.Fatalf("%s: partition %d holds generation %d at %d after %d at %d", when, p.id, b, k, a, k-1)
				}
			}
		}
	}
	// drive runs at most limit supersteps, checkpointing each if the run is
	// journaled, and returns how many it ran and how many of their loads merged
	// pending edges into a partition whose file holds edges. (A checkpoint
	// appends every pending buffer to its file, so only an unjournaled run's
	// loads merge any.)
	drive := func(t *testing.T, en *Engine, limit int) (steps, merges int) {
		t.Helper()
		for ; steps < limit; steps++ {
			i, j, ok := en.nextPair()
			if !ok {
				break
			}
			if err := en.ensureBudget(en.parts[i], en.parts[j]); err != nil {
				t.Fatal(err)
			}
			for _, idx := range []int{i, j} {
				if p := en.parts[idx]; p.mem == nil && len(p.pending) > 0 && p.edges > int64(len(p.pending)) {
					merges++
				}
				if _, err := en.load(idx); err != nil {
					t.Fatal(err)
				}
			}
			ordered(t, en, fmt.Sprintf("superstep %d, loaded", steps))
			if _, _, err := en.processPair(i, j); err != nil {
				t.Fatal(err)
			}
			ordered(t, en, fmt.Sprintf("superstep %d, inserted", steps))
			if en.jw == nil {
				continue
			}
			if err := en.checkpoint(false); err != nil {
				t.Fatal(err)
			}
		}
		return steps, merges
	}
	engine := func(t *testing.T, f cutFixture, budget int64, dir string, journal bool) *Engine {
		opts := Options{Dir: dir, MemoryBudget: budget, Workers: 2, MaxVariants: 2}
		if journal {
			opts.JournalTag = 0x6e6
		}
		en := New(f.ic, f.g, withMemo(opts))
		t.Cleanup(en.closeJournal)
		return en
	}
	start := func(t *testing.T, en *Engine, f cutFixture) {
		t.Helper()
		if _, err := en.preprocess(f.edges, f.nv); err != nil {
			t.Fatal(err)
		}
		ordered(t, en, "after preprocess")
		if en.opts.JournalTag != 0 {
			if err := en.startJournal(f.nv); err != nil {
				t.Fatal(err)
			}
		}
	}
	merges := 0
	for _, f := range cutFixtures(t) {
		for _, budget := range []int64{f.budget, f.budget / 2} {
			t.Run(fmt.Sprintf("%s/%d", f.name, budget), func(t *testing.T) {
				whole := engine(t, f, budget, t.TempDir(), false)
				start(t, whole, f)
				steps, m := drive(t, whole, math.MaxInt)
				if whole.stats.Repartitions == 0 {
					t.Fatalf("%d supersteps split no partition", steps)
				}
				dir := t.TempDir()
				killed := engine(t, f, budget, dir, true)
				start(t, killed, f)
				drive(t, killed, steps/2)
				killed.closeJournal()
				resumed := engine(t, f, budget, dir, true)
				rec, err := resumed.openJournal(f.nv)
				if err != nil {
					t.Fatal(err)
				}
				if err := resumed.restoreFrom(rec, f.nv); err != nil {
					t.Fatal(err)
				}
				resumed.jseq = rec.Seq + 1
				rest, _ := drive(t, resumed, math.MaxInt)
				if rest == 0 || steps/2+rest < steps {
					t.Fatalf("resumed at superstep %d of %d, ran %d more", steps/2, steps, rest)
				}
				t.Logf("%d supersteps, %d splits, %d loads merging pending edges", steps, whole.stats.Repartitions, m)
				merges += m
			})
		}
	}
	if merges == 0 {
		t.Fatal("no load merged pending edges into a partition file: the load order is not exercised")
	}
}
