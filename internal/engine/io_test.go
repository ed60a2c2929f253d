package engine

import (
	"errors"
	"sort"
	"testing"
	"time"

	"github.com/grapple-system/grapple/internal/grammar"
	"github.com/grapple-system/grapple/internal/metrics"
	"github.com/grapple-system/grapple/internal/storage"
)

// chainEdges builds the n-vertex chain used by the out-of-core tests.
func chainEdges(n uint32, l grammar.Label) []storage.Edge {
	var edges []storage.Edge
	for i := uint32(0); i+1 < n; i++ {
		edges = append(edges, flowEdge(i, i+1, l))
	}
	return edges
}

// closureKeys flattens the final on-disk graph into a sorted, comparable
// form (identity plus generation, the full observable engine output).
func closureKeys(t *testing.T, en *Engine) []uint64 {
	t.Helper()
	var keys []uint64
	if err := en.ForEach(func(e *storage.Edge) bool {
		keys = append(keys, e.Key()^uint64(e.Gen)<<32)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// TestIODoneCounters pins what each storage operation books: its bytes and
// count, a load-latency observation for the two kinds of load, and the time
// under Figure 9's I/O share whatever the operation.
func TestIODoneCounters(t *testing.T) {
	en := New(emptyICFET(), grammar.NewDataflow().G, Options{})
	en.ioDone("load", 0, 1000, 80*time.Microsecond)
	en.ioDone("prefetch-hit", 1, 3000, 5*time.Microsecond)
	en.ioDone("write", 0, 500, time.Millisecond)
	en.ioDone("append", 1, 50, time.Millisecond)
	en.ioDone("journal", -1, 70, time.Millisecond)
	want := metrics.IOSnapshot{
		BytesRead: 4000, BytesWritten: 550, Loads: 2, Writes: 1, Appends: 1,
		PrefetchHits: 1, JournalAppends: 1, JournalBytes: 70,
		LoadLatency: metrics.LatencyCounts{0: 1, 1: 1},
	}
	if st := en.Stats(); st.IO != want || st.Breakdown != (metrics.Snapshot{IO: 3085 * time.Microsecond}) {
		t.Fatalf("booked\n %+v (breakdown %+v), want\n %+v", st.IO, st.Breakdown, want)
	}
}

func TestIOStatsReported(t *testing.T) {
	d := allPairs()
	_, st := runEngine(t, emptyICFET(), d.G, Options{MemoryBudget: 4096}, chainEdges(40, d.Flow), 40)
	if st.IO.BytesWritten == 0 || st.IO.Writes == 0 {
		t.Fatalf("no write traffic recorded: %+v", st.IO)
	}
	if st.IO.Loads == 0 || st.IO.BytesRead == 0 {
		t.Fatalf("no read traffic recorded: %+v", st.IO)
	}
	if st.IO.CacheHits == 0 {
		t.Fatalf("hot pair re-selection should hit the cache: %+v", st.IO)
	}
	var hist int64
	for _, n := range st.IO.LoadLatency {
		hist += n
	}
	if hist != st.IO.Loads {
		t.Fatalf("latency histogram covers %d of %d loads", hist, st.IO.Loads)
	}
}

func TestPrefetchOverlapsLoads(t *testing.T) {
	// A tiny budget forces many partitions, so the scheduler keeps paying
	// for loads — which the prefetcher should be serving.
	d := allPairs()
	_, st := runEngine(t, emptyICFET(), d.G, Options{MemoryBudget: 4096}, chainEdges(40, d.Flow), 40)
	if st.Partitions < 3 {
		t.Fatalf("want several partitions, got %d", st.Partitions)
	}
	if st.IO.PrefetchIssued == 0 {
		t.Fatalf("prefetcher never ran: %+v", st.IO)
	}
	if st.IO.PrefetchHits == 0 {
		t.Fatalf("no load served by prefetch: %+v", st.IO)
	}
	// Every issued prefetch is accounted for: consumed, invalidated, or
	// wasted.
	if st.IO.PrefetchIssued != st.IO.PrefetchHits+st.IO.PrefetchStale+st.IO.PrefetchWasted {
		t.Fatalf("prefetch accounting leak: %+v", st.IO)
	}
}

// runEngineNoPrefetch is runEngine with speculation off: the prefetch-off
// reference, selectable only from inside this package.
func runEngineNoPrefetch(t *testing.T, g *grammar.Grammar, opts Options, edges []storage.Edge, nv uint32) (*Engine, *Stats) {
	t.Helper()
	opts.Dir = t.TempDir()
	en := New(emptyICFET(), g, opts)
	en.noPrefetch = true
	st, err := en.Run(edges, nv)
	if err != nil {
		t.Fatal(err)
	}
	return en, st
}

func TestPrefetchDisabled(t *testing.T) {
	d := allPairs()
	_, st := runEngineNoPrefetch(t, d.G, Options{MemoryBudget: 4096}, chainEdges(40, d.Flow), 40)
	if st.IO.PrefetchIssued != 0 || st.IO.PrefetchHits != 0 {
		t.Fatalf("prefetch ran while disabled: %+v", st.IO)
	}
}

// TestPrefetchAndCacheDeterminism is the acceptance gate for the I/O layer:
// the LRU cache and the prefetcher may only change when bytes move, never
// what the engine computes. The closure (edge identities and generations)
// must be identical with prefetch on and off, and iteration counts must
// match — proof that pair scheduling did not shift.
func TestPrefetchAndCacheDeterminism(t *testing.T) {
	d := allPairs()
	edges := chainEdges(48, d.Flow)
	enOn, stOn := runEngine(t, emptyICFET(), d.G,
		Options{MemoryBudget: 4096}, edges, 48)
	enOff, stOff := runEngineNoPrefetch(t, d.G, Options{MemoryBudget: 4096}, edges, 48)
	if stOn.Iterations != stOff.Iterations {
		t.Fatalf("schedule shifted: %d vs %d iterations", stOn.Iterations, stOff.Iterations)
	}
	if stOn.EdgesAfter != stOff.EdgesAfter || stOn.Repartitions != stOff.Repartitions ||
		stOn.Widened != stOff.Widened {
		t.Fatalf("results differ: on=%+v off=%+v", stOn, stOff)
	}
	kOn, kOff := closureKeys(t, enOn), closureKeys(t, enOff)
	if len(kOn) != len(kOff) {
		t.Fatalf("edge counts differ: %d vs %d", len(kOn), len(kOff))
	}
	for i := range kOn {
		if kOn[i] != kOff[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestLRUCacheEvicts(t *testing.T) {
	d := allPairs()
	_, st := runEngine(t, emptyICFET(), d.G, Options{MemoryBudget: 4096}, chainEdges(64, d.Flow), 64)
	if st.IO.Evictions == 0 {
		t.Fatalf("tiny budget must force evictions: %+v", st.IO)
	}
}

func TestLoadRejectsForeignPartitionFile(t *testing.T) {
	// A partition file whose header interval disagrees with the partition
	// table (e.g. files swapped by an operator) must fail the load, not
	// silently compute on the wrong vertices.
	d := allPairs()
	en, _ := runEngine(t, emptyICFET(), d.G, Options{MemoryBudget: 4096}, chainEdges(40, d.Flow), 40)
	if len(en.parts) < 2 {
		t.Fatalf("need at least 2 partitions, got %d", len(en.parts))
	}
	// Swap the first partition's file for the last one's.
	victim, donor := en.parts[0], en.parts[len(en.parts)-1]
	edges, info, _, err := storage.ReadPart(donor.path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !(info.Lo != 0 || info.Hi != 0) {
		t.Fatal("donor file has no recorded interval")
	}
	if _, err := storage.WritePart(victim.path, edges, info); err != nil {
		t.Fatal(err)
	}
	if _, err := en.load(0); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("load of a foreign partition file: %v, want storage.ErrCorrupt", err)
	}
}
