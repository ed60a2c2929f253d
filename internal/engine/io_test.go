package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"runtime"
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
// count, a load-latency observation for a load, and the time under Figure 9's
// I/O share whatever the operation.
func TestIODoneCounters(t *testing.T) {
	en := New(emptyICFET(), grammar.NewDataflow().G, Options{})
	en.ioDone("load", 0, 1000, 80*time.Microsecond)
	en.ioDone("write", 0, 500, time.Millisecond)
	en.ioDone("append", 1, 50, time.Millisecond)
	en.ioDone("journal", -1, 70, time.Millisecond)
	want := metrics.IOSnapshot{
		BytesRead: 1000, BytesWritten: 550, Loads: 1, Writes: 1, Appends: 1,
		JournalAppends: 1, JournalBytes: 70,
		LoadLatency: metrics.LatencyCounts{1: 1},
	}
	if st := en.Stats(); st.IO != want || st.Breakdown != (metrics.Snapshot{IO: 3080 * time.Microsecond}) {
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

// TestPartitionFileShortOfCountIsCorrupt: a partition file that reads back
// cleanly but one frame short — an append lost to a crash, or a cut — is
// ErrCorrupt to the load a pass makes and to ForEach, never a partition with
// fewer edges. The storage reader cannot tell such a file from a whole one;
// the partition table's count is what commits the append.
func TestPartitionFileShortOfCountIsCorrupt(t *testing.T) {
	d := allPairs()
	en, _ := runEngine(t, emptyICFET(), d.G, Options{MemoryBudget: 4096}, chainEdges(40, d.Flow), 40)
	idx := -1
	for i, p := range en.parts {
		if p.mem == nil && p.edges > int64(len(p.pending)) {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("no unloaded partition with a file")
	}
	p := en.parts[idx]
	raw, err := os.ReadFile(p.path)
	if err != nil {
		t.Fatal(err)
	}
	// Frames (rlen | payload | crc) follow the durable log's 18-byte header.
	last := 18
	for off := 18; off < len(raw); off += 8 + int(binary.LittleEndian.Uint32(raw[off:])) {
		last = off
	}
	if err := os.Truncate(p.path, int64(last)); err != nil {
		t.Fatal(err)
	}
	if edges, _, _, err := storage.ReadPart(p.path, nil); err != nil || int64(len(edges)) >= p.edges-int64(len(p.pending)) {
		t.Fatalf("the cut file reads %d edges of %d: %v", len(edges), p.edges, err)
	}
	if err := en.ForEach(func(*storage.Edge) bool { return true }); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("ForEach over a short file: %v, want storage.ErrCorrupt", err)
	}
	if _, _, err := en.processPair(idx, idx); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("a pass loading a short file: %v, want storage.ErrCorrupt", err)
	}
}

// hookCtx calls hook at every ctx.Err() check, on the run goroutine between
// supersteps, until hook reports that it has acted; it is never done.
type hookCtx struct {
	context.Context
	hook func() bool
}

func (c *hookCtx) Err() error {
	if c.hook != nil && c.hook() {
		c.hook = nil
	}
	return nil
}

// TestRunLeavesNoGoroutine: the join's workers are the only goroutines the
// engine starts, and every exit of a run outlives none of them. Three
// out-of-core chain runs — one that completes, one cancelled after its second
// superstep, one that loads a foreign partition file and fails — each end
// with the goroutine count no higher than before New.
func TestRunLeavesNoGoroutine(t *testing.T) {
	const n = 40
	d := allPairs()
	runs := []struct {
		name string
		ctx  func(en *Engine) context.Context
		want error
	}{
		{"completes", func(*Engine) context.Context { return context.Background() }, nil},
		{"cancelled", func(*Engine) context.Context {
			return &countingCtx{Context: context.Background(), left: 2}
		}, context.DeadlineExceeded},
		{"foreign file", func(en *Engine) context.Context {
			return &hookCtx{Context: context.Background(), hook: func() bool {
				// Rewrite the first evicted partition's file under an interval
				// that is not its own: the load that brings it back must
				// refuse it.
				for _, p := range en.parts {
					if p.mem != nil {
						continue
					}
					edges, _, _, err := storage.ReadPart(p.path, nil)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := storage.WritePart(p.path, edges, storage.PartInfo{Lo: p.hi, Hi: p.hi + 1}); err != nil {
						t.Fatal(err)
					}
					return true
				}
				return false
			}}
		}, storage.ErrCorrupt},
	}
	for _, r := range runs {
		before := runtime.NumGoroutine()
		en := New(emptyICFET(), d.G, Options{Dir: t.TempDir(), MemoryBudget: 4096, Workers: 4})
		_, err := en.RunContext(r.ctx(en), chainEdges(n, d.Flow), n)
		if !errors.Is(err, r.want) {
			t.Fatalf("%s: run returned %v, want %v", r.name, err, r.want)
		}
		if r.want == nil && en.stats.IO.Loads == 0 {
			t.Fatalf("%s: the run never loaded a partition: %+v", r.name, en.stats.IO)
		}
		// A join worker that has signalled the wait group may not have
		// exited yet; one that leaked never does. (A goroutine an earlier test
		// left exiting may go meanwhile: the count is held to at most before.)
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Errorf("%s: %d goroutines after the run, %d before New", r.name, got, before)
		}
	}
}
