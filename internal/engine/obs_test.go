package engine

import (
	"bytes"
	"encoding/json"
	"io"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/grapple-system/grapple/internal/trace"
)

// TestObservedRunIsRaceFree watches a run the way the CLI does — a heartbeat
// goroutine rewriting status.json every millisecond and a second reader
// polling Progress.Snapshot() throughout — while the engine does everything
// that writes a counter: eight join workers, several partitions and a split,
// eviction, loads, a journal. The counters have no lock of their
// own: the run goroutine is their only writer and pushes a copy through
// Progress at each superstep boundary, so under `make race` any other writer
// or any shared reference shows up here. The last pushed copy must agree
// with the returned Stats on everything the work after the last superstep
// (the final checkpoint) cannot move. The budget is small enough that
// ensureBudget evicts mid-run: nothing else does.
func TestObservedRunIsRaceFree(t *testing.T) {
	// Sized so that one superstep's frontier is more chunks than workers.
	const n = 320
	ic, d, edges := joinChain(t, n)
	prog := trace.NewProgress()
	stop := prog.Heartbeat(time.Millisecond, io.Discard, filepath.Join(t.TempDir(), "status.json"))
	polled := make(chan int)
	quit := make(chan struct{})
	go func() {
		polls := 0
		for {
			select {
			case <-quit:
				polled <- polls
				return
			default:
			}
			if s := prog.Snapshot(); s.CacheHits > s.CacheLookups {
				panic("torn snapshot")
			}
			polls++
		}
	}()
	en, st := runEngine(t, ic, d.G, Options{
		MemoryBudget: 64 << 10, Workers: 8, JournalTag: 7, Scope: trace.Scope{Progress: prog},
	}, edges, n)
	close(quit)
	if polls := <-polled; polls == 0 {
		t.Fatal("the poller never ran")
	}
	stop()

	if len(en.scratch) != 8 || st.Partitions < 3 || st.Repartitions == 0 || st.IO.Loads == 0 ||
		st.IO.Evictions == 0 || st.IO.JournalAppends == 0 || st.ConstraintsSolved == 0 {
		t.Fatalf("workload too small to mean anything (%d join workers): %+v", len(en.scratch), st)
	}
	last := prog.Snapshot()
	if last.Superstep != st.Iterations || last.Edges != st.EdgesAfter ||
		last.SolverCalls != st.ConstraintsSolved || last.CacheHits != st.CacheHits ||
		last.CacheLookups != st.CacheLookups || last.BytesRead != st.IO.BytesRead {
		t.Fatalf("last pushed snapshot disagrees with the returned stats:\n pushed   %+v\n returned %+v", last, st)
	}
	if last.BytesWritten == 0 || last.BytesWritten > st.IO.BytesWritten ||
		last.JournalBytes == 0 || last.JournalBytes > st.IO.JournalBytes {
		t.Fatalf("pushed write traffic %d B (journal %d B) is not a prefix of the returned %d B (journal %d B)",
			last.BytesWritten, last.JournalBytes, st.IO.BytesWritten, st.IO.JournalBytes)
	}
}

// TestTraceDoesNotChangeClosure is the engine-level half of the
// observation-only contract: the same input closed with tracing and
// progress attached must produce the exact same edge set, iteration count,
// and edge totals as a bare run.
func TestTraceDoesNotChangeClosure(t *testing.T) {
	d := allPairs()
	edges := chainEdges(48, d.Flow)

	enBare, stBare := runEngine(t, emptyICFET(), d.G, Options{MemoryBudget: 4096}, edges, 48)

	var chrome, jsonl bytes.Buffer
	rec := trace.NewWriters(&chrome, &jsonl)
	prog := trace.NewProgress()
	opts := Options{
		MemoryBudget: 4096,
		Dir:          t.TempDir(),
		Scope:        trace.Scope{Rec: rec, Progress: prog}.Lane("engine-test"),
	}
	enObs := New(emptyICFET(), d.G, opts)
	stObs, err := enObs.Run(edges, 48)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(closureKeys(t, enBare), closureKeys(t, enObs)) {
		t.Fatal("traced run produced a different closure")
	}
	if stBare.Iterations != stObs.Iterations ||
		stBare.EdgesBefore != stObs.EdgesBefore ||
		stBare.EdgesAfter != stObs.EdgesAfter {
		t.Fatalf("traced run changed stats: bare iter=%d eb=%d ea=%d, traced iter=%d eb=%d ea=%d",
			stBare.Iterations, stBare.EdgesBefore, stBare.EdgesAfter,
			stObs.Iterations, stObs.EdgesBefore, stObs.EdgesAfter)
	}

	// The trace itself must be a valid Chrome document with one span per
	// superstep (plus preprocess and metadata), each with the run goroutine's
	// insert time, which Figure 9's compute share includes.
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	supersteps, insertUs := 0, 0.0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "superstep" {
			supersteps++
			us, ok := ev.Args["insertUs"].(float64)
			if !ok {
				t.Fatalf("superstep span without insertUs: %v", ev.Args)
			}
			insertUs += us
		}
	}
	if compute := float64(stObs.Breakdown.Compute.Microseconds()); insertUs > compute {
		t.Fatalf("supersteps spent %.0f µs inserting, more than the run's %.0f µs of compute", insertUs, compute)
	}
	if int64(supersteps) != stObs.Iterations {
		t.Fatalf("trace has %d superstep spans, engine ran %d iterations", supersteps, stObs.Iterations)
	}

	snap := prog.Snapshot()
	if snap.Superstep != stObs.Iterations {
		t.Fatalf("progress superstep %d, want %d", snap.Superstep, stObs.Iterations)
	}
	if snap.Edges != stObs.EdgesAfter {
		t.Fatalf("progress edges %d, want %d", snap.Edges, stObs.EdgesAfter)
	}
}
