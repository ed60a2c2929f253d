package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// A nil recorder must be a complete no-op: every method callable, zero
// allocations of consequence, inert spans.
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder claims enabled")
	}
	if tid := r.Thread("w"); tid != 0 {
		t.Fatalf("nil Thread = %d, want 0", tid)
	}
	sp := r.Start(0, "cat", "name")
	sp.End(Args{"k": 1})
	r.Instant(0, "cat", "ev", nil)
	if err := r.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("nil Err: %v", err)
	}
	if n := r.EventCount(); n != 0 {
		t.Fatalf("nil EventCount = %d", n)
	}
}

// A nil Progress must equally be inert.
func TestNilProgressIsInert(t *testing.T) {
	var p *Progress
	p.SetPhase("x")
	p.Update(EngineUpdate{Frontier: 1})
	p.SetBatch(3)
	p.InstanceStart()
	p.InstanceDone()
	s := p.Snapshot()
	if s.ETA != -1 {
		t.Fatalf("nil snapshot ETA = %v, want -1", s.ETA)
	}
	stop := p.Heartbeat(time.Millisecond, os.Stderr, "")
	stop()
	stop() // idempotent
}

func TestChromeTraceAndJSONLStream(t *testing.T) {
	var chrome, events bytes.Buffer
	r := NewWriters(&chrome, &events)
	w1 := r.Thread("alias")
	sp := r.Start(w1, "engine", "superstep")
	sp.End(Args{"pair": Pair(0, 1), "firsts": 42})
	r.Instant(w1, "storage", "load", Args{"bytes": 1024})
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The Chrome document must parse and hold exactly our events.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome JSON: %v\n%s", err, chrome.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("traceEvents = %d, want 3", len(doc.TraceEvents))
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		if _, ok := ev["pid"]; !ok {
			t.Fatalf("event missing pid: %v", ev)
		}
		if _, ok := ev["tid"]; !ok {
			t.Fatalf("event missing tid: %v", ev)
		}
		if ph == "X" {
			if _, ok := ev["dur"]; !ok && ev["name"] != "superstep" {
				t.Fatalf("span missing dur: %v", ev)
			}
		}
	}
	if phases["M"] != 1 || phases["X"] != 1 || phases["i"] != 1 {
		t.Fatalf("phase mix %v", phases)
	}

	// Every JSONL line must parse independently.
	sc := bufio.NewScanner(bytes.NewReader(events.Bytes()))
	lines := 0
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("jsonl line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if lines != 3 {
		t.Fatalf("jsonl lines = %d, want 3", lines)
	}
}

// Span IDs are a deterministic sequence, not random: two identical
// single-threaded runs produce identical ID assignments.
func TestDeterministicSpanIDs(t *testing.T) {
	runIDs := func() []uint64 {
		var chrome bytes.Buffer
		r := NewWriters(&chrome, nil)
		var ids []uint64
		for i := 0; i < 5; i++ {
			sp := r.Start(0, "c", "s")
			ids = append(ids, sp.id)
			sp.End(nil)
		}
		r.Close()
		return ids
	}
	a, b := runIDs(), runIDs()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run1 ids %v != run2 ids %v", a, b)
		}
		if i > 0 && a[i] != a[i-1]+1 {
			t.Fatalf("ids not sequential: %v", a)
		}
	}
}

// Concurrent span emission must be safe (exercised under -race by make race).
func TestConcurrentRecording(t *testing.T) {
	var chrome bytes.Buffer
	r := NewWriters(&chrome, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tid := r.Thread("worker")
			for i := 0; i < 50; i++ {
				sp := r.Start(tid, "t", "op")
				sp.End(Args{"i": i})
			}
		}(w)
	}
	wg.Wait()
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got, want := r.EventCount(), 8*50+8; got != want {
		t.Fatalf("events = %d, want %d", got, want)
	}
}

func TestOpenWritesBothFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.trace.json")
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r.Start(0, "c", "s").End(nil)
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"traceEvents"`) {
		t.Fatalf("chrome file: %s", data)
	}
	if _, err := os.Stat(path + ".events.jsonl"); err != nil {
		t.Fatalf("events stream: %v", err)
	}
}

func TestProgressSnapshotAndHeartbeat(t *testing.T) {
	p := NewProgress()
	p.SetPhase("alias")
	p.Update(EngineUpdate{Frontier: 10, DirtyPairs: 3, Edges: 100, Solved: 5, CacheHits: 2, CacheLkps: 4})
	s := p.Snapshot()
	if s.Phase != "alias" || s.Superstep != 1 || s.Frontier != 10 || s.DirtyPairs != 3 || s.Edges != 100 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.ETA < 0 {
		t.Fatalf("ETA unknown despite completed supersteps: %+v", s)
	}
	if !strings.Contains(s.Line(), "superstep 1") || !strings.Contains(s.Line(), "frontier 10") {
		t.Fatalf("line %q", s.Line())
	}

	dir := t.TempDir()
	statusPath := filepath.Join(dir, "status.json")
	var hb bytes.Buffer
	var hbMu sync.Mutex
	lw := &lockedWriter{w: &hb, mu: &hbMu}
	stop := p.Heartbeat(5*time.Millisecond, lw, statusPath)
	deadline := time.Now().Add(2 * time.Second)
	for {
		hbMu.Lock()
		n := hb.Len()
		hbMu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no heartbeat line within 2s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop()
	stop() // idempotent

	// The final stop() write guarantees status.json exists and parses.
	data, err := os.ReadFile(statusPath)
	if err != nil {
		t.Fatalf("status.json: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("status.json parse: %v\n%s", err, data)
	}
	if snap.Superstep != 1 || snap.Phase != "alias" {
		t.Fatalf("status snapshot %+v", snap)
	}
	hbMu.Lock()
	line := hb.String()
	hbMu.Unlock()
	if !strings.Contains(line, "grapple: alias") {
		t.Fatalf("heartbeat line %q", line)
	}
}

type lockedWriter struct {
	w  *bytes.Buffer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func TestProgressBatchMode(t *testing.T) {
	p := NewProgress()
	p.SetBatch(4)
	p.InstanceStart()
	p.InstanceStart()
	p.InstanceDone()
	s := p.Snapshot()
	if s.BatchTotal != 4 || s.BatchDone != 1 || s.BatchRunning != 1 {
		t.Fatalf("batch snapshot %+v", s)
	}
	if !strings.Contains(s.Line(), "batch 1/4") {
		t.Fatalf("batch line %q", s.Line())
	}
	if s.ETA < 0 {
		t.Fatalf("batch ETA unknown after a completion: %+v", s)
	}
}

func TestServeDebug(t *testing.T) {
	p := NewProgress()
	p.SetPhase("dataflow")
	p.Update(EngineUpdate{Edges: 9})
	bound, stop, err := ServeDebug("127.0.0.1:0", p)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + bound + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("decode /debug/vars: %v", err)
	}
	prog, ok := vars["grapple.progress"].(map[string]any)
	if !ok {
		t.Fatalf("no grapple.progress mirror in expvar: %v", vars["grapple.progress"])
	}
	if prog["phase"] != "dataflow" {
		t.Fatalf("mirrored phase %v", prog["phase"])
	}
	// pprof index must answer too.
	resp2, err := http.Get("http://" + bound + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp2.StatusCode)
	}
}
