// Package trace is Grapple's observability substrate: a span/event recorder
// for the checking pipeline (Chrome trace-event JSON plus a JSONL stream),
// a live progress tracker with a heartbeat and an atomically-rewritten
// status file, and a pprof/expvar debug server.
//
// The recorder is zero-overhead when disabled: every method is safe on a
// nil *Recorder and returns immediately, so instrumented code holds one
// nil-checked pointer and pays a single predictable branch per site. When
// enabled, timestamps come from one monotonic clock anchored at New, and
// span IDs are a deterministic sequence (1, 2, 3, ...) rather than random,
// so two traces of the same run are structurally comparable.
//
// Tracing is observation only. It never changes pair scheduling, insertion
// order, widening, or reports — the engine's byte-identical-output contract
// holds with tracing on or off, and cmd/grapple's golden-identity test pins
// that.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Args carries event metadata. encoding/json marshals map keys in sorted
// order, so serialized args are deterministic.
type Args map[string]any

// event is one recorded trace event (a completed span, an instant, or thread
// metadata).
type event struct {
	ph   byte // 'X' span, 'i' instant, 'M' metadata
	id   uint64
	tid  uint64
	cat  string
	name string
	ts   time.Duration // since recorder start
	dur  time.Duration // spans only
	args Args
}

// Recorder collects spans and events and writes them out on Close. All
// methods are safe for concurrent use and safe on a nil receiver (no-ops).
type Recorder struct {
	start  time.Time     // monotonic anchor; all timestamps are Since(start)
	nextID atomic.Uint64 // deterministic span/event IDs
	tids   atomic.Uint64 // thread lanes handed out by Thread

	mu     sync.Mutex
	events []event
	jsonl  *bufio.Writer // optional streamed JSONL sink
	chrome io.Writer     // Chrome trace-event JSON sink, written on Close
	owned  []io.Closer   // files opened by Open, closed by Close
	err    error         // first write error, surfaced by Close
}

// NewWriters builds a recorder over caller-owned sinks. chrome receives the
// complete Chrome trace-event JSON document on Close; events receives one
// JSON line per event as it completes. Either may be nil.
func NewWriters(chrome, events io.Writer) *Recorder {
	r := &Recorder{start: time.Now(), chrome: chrome}
	if events != nil {
		r.jsonl = bufio.NewWriter(events)
	}
	return r
}

// Open creates a recorder writing Chrome trace-event JSON to path and the
// JSONL event stream to path + ".events.jsonl". Close finalizes both files.
func Open(path string) (*Recorder, error) {
	cf, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	ef, err := os.Create(path + ".events.jsonl")
	if err != nil {
		cf.Close()
		return nil, err
	}
	r := NewWriters(cf, ef)
	r.owned = append(r.owned, ef, cf)
	return r, nil
}

// Enabled reports whether the recorder actually records.
func (r *Recorder) Enabled() bool { return r != nil }

// now is the monotonic timestamp used for every event.
func (r *Recorder) now() time.Duration { return time.Since(r.start) }

// Thread allocates a new thread lane (Chrome tid) and labels it with a
// metadata event. Lane 0 is the default for code that never calls Thread.
// Returns 0 on a nil recorder.
func (r *Recorder) Thread(name string) uint64 {
	if r == nil {
		return 0
	}
	tid := r.tids.Add(1)
	r.record(event{ph: 'M', id: r.nextID.Add(1), tid: tid, name: "thread_name", args: Args{"name": name}})
	return tid
}

// Span is one in-flight timed operation. The zero Span (and any Span from a
// nil recorder) is inert: End is a no-op.
type Span struct {
	r    *Recorder
	id   uint64
	tid  uint64
	cat  string
	name string
	t0   time.Duration
}

// Start opens a span on thread lane tid. End completes it.
func (r *Recorder) Start(tid uint64, cat, name string) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, id: r.nextID.Add(1), tid: tid, cat: cat, name: name, t0: r.now()}
}

// End completes the span, attaching args (nil for none).
func (s Span) End(args Args) {
	if s.r == nil {
		return
	}
	s.r.record(event{ph: 'X', id: s.id, tid: s.tid, cat: s.cat, name: s.name,
		ts: s.t0, dur: s.r.now() - s.t0, args: args})
}

// Instant records a point event.
func (r *Recorder) Instant(tid uint64, cat, name string, args Args) {
	if r == nil {
		return
	}
	r.record(event{ph: 'i', id: r.nextID.Add(1), tid: tid, cat: cat, name: name, ts: r.now(), args: args})
}

// jsonlEvent is the JSONL stream's line format.
type jsonlEvent struct {
	Type  string  `json:"type"` // "span", "instant", "meta"
	ID    uint64  `json:"id"`
	TID   uint64  `json:"tid"`
	Cat   string  `json:"cat,omitempty"`
	Name  string  `json:"name"`
	TsUs  float64 `json:"tsUs"`
	DurUs float64 `json:"durUs,omitempty"`
	Args  Args    `json:"args,omitempty"`
}

var phNames = map[byte]string{'X': "span", 'i': "instant", 'M': "meta"}

// record appends the event and streams its JSONL line.
func (r *Recorder) record(ev event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, ev)
	if r.jsonl == nil || r.err != nil {
		return
	}
	line, err := json.Marshal(jsonlEvent{
		Type: phNames[ev.ph], ID: ev.id, TID: ev.tid, Cat: ev.cat, Name: ev.name,
		TsUs: us(ev.ts), DurUs: us(ev.dur), Args: ev.args,
	})
	if err == nil {
		_, err = r.jsonl.Write(append(line, '\n'))
	}
	if err != nil {
		r.err = err
	}
}

// us converts a duration to Chrome's microsecond unit.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// chromeEvent is the Chrome trace-event JSON format (one element of the
// traceEvents array); see Perfetto's "Trace Event Format" spec.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat,omitempty"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	Pid  int     `json:"pid"`
	Tid  uint64  `json:"tid"`
	S    string  `json:"s,omitempty"`  // instant scope
	ID   uint64  `json:"id,omitempty"` // span id
	Args Args    `json:"args,omitempty"`
}

// chromeDoc is the top-level Chrome trace document.
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Err returns the first streaming write error, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Close flushes the JSONL stream, writes the Chrome trace document, and
// closes any files Open created. Safe on nil.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.jsonl != nil {
		if err := r.jsonl.Flush(); err != nil && r.err == nil {
			r.err = err
		}
	}
	if r.chrome != nil {
		doc := chromeDoc{TraceEvents: make([]chromeEvent, 0, len(r.events)), DisplayTimeUnit: "ms"}
		for _, ev := range r.events {
			ce := chromeEvent{
				Name: ev.name, Cat: ev.cat, Ph: string(ev.ph), Ts: us(ev.ts),
				Pid: 1, Tid: ev.tid, Args: ev.args,
			}
			switch ev.ph {
			case 'X':
				ce.Dur = us(ev.dur)
				ce.ID = ev.id
			case 'i':
				ce.S = "t"
			}
			doc.TraceEvents = append(doc.TraceEvents, ce)
		}
		enc := json.NewEncoder(r.chrome)
		if err := enc.Encode(doc); err != nil && r.err == nil {
			r.err = err
		}
		r.chrome = nil
	}
	for _, c := range r.owned {
		if err := c.Close(); err != nil && r.err == nil {
			r.err = err
		}
	}
	r.owned = nil
	return r.err
}

// EventCount returns how many events have been recorded (bench reporting).
func (r *Recorder) EventCount() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Pair formats a partition-pair label like "3+7".
func Pair(i, j int) string { return fmt.Sprintf("%d+%d", i, j) }
