package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/grapple-system/grapple/internal/metrics"
	"github.com/grapple-system/grapple/internal/storage"
)

// Progress is the live state of a long-running check, updated by the engine
// at superstep boundaries (and by the batch scheduler at instance
// boundaries) and read by the heartbeat goroutine, the status.json writer,
// and the expvar mirror. All methods are safe for concurrent use and safe
// on a nil receiver, so instrumented code holds one nil-checked pointer.
//
// Updates happen at coarse boundaries — once per superstep, not per edge —
// so a mutex is cheap; readers only ever see a consistent snapshot.
type Progress struct {
	mu    sync.Mutex
	start time.Time

	phase      string
	phaseStart time.Time
	phaseSteps int64 // supersteps completed in the current phase

	superstep int64        // supersteps completed across all phases
	last      EngineUpdate // the latest superstep's counters

	batchTotal   int64 // batch mode when > 0
	batchDone    int64
	batchRunning int64
}

// NewProgress starts a progress tracker; its clock anchors here.
func NewProgress() *Progress {
	return &Progress{start: time.Now(), phaseStart: time.Now()}
}

// SetPhase names the pipeline phase now running and restarts the per-phase
// clock.
func (p *Progress) SetPhase(name string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.phase = name
	p.phaseStart = time.Now()
	p.phaseSteps = 0
	p.mu.Unlock()
}

// EngineUpdate is one superstep's worth of engine counters.
type EngineUpdate struct {
	Frontier   int64 // source edges eligible for joining this superstep
	DirtyPairs int64 // pairs still dirty after this superstep
	Edges      int64 // distinct edges discovered so far
	Solved     int64
	CacheHits  int64
	CacheLkps  int64
	IO         metrics.IOSnapshot
}

// Update records one completed superstep.
func (p *Progress) Update(u EngineUpdate) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.superstep++
	p.phaseSteps++
	p.last = u
	p.mu.Unlock()
}

// SetBatch switches the tracker to batch mode with the given instance count.
func (p *Progress) SetBatch(total int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.batchTotal = int64(total)
	p.mu.Unlock()
}

// InstanceStart records a batch instance beginning to run.
func (p *Progress) InstanceStart() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.batchRunning++
	p.mu.Unlock()
}

// InstanceDone records a batch instance finishing (ok or failed).
func (p *Progress) InstanceDone() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.batchRunning--
	p.batchDone++
	p.mu.Unlock()
}

// Snapshot is a consistent point-in-time view of Progress.
type Snapshot struct {
	Phase        string        `json:"phase,omitempty"`
	Superstep    int64         `json:"superstep"`
	Frontier     int64         `json:"frontier"`
	DirtyPairs   int64         `json:"dirtyPairs"`
	Edges        int64         `json:"edges"`
	SolverCalls  int64         `json:"solverCalls"`
	CacheHits    int64         `json:"cacheHits"`
	CacheLookups int64         `json:"cacheLookups"`
	BytesRead    int64         `json:"ioBytesRead"`
	BytesWritten int64         `json:"ioBytesWritten"`
	JournalBytes int64         `json:"journalBytes"`
	BatchTotal   int64         `json:"batchTotal,omitempty"`
	BatchDone    int64         `json:"batchDone,omitempty"`
	BatchRunning int64         `json:"batchRunning,omitempty"`
	Elapsed      time.Duration `json:"elapsedNs"`
	PhaseElapsed time.Duration `json:"phaseElapsedNs"`
	// ETA is a rough completion estimate: remaining work items (dirty pairs,
	// or pending batch instances) times the observed per-item rate. It is a
	// lower bound — supersteps can dirty new pairs — and -1 when unknown.
	ETA time.Duration `json:"etaNs"`
	// UpdatedUnixMs is wall-clock time of the snapshot, for external pollers
	// of status.json.
	UpdatedUnixMs int64 `json:"updatedUnixMs"`
}

// Snapshot returns the current state. The zero Snapshot (nil receiver) has
// ETA -1.
func (p *Progress) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{ETA: -1}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Snapshot{
		Phase:         p.phase,
		Superstep:     p.superstep,
		Frontier:      p.last.Frontier,
		DirtyPairs:    p.last.DirtyPairs,
		Edges:         p.last.Edges,
		SolverCalls:   p.last.Solved,
		CacheHits:     p.last.CacheHits,
		CacheLookups:  p.last.CacheLkps,
		BytesRead:     p.last.IO.BytesRead,
		BytesWritten:  p.last.IO.BytesWritten,
		JournalBytes:  p.last.IO.JournalBytes,
		BatchTotal:    p.batchTotal,
		BatchDone:     p.batchDone,
		BatchRunning:  p.batchRunning,
		Elapsed:       time.Since(p.start),
		PhaseElapsed:  time.Since(p.phaseStart),
		ETA:           -1,
		UpdatedUnixMs: time.Now().UnixMilli(),
	}
	switch {
	case p.batchTotal > 0 && p.batchDone > 0:
		s.ETA = time.Duration(int64(s.Elapsed) / p.batchDone * (p.batchTotal - p.batchDone))
	case p.phaseSteps > 0 && p.last.DirtyPairs >= 0:
		s.ETA = time.Duration(int64(s.PhaseElapsed) / p.phaseSteps * p.last.DirtyPairs)
	}
	return s
}

// Line renders the one-line stderr heartbeat.
func (s Snapshot) Line() string {
	eta := "?"
	if s.ETA >= 0 {
		eta = s.ETA.Round(time.Second).String()
	}
	if s.BatchTotal > 0 {
		return fmt.Sprintf("grapple: batch %d/%d instances done (%d running) | elapsed %v | eta ≥%s",
			s.BatchDone, s.BatchTotal, s.BatchRunning,
			s.Elapsed.Round(time.Second), eta)
	}
	return fmt.Sprintf("grapple: %s superstep %d | frontier %d | dirty pairs %d | edges %d | solver %d (%d/%d cached) | elapsed %v | eta ≥%s",
		s.Phase, s.Superstep, s.Frontier, s.DirtyPairs, s.Edges,
		s.SolverCalls, s.CacheHits, s.CacheLookups,
		s.Elapsed.Round(time.Second), eta)
}

// StatusJSON renders the snapshot as the status.json document (one JSON
// object, trailing newline).
func (s Snapshot) StatusJSON() []byte {
	b, _ := json.Marshal(s)
	return append(b, '\n')
}

// Heartbeat periodically writes Snapshot().Line() to w (skipped when nil)
// and atomically rewrites statusPath (skipped when empty) every interval.
// The rewrite uses the storage layer's crash-safe write path — temp file,
// fsync, rename — so a poller never observes a torn status.json. The
// returned stop function halts the ticker and writes one final status so
// the file reflects the completed run; it is idempotent.
func (p *Progress) Heartbeat(every time.Duration, w io.Writer, statusPath string) (stop func()) {
	if p == nil || every <= 0 || (w == nil && statusPath == "") {
		return func() {}
	}
	emit := func() {
		s := p.Snapshot()
		if w != nil {
			fmt.Fprintln(w, s.Line())
		}
		if statusPath != "" {
			// Best-effort: a transiently unwritable status file must not
			// kill a 33-hour check.
			_ = storage.WriteFileAtomic(statusPath, s.StatusJSON())
		}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				emit()
			case <-done:
				if statusPath != "" {
					_ = storage.WriteFileAtomic(statusPath, p.Snapshot().StatusJSON())
				}
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
		})
	}
}
