package grapple

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/grapple-system/grapple/internal/trace"
)

// ObsOptions configures the observability layer of a checking run: tracing,
// the progress heartbeat, and the pprof/expvar debug server. The zero value
// disables all three at zero overhead; every feature is observation-only and
// never changes reports (docs/observability.md).
type ObsOptions struct {
	// TracePath, when non-empty, writes a Chrome trace-event JSON document
	// there (loadable in Perfetto or chrome://tracing) and a streamed JSONL
	// event log to TracePath + ".events.jsonl". Spans cover every pipeline
	// phase and every engine superstep; instants cover partition loads,
	// writes and appends.
	TracePath string
	// Progress, when positive, emits a one-line status heartbeat to
	// ProgressWriter every interval (superstep, frontier, dirty pairs, ETA)
	// and, when the run has a persistent WorkDir, atomically rewrites
	// WorkDir/status.json with a JSON snapshot (crash-safe: temp file, fsync,
	// rename).
	Progress time.Duration
	// ProgressWriter receives heartbeat lines; os.Stderr when nil.
	ProgressWriter io.Writer
	// PprofAddr, when non-empty (host:port; ":0" picks a free port), serves
	// net/http/pprof profiles and an expvar mirror of the live progress
	// counters for the duration of the run.
	PprofAddr string
}

// enabled reports whether any observability feature is on.
func (o ObsOptions) enabled() bool {
	return o.TracePath != "" || o.Progress > 0 || o.PprofAddr != ""
}

// obsSession owns a run's live observability resources: the trace recorder,
// the progress tracker with its heartbeat goroutine, and the debug server.
// A nil session is valid and inert, mirroring the recorder's nil-safety.
type obsSession struct {
	rec     *trace.Recorder
	prog    *trace.Progress
	stopHB  func()
	stopSrv func() error
}

// startObs materializes ObsOptions into a session. workDir holds status.json;
// without one there is no status file. Returns nil (a no-op session) when every
// feature is disabled.
func startObs(o ObsOptions, workDir string) (*obsSession, error) {
	if !o.enabled() {
		return nil, nil
	}
	s := &obsSession{}
	if o.TracePath != "" {
		rec, err := trace.Open(o.TracePath)
		if err != nil {
			return nil, fmt.Errorf("grapple: trace: %w", err)
		}
		s.rec = rec
	}
	if o.Progress > 0 || o.PprofAddr != "" {
		s.prog = trace.NewProgress()
	}
	if o.Progress > 0 {
		w := o.ProgressWriter
		if w == nil {
			w = os.Stderr
		}
		statusPath := ""
		if workDir != "" {
			statusPath = filepath.Join(workDir, "status.json")
		}
		s.stopHB = s.prog.Heartbeat(o.Progress, w, statusPath)
	}
	if o.PprofAddr != "" {
		_, stop, err := trace.ServeDebug(o.PprofAddr, s.prog)
		if err != nil {
			s.finish()
			return nil, fmt.Errorf("grapple: pprof: %w", err)
		}
		s.stopSrv = stop
	}
	return s, nil
}

// scope is the run's scope: the session's recorder on the root lane and its
// progress tracker. A nil session gives the inert zero Scope.
func (s *obsSession) scope() trace.Scope {
	if s == nil {
		return trace.Scope{}
	}
	return trace.Scope{Rec: s.rec, Progress: s.prog}
}

// finish stops the heartbeat (writing one final status snapshot), shuts the
// debug server down, and finalizes the trace files. The returned error is
// the recorder's first write error, if any; the caller surfaces it only when
// the check itself succeeded. Safe on a nil session, and idempotent.
func (s *obsSession) finish() error {
	if s == nil {
		return nil
	}
	if s.stopHB != nil {
		s.stopHB()
		s.stopHB = nil
	}
	if s.stopSrv != nil {
		s.stopSrv()
		s.stopSrv = nil
	}
	err := s.rec.Close()
	s.rec = nil
	if err != nil {
		return fmt.Errorf("grapple: trace: %w", err)
	}
	return nil
}
