package trace

import "github.com/grapple-system/grapple/internal/faultpoint"

// Scope is what the top of a run decides once and every layer below it —
// checker, both engines, their journals — receives unchanged: the trace
// recorder and the lane its events land on, the live progress tracker, and
// the crash-injection fault set. Only the batch scheduler narrows it: its
// instances run on one lane per worker, without the batch's progress tracker
// and fault set. The zero Scope is inert and on the root lane; Lane moves it.
type Scope struct {
	// Rec receives spans and instants; nil records nothing.
	Rec *Recorder
	// Progress tracks phases and supersteps for the heartbeat and
	// status.json; nil tracks nothing.
	Progress *Progress
	// Faults injects deterministic crash points (crash-injection tests
	// only); nil is inert.
	Faults *faultpoint.Set

	tid uint64 // the lane Start and Instant emit onto; 0 is the root lane
}

// Lane returns the scope with its events on a new lane named name
// (Recorder.Thread); Progress and Faults carry over.
func (s Scope) Lane(name string) Scope {
	s.tid = s.Rec.Thread(name)
	return s
}

// Start opens a span on the scope's lane.
func (s Scope) Start(cat, name string) Span { return s.Rec.Start(s.tid, cat, name) }

// Instant records a point event on the scope's lane.
func (s Scope) Instant(cat, name string, args Args) { s.Rec.Instant(s.tid, cat, name, args) }
