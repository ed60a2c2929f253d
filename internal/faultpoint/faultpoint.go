// Package faultpoint is a deterministic crash-injection switchboard for the
// checkpoint/resume test harness. Write sites in the engine, the journal,
// partition appends and the batch scheduler call Hit(name) at the instants a
// real process could die; a test arms a point with Arm(name, n) and the n-th
// hit returns ErrInjected, which the caller propagates upward exactly as it
// would a fatal I/O error. Because the in-memory state of the aborted run is
// then discarded (the test constructs a fresh engine/checker to resume), an
// injected abort is observationally equivalent to `kill -9` at that point —
// without the cost of a subprocess per boundary.
//
// A nil *Set is inert: every method is a no-op and Hit always returns nil,
// so production paths carry no overhead beyond a nil check.
package faultpoint

import (
	"errors"
	"sync"
)

// ErrInjected is returned by Hit when an armed fault point triggers. It is
// sticky: once a Set has triggered, every subsequent Hit on it fails too,
// the way nothing runs after a real crash.
var ErrInjected = errors.New("faultpoint: injected crash")

// Well-known fault point names. Sites are free to use ad-hoc names, but the
// shipped kill sites use these.
const (
	// EngineSuperstep fires in the engine after a checkpoint record has been
	// made durable — the canonical "kill at superstep boundary k".
	EngineSuperstep = "engine.superstep"
	// EngineCheckpointPre fires at a superstep boundary before any flush or
	// journal write for it has happened.
	EngineCheckpointPre = "engine.checkpoint.pre"
	// JournalAppendMid fires inside JournalWriter.Append after only a prefix
	// of the record's bytes reached the file — a torn journal write.
	JournalAppendMid = "journal.append.mid"
	// PartAppendMid fires inside storage.AppendPart after only a prefix of
	// one frame's bytes reached the partition file — a torn partition append.
	PartAppendMid = "part.append.mid"
	// SchedulerInstance fires in the batch scheduler after an instance's
	// completion record has been made durable.
	SchedulerInstance = "scheduler.instance"
)

// Set is one run's collection of armed fault points. Safe for concurrent
// use; the zero value (or nil) never triggers.
type Set struct {
	mu        sync.Mutex
	arm       map[string]int // name -> hit ordinal that triggers (1-based)
	hits      map[string]int
	triggered bool
}

// New returns an empty, unarmed Set.
func New() *Set {
	return &Set{arm: map[string]int{}, hits: map[string]int{}}
}

// Arm makes the n-th Hit of name (1-based) return ErrInjected. Arming with
// n <= 0 disarms the point.
func (s *Set) Arm(name string, n int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 {
		delete(s.arm, name)
		return
	}
	s.arm[name] = n
}

// Hit records one pass through the named site and reports whether the run
// should die here. Sticky: after the first trigger every Hit fails.
func (s *Set) Hit(name string) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.triggered {
		return ErrInjected
	}
	s.hits[name]++
	if n, ok := s.arm[name]; ok && s.hits[name] == n {
		s.triggered = true
		return ErrInjected
	}
	return nil
}

// Count returns how many times the named site has been hit.
func (s *Set) Count(name string) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits[name]
}

// Triggered reports whether the set has injected its crash.
func (s *Set) Triggered() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.triggered
}
