// Package metrics holds the plain value types a run's statistics live in: the
// Figure-9 cost breakdown (I/O, constraint encoding/decoding — "constraint
// lookup" — SMT solving, in-memory edge-pair computation), the partition
// store's traffic, fixed-bucket latency histograms and the batch scheduler's
// queue counters. None of them synchronises anything. Every value has one
// writer — the engine's run goroutine, a join worker tallying into its own
// scratch until the run goroutine folds it in after the superstep's
// wg.Wait(), or the scheduler after its pool has drained — and reaches other
// goroutines only as a copy (docs/observability.md has the table).
// Components run concurrently, so times are summed across workers and
// reported as fractions of the summed total, exactly as the paper computes
// its percentages.
package metrics

import (
	"fmt"
	"time"
)

// Snapshot is the time spent per Figure-9 component.
type Snapshot struct {
	IO      time.Duration
	Decode  time.Duration
	Solve   time.Duration
	Compute time.Duration
}

// Add accumulates another breakdown into s (a check's is its two phases').
func (s *Snapshot) Add(o Snapshot) {
	s.IO += o.IO
	s.Decode += o.Decode
	s.Solve += o.Solve
	s.Compute += o.Compute
}

// Total returns the summed component time.
func (s Snapshot) Total() time.Duration { return s.IO + s.Decode + s.Solve + s.Compute }

// Percentages returns the Figure-9 percentages (I/O, decode, solve,
// compute). All zeros when nothing was recorded.
func (s Snapshot) Percentages() (io, decode, solve, compute float64) {
	t := float64(s.Total())
	if t == 0 {
		return 0, 0, 0, 0
	}
	return 100 * float64(s.IO) / t, 100 * float64(s.Decode) / t,
		100 * float64(s.Solve) / t, 100 * float64(s.Compute) / t
}

// String renders the snapshot in Figure-9 form.
func (s Snapshot) String() string {
	io, de, so, co := s.Percentages()
	return fmt.Sprintf("I/O %.1f%% | constraint lookup %.1f%% | SMT solving %.1f%% | edge computation %.1f%%",
		io, de, so, co)
}
