package metrics

import (
	"fmt"
	"time"
)

// SchedSnapshot is a finished batch's scheduler counters (the scheduler-layer
// analogue of Snapshot). One instance's walk through the scheduler is enqueue
// -> dequeue (a worker picks it up) -> done; the counters record how deep the
// ready queue got, how long instances waited for a worker, and how long they
// ran. Failed covers both analysis errors and per-instance timeouts. The
// scheduler computes it once, from its instance results, after its pool has
// drained.
type SchedSnapshot struct {
	Enqueued  int64
	Started   int64
	Completed int64
	Failed    int64
	MaxDepth  int64

	TotalWait time.Duration
	MaxWait   time.Duration
	TotalRun  time.Duration
	MaxRun    time.Duration
}

// AvgWait is the mean queue wait per started instance.
func (s SchedSnapshot) AvgWait() time.Duration {
	if s.Started == 0 {
		return 0
	}
	return s.TotalWait / time.Duration(s.Started)
}

// AvgRun is the mean runtime per finished instance.
func (s SchedSnapshot) AvgRun() time.Duration {
	n := s.Completed + s.Failed
	if n == 0 {
		return 0
	}
	return s.TotalRun / time.Duration(n)
}

// String renders the snapshot on one line.
func (s SchedSnapshot) String() string {
	return fmt.Sprintf("instances %d (ok %d, failed %d) | max queue depth %d | wait avg %v max %v | run avg %v max %v",
		s.Enqueued, s.Completed, s.Failed, s.MaxDepth,
		s.AvgWait().Round(time.Microsecond), s.MaxWait.Round(time.Microsecond),
		s.AvgRun().Round(time.Microsecond), s.MaxRun.Round(time.Microsecond))
}
