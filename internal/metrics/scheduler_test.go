package metrics

import (
	"testing"
	"time"
)

func TestSchedStatsLifecycle(t *testing.T) {
	snap := SchedSnapshot{
		Enqueued: 3, Started: 2, Completed: 1, Failed: 1, MaxDepth: 3,
		TotalWait: 8 * time.Second, MaxWait: 6 * time.Second,
		TotalRun: 6 * time.Second, MaxRun: 4 * time.Second,
	}
	if snap.AvgWait() != 4*time.Second {
		t.Fatalf("avg wait = %v, want 4s", snap.AvgWait())
	}
	if snap.AvgRun() != 3*time.Second {
		t.Fatalf("avg run = %v, want 3s", snap.AvgRun())
	}
	const want = "instances 3 (ok 1, failed 1) | max queue depth 3 | wait avg 4s max 6s | run avg 3s max 4s"
	if got := snap.String(); got != want {
		t.Fatalf("String:\n got  %q\n want %q", got, want)
	}
}

func TestSchedStatsZeroAverages(t *testing.T) {
	var snap SchedSnapshot
	if snap.AvgWait() != 0 || snap.AvgRun() != 0 {
		t.Fatal("zero-value snapshot must not divide by zero")
	}
}
