package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestBreakdownAccumulates(t *testing.T) {
	s := Snapshot{IO: 4 * time.Millisecond, Decode: 20 * time.Millisecond}
	s.Add(Snapshot{IO: 6 * time.Millisecond, Solve: 30 * time.Millisecond, Compute: 40 * time.Millisecond})
	if s.Total() != 100*time.Millisecond {
		t.Fatalf("total = %v", s.Total())
	}
	io, dec, sol, comp := s.Percentages()
	if io != 10 || dec != 20 || sol != 30 || comp != 40 {
		t.Fatalf("percentages: %v %v %v %v", io, dec, sol, comp)
	}
}

func TestEmptyBreakdown(t *testing.T) {
	var s Snapshot
	io, dec, sol, comp := s.Percentages()
	if io != 0 || dec != 0 || sol != 0 || comp != 0 {
		t.Fatal("empty breakdown must be all zeros")
	}
	if s.Total() != 0 {
		t.Fatal("empty total")
	}
}

func TestStringFormat(t *testing.T) {
	out := Snapshot{Solve: time.Second}.String()
	for _, want := range []string{"I/O", "constraint lookup", "SMT solving", "edge computation", "100.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in %q", want, out)
		}
	}
}
