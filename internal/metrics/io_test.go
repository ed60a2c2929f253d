package metrics

import (
	"strings"
	"testing"
	"time"
)

// load books one disk load the way the engine's run goroutine does.
func (s *IOSnapshot) load(n int64, d time.Duration) {
	s.Loads++
	s.BytesRead += n
	s.LoadLatency.Observe(LoadLatencyBuckets, d)
}

func TestIOStatsCounters(t *testing.T) {
	var got IOSnapshot
	got.load(1000, 80*time.Microsecond)
	got.load(2000, 10*time.Millisecond)
	got.load(3000, 5*time.Microsecond)

	if got.BytesRead != 6000 || got.Loads != 3 {
		t.Errorf("read counters: %+v", got)
	}
	// 5µs and 80µs land in buckets 0 and 1; 10ms in the <25ms bucket.
	if got.LoadLatency[0] != 1 || got.LoadLatency[1] != 1 || got.LoadLatency[6] != 1 {
		t.Errorf("latency histogram: %v", got.LoadLatency)
	}
}

func TestIOSnapshotAdd(t *testing.T) {
	a := IOSnapshot{BytesRead: 10, Loads: 2, CacheHits: 1, JournalAppends: 1}
	a.LoadLatency[3] = 4
	b := IOSnapshot{BytesRead: 5, Loads: 1, Evictions: 7, JournalAppends: 2, JournalBytes: 64}
	b.LoadLatency[3] = 1
	a.Add(b)
	if a.BytesRead != 15 || a.Loads != 3 || a.Evictions != 7 || a.LoadLatency[3] != 5 ||
		a.JournalAppends != 3 || a.JournalBytes != 64 {
		t.Errorf("Add: %+v", a)
	}
	// Every field is summed: adding a snapshot to itself doubles all of it.
	full := IOSnapshot{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, LatencyCounts{1, 2, 3, 4, 5, 6, 7, 8}}
	sum := full
	sum.Add(full)
	if want := (IOSnapshot{2, 4, 6, 8, 10, 12, 14, 16, 18, 20, LatencyCounts{2, 4, 6, 8, 10, 12, 14, 16}}); sum != want {
		t.Errorf("Add dropped a field:\n got  %+v\n want %+v", sum, want)
	}
}

func TestIOSnapshotStrings(t *testing.T) {
	var zero IOSnapshot
	if zero.LatencyString() != "no loads" {
		t.Errorf("zero latency string: %q", zero.LatencyString())
	}
	if out := zero.String(); strings.Contains(out, "journaled") {
		t.Errorf("unjournaled run mentions the journal: %q", out)
	}
	var snap IOSnapshot
	snap.load(1<<20, 200*time.Microsecond)
	snap.load(1<<20, 100*time.Millisecond)
	snap.CacheHits = 5
	if out := snap.String(); !strings.Contains(out, "2 loads (5 cache hits)") {
		t.Errorf("String: %q", out)
	}
	ls := snap.LatencyString()
	if !strings.Contains(ls, "<250µs:1") || !strings.Contains(ls, "≥25ms:1") {
		t.Errorf("LatencyString: %q", ls)
	}
	snap.JournalAppends, snap.JournalBytes = 3, 2048
	if out := snap.String(); !strings.Contains(out, "journaled 3 checkpoints (2.0 KiB)") {
		t.Errorf("String with journal traffic: %q", out)
	}
}
