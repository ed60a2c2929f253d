package metrics

import (
	"strings"
	"testing"
	"time"
)

// Both histograms share one Observe: bounds are exclusive upper bounds, so an
// observation exactly at a bound must land in the next bucket up, not the one
// the bound names.
func testBucketBoundaries(t *testing.T, bounds []time.Duration) {
	for i, ub := range bounds {
		var c LatencyCounts
		c.Observe(bounds, ub-time.Nanosecond) // strictly under → bucket i
		c.Observe(bounds, ub)                 // exactly at the bound → bucket i+1
		if c[i] != 1 || c[i+1] != 1 || c.Total() != 2 {
			t.Fatalf("bound %v: buckets %v, want 1 at %d and %d", ub, c, i, i+1)
		}
	}
}

func TestSolveHistBucketBoundaries(t *testing.T) { testBucketBoundaries(t, SolveLatencyBuckets) }

func TestIOStatsLoadLatencyBoundaries(t *testing.T) { testBucketBoundaries(t, LoadLatencyBuckets) }

func TestSolveHistOverflowBucket(t *testing.T) {
	var c LatencyCounts
	last := SolveLatencyBuckets[len(SolveLatencyBuckets)-1]
	c.Observe(SolveLatencyBuckets, last)
	c.Observe(SolveLatencyBuckets, 10*last)
	if got := c[len(c)-1]; got != 2 {
		t.Fatalf("overflow bucket: got %d, want 2 (%v)", got, c)
	}
	if c.Total() != 2 {
		t.Fatalf("total: got %d, want 2", c.Total())
	}
	var neg LatencyCounts
	neg.Observe(SolveLatencyBuckets, -time.Microsecond)
	if neg[0] != 1 {
		t.Fatalf("a negative duration belongs in the first bucket: %v", neg)
	}
}

func TestLatencyCountsAddAndString(t *testing.T) {
	var a, b LatencyCounts
	a[0], a[3] = 2, 1
	b[0], b[7] = 5, 4
	a.Add(b)
	want := LatencyCounts{7, 0, 0, 1, 0, 0, 0, 4}
	if a != want {
		t.Fatalf("Add: got %v, want %v", a, want)
	}
	if a.Total() != 12 {
		t.Fatalf("Total: got %d, want 12", a.Total())
	}
	s := a.String(SolveLatencyBuckets)
	for _, frag := range []string{"<5µs:7", "<50µs:1", "≥5ms:4"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String: %q missing %q", s, frag)
		}
	}
	if strings.Contains(s, "<10µs") {
		t.Fatalf("String should omit empty buckets: %q", s)
	}
	var empty LatencyCounts
	if got := empty.String(SolveLatencyBuckets); got != "none" {
		t.Fatalf("empty String: got %q, want \"none\"", got)
	}
}
