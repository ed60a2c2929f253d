package metrics

import (
	"fmt"
	"strings"
	"time"
)

// SolveLatencyBuckets are the upper bounds (exclusive) of the SMT solve
// latency histogram; the final bucket is unbounded. Solves are much shorter
// than partition loads, so the bounds sit an order of magnitude below
// LoadLatencyBuckets.
var SolveLatencyBuckets = []time.Duration{
	5 * time.Microsecond,
	10 * time.Microsecond,
	25 * time.Microsecond,
	50 * time.Microsecond,
	100 * time.Microsecond,
	500 * time.Microsecond,
	5 * time.Millisecond,
}

// LatencyCounts is one latency histogram: LatencyCounts[i] counts
// observations under the i-th bucket bound; the last entry is the unbounded
// overflow bucket.
type LatencyCounts [numLatencyBuckets]int64

// Observe records one observation of duration d against bounds. Bounds are
// exclusive upper bounds: an observation exactly at a bound lands in the
// next bucket up.
func (c *LatencyCounts) Observe(bounds []time.Duration, d time.Duration) {
	i := 0
	for i < len(bounds) && d >= bounds[i] {
		i++
	}
	c[i]++
}

// Total sums all buckets.
func (c LatencyCounts) Total() int64 {
	var n int64
	for _, v := range c {
		n += v
	}
	return n
}

// Add accumulates another histogram (merging workers, phases or batch
// instances).
func (c *LatencyCounts) Add(o LatencyCounts) {
	for i := range c {
		c[i] += o[i]
	}
}

// String renders the histogram against bounds, e.g. "<5µs:12 ... ≥5ms:1",
// omitting empty buckets.
func (c LatencyCounts) String(bounds []time.Duration) string {
	var b strings.Builder
	for i, n := range c {
		if n == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		if i < len(bounds) {
			fmt.Fprintf(&b, "<%s:%d", bounds[i], n)
		} else {
			fmt.Fprintf(&b, "≥%s:%d", bounds[len(bounds)-1], n)
		}
	}
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}
