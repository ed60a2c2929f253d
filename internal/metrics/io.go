package metrics

import (
	"fmt"
	"time"
)

// LoadLatencyBuckets are the upper bounds (exclusive) of the partition-load
// latency histogram; the final bucket is unbounded.
var LoadLatencyBuckets = []time.Duration{
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	5 * time.Millisecond,
	25 * time.Millisecond,
}

// numLatencyBuckets includes the overflow bucket.
const numLatencyBuckets = 8

// IOSnapshot is the out-of-core engine's partition I/O counters; the engine's
// run goroutine is their only writer. The zero value reads as "no I/O".
type IOSnapshot struct {
	BytesRead    int64
	BytesWritten int64

	Loads     int64 // partition loads that hit the disk
	CacheHits int64 // loads served from the in-memory LRU cache
	Evictions int64 // cached partitions written back / dropped
	Writes    int64 // whole-partition writes (flush, repartition)
	Appends   int64 // pending-buffer appends to unloaded partitions

	// Deprecated: always 0. The engine loads partitions synchronously and no
	// longer prefetches; the field stays for callers that still read it.
	PrefetchHits int64

	// Journal traffic is counted apart from partition writes so the resume
	// bench can report checkpointing overhead in isolation.
	JournalAppends int64 // checkpoint records made durable
	JournalBytes   int64 // bytes appended to the run journal

	// LoadLatency is the disk time of each load, bucketed by
	// LoadLatencyBuckets.
	LoadLatency LatencyCounts
}

// Add accumulates another snapshot into s (for aggregating phases or batch
// instances).
func (s *IOSnapshot) Add(o IOSnapshot) {
	s.BytesRead += o.BytesRead
	s.BytesWritten += o.BytesWritten
	s.Loads += o.Loads
	s.CacheHits += o.CacheHits
	s.Evictions += o.Evictions
	s.Writes += o.Writes
	s.Appends += o.Appends
	s.PrefetchHits += o.PrefetchHits
	s.JournalAppends += o.JournalAppends
	s.JournalBytes += o.JournalBytes
	s.LoadLatency.Add(o.LoadLatency)
}

// String renders the snapshot as one stats line.
func (s IOSnapshot) String() string {
	line := fmt.Sprintf(
		"read %.1f MiB in %d loads (%d cache hits) | wrote %.1f MiB in %d writes + %d appends | %d evictions",
		float64(s.BytesRead)/(1<<20), s.Loads, s.CacheHits,
		float64(s.BytesWritten)/(1<<20), s.Writes, s.Appends, s.Evictions)
	if s.JournalAppends > 0 {
		line += fmt.Sprintf(" | journaled %d checkpoints (%.1f KiB)",
			s.JournalAppends, float64(s.JournalBytes)/(1<<10))
	}
	return line
}

// LatencyString renders the load-latency histogram, e.g.
// "<50µs:12 <100µs:3 ... ≥25ms:1", omitting empty buckets.
func (s IOSnapshot) LatencyString() string {
	if s.LoadLatency.Total() == 0 {
		return "no loads"
	}
	return s.LoadLatency.String(LoadLatencyBuckets)
}
