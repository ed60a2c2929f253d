package metrics

import (
	"fmt"
	"time"
)

// LoadLatencyBuckets are the upper bounds (exclusive) of the partition-load
// latency histogram; the final bucket is unbounded. Loads served from the
// prefetcher record their *perceived* latency — the time the join actually
// waited — so the histogram shows prefetch overlap directly.
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

	PrefetchIssued int64 // background loads started
	PrefetchHits   int64 // loads satisfied by a completed/inflight prefetch
	PrefetchStale  int64 // prefetches invalidated before use (file changed)
	PrefetchWasted int64 // prefetches completed but never consumed

	// Journal traffic is counted apart from partition writes so the resume
	// bench can report checkpointing overhead in isolation.
	JournalAppends int64 // checkpoint records made durable
	JournalBytes   int64 // bytes appended to the run journal

	// LoadLatency is bucketed by LoadLatencyBuckets. Prefetch hits record
	// perceived wait, not disk time.
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
	s.PrefetchIssued += o.PrefetchIssued
	s.PrefetchHits += o.PrefetchHits
	s.PrefetchStale += o.PrefetchStale
	s.PrefetchWasted += o.PrefetchWasted
	s.JournalAppends += o.JournalAppends
	s.JournalBytes += o.JournalBytes
	s.LoadLatency.Add(o.LoadLatency)
}

// PrefetchHitRate returns the fraction of disk loads satisfied by a
// prefetch, in [0, 1]. Zero when no loads happened.
func (s IOSnapshot) PrefetchHitRate() float64 {
	if s.Loads == 0 {
		return 0
	}
	return float64(s.PrefetchHits) / float64(s.Loads)
}

// String renders the snapshot as one stats line.
func (s IOSnapshot) String() string {
	line := fmt.Sprintf(
		"read %.1f MiB in %d loads (%d cache hits, %d prefetch hits, %.0f%% hit rate) | wrote %.1f MiB in %d writes + %d appends | %d evictions",
		float64(s.BytesRead)/(1<<20), s.Loads, s.CacheHits, s.PrefetchHits,
		100*s.PrefetchHitRate(), float64(s.BytesWritten)/(1<<20), s.Writes,
		s.Appends, s.Evictions)
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
