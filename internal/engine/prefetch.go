package engine

import (
	"sync"
	"time"

	"github.com/grapple-system/grapple/internal/storage"
)

// prefetched is the result of one background partition load.
type prefetched struct {
	edges []storage.Edge
	info  storage.PartInfo
	bytes int64
	err   error
}

type prefetchEntry struct {
	done chan struct{}
	res  prefetched
}

// prefetcher overlaps partition loads with the join: while one partition
// pair computes, the load the scheduler will need next already streams from
// disk. Entries are keyed by *partition — stable across repartitioning, which
// moves table positions but never reallocates a partition.
//
// Prefetched edges live outside the engine's memory-budget accounting; at
// most a handful of entries exist at once (one speculation per iteration),
// bounded by the same per-partition size the budget already admits.
type prefetcher struct {
	mu      sync.Mutex
	entries map[*partition]*prefetchEntry
	wg      sync.WaitGroup
}

func newPrefetcher() *prefetcher {
	return &prefetcher{entries: map[*partition]*prefetchEntry{}}
}

// start begins loading p's file in the background and reports whether it
// did: false when a prefetch for p is already in flight.
func (pf *prefetcher) start(p *partition) bool {
	pf.mu.Lock()
	if _, dup := pf.entries[p]; dup {
		pf.mu.Unlock()
		return false
	}
	e := &prefetchEntry{done: make(chan struct{})}
	pf.entries[p] = e
	pf.mu.Unlock()
	pf.wg.Add(1)
	// Sized and addressed here, on the engine's goroutine: insert keeps
	// counting edges into p, and a split may redirect its path, while the
	// read runs.
	path, dst := p.path, make([]storage.Edge, 0, p.edges)
	go func() {
		defer pf.wg.Done()
		edges, info, n, err := storage.ReadPart(path, dst)
		e.res = prefetched{edges: edges, info: info, bytes: n, err: err}
		close(e.done)
	}()
	return true
}

// take claims the prefetch for p, blocking until the background read
// finishes. ok is false when no usable prefetch exists (never started,
// invalidated, or the read failed) — the caller then loads synchronously.
// waited is how long the caller actually blocked: the join's perceived
// latency, which a prefetch that overlapped fully drives to ~zero.
func (pf *prefetcher) take(p *partition) (res prefetched, waited time.Duration, ok bool) {
	pf.mu.Lock()
	e, exists := pf.entries[p]
	if exists {
		delete(pf.entries, p)
	}
	pf.mu.Unlock()
	if !exists {
		return prefetched{}, 0, false
	}
	waitStart := time.Now()
	<-e.done
	waited = time.Since(waitStart)
	if e.res.err != nil {
		// A failed background read is not fatal: the caller retries
		// synchronously and surfaces that error if it persists.
		return prefetched{}, waited, false
	}
	return e.res, waited, true
}

// invalidate discards any prefetch of p and reports whether there was one
// (a stale prefetch, for the caller to count). Callers must invalidate before
// writing to a partition file that could be prefetch-in-flight; a reader
// racing an in-place append may see a torn block, so its result must never
// be consumed. (Whole-file writes rename and cannot tear, but the
// pre-rename bytes are equally stale.)
func (pf *prefetcher) invalidate(p *partition) bool {
	pf.mu.Lock()
	_, exists := pf.entries[p]
	delete(pf.entries, p)
	pf.mu.Unlock()
	return exists
}

// drain waits out in-flight reads and returns how many completed prefetches
// nothing consumed (wasted ones, for the caller to count). Safe to call more
// than once.
func (pf *prefetcher) drain() int64 {
	pf.wg.Wait()
	pf.mu.Lock()
	wasted := len(pf.entries)
	pf.entries = map[*partition]*prefetchEntry{}
	pf.mu.Unlock()
	return int64(wasted)
}
