package main

import (
	"sync"
	"time"
)

// The host this benchmark runs on is a few vCPUs of a shared machine, and
// its speed moves: for minutes at a time every process on it runs 20–120 %
// slower (CPU seconds inflate with wall seconds; no steal time is shown), and
// the shift lasts longer than a run, so no statistic taken inside one run
// removes it. The host probe is the control that does: a fixed piece of work,
// frozen in this file and independent of the program under test, timed
// immediately before and after every measured check. A check's time metrics
// are divided by how much slower than nominal the probe ran around it, which
// puts them at the speed of the reference host. Measured on a series of
// alternating checks and probes that included a 2x slow phase, the
// interquartile spread of the per-run median of wall_s went from 26–29 % of
// the median as timed to 4–5 % at reference speed (README.md has the tables).
//
// The probe is a mix, because the slow phases are a mix: integer arithmetic
// (slows when the vCPU itself is shared), dependent loads over a table far
// larger than the caches (slows when a neighbour takes cache and memory
// bandwidth — the common case, and what the program, a pointer-heavy graph
// closure over hundreds of MiB, is most sensitive to), and small allocations
// into a map (allocator and garbage collector, as the program's heap churn).
// Changing any constant below changes every time metric: it is a
// re-baselining change of its own, never part of another.
const (
	hostALUSteps   = 30_000_000
	hostTableWords = 1 << 24 // 64 MiB of uint32
	hostChaseSteps = 1_000_000
	hostAllocSteps = 600_000
	hostAllocKeys  = 50_000
	// hostNominalS is what one sample takes on the quiet reference host (2
	// vCPUs of a Xeon at 2.1 GHz, go1.24, W = 2): it makes slowdown 1.0 there,
	// so that metrics at reference speed read as that host's seconds.
	hostNominalS = 0.38
	// hostFresh is how long a sample stands for the host's speed: a check
	// that starts within it of the last sample does not take another.
	hostFresh = 150 * time.Millisecond
)

// hostProbe times the reference work. One is shared by every runner of a
// harness invocation, so that the sample after one check is the sample
// before the next.
type hostProbe struct {
	width int
	div   int // work divisor: 1, or more in smoke mode
	table []uint32
	last  float64 // slowdown of the latest sample
	at    time.Time
}

var hostSink uint64

// newHostProbe builds the dependent-load table: one cycle through all its
// words in a fixed pseudo-random order (Sattolo's shuffle), so every load
// waits for the one before it and no prefetcher helps.
func newHostProbe(width int, smoke bool) *hostProbe {
	p := &hostProbe{width: width, div: 1}
	if smoke {
		p.div = 32
	}
	n := hostTableWords / p.div
	p.table = make([]uint32, n)
	for i := range p.table {
		p.table[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		p.table[i], p.table[j] = p.table[j], p.table[i]
	}
	return p
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// slowdown returns how much slower than nominal the host runs now: the
// latest sample if it is fresh, else a new one.
func (p *hostProbe) slowdown() float64 {
	if p.at.IsZero() || time.Since(p.at) > hostFresh {
		p.sample()
	}
	return p.last
}

// sample times the reference work on width goroutines, each doing the whole
// of it, as the checks run on width workers.
func (p *hostProbe) sample() float64 {
	start := time.Now()
	p.parallel(func(int) uint64 {
		x, s := uint64(88172645463325252), uint64(0)
		for i := 0; i < hostALUSteps/p.div; i++ {
			x = xorshift(x)
			s += x & 0xff
		}
		return s
	})
	p.parallel(func(id int) uint64 {
		at := uint32(id*7919+1) % uint32(len(p.table))
		for i := 0; i < hostChaseSteps/p.div; i++ {
			at = p.table[at]
		}
		return uint64(at)
	})
	p.parallel(func(int) uint64 {
		type node struct {
			next *node
			buf  []byte
		}
		m := map[uint64]*node{}
		x, s := uint64(7), uint64(0)
		for i := 0; i < hostAllocSteps/p.div; i++ {
			x = xorshift(x)
			k := x % hostAllocKeys
			old := m[k]
			if old != nil {
				s += uint64(len(old.buf))
			}
			m[k] = &node{next: old, buf: make([]byte, 16+x%64)}
			if old != nil {
				old.next = nil // chains stay one deep: the rest is garbage
			}
		}
		return s + uint64(len(m))
	})
	p.at = time.Now()
	p.last = p.at.Sub(start).Seconds() / (hostNominalS / float64(p.div))
	return p.last
}

func (p *hostProbe) parallel(work func(id int) uint64) {
	var wg sync.WaitGroup
	sums := make([]uint64, p.width)
	for g := 0; g < p.width; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			sums[id] = work(id)
		}(g)
	}
	wg.Wait()
	for _, s := range sums {
		hostSink += s
	}
}
