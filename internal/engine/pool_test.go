package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/grammar"
	"github.com/grapple-system/grapple/internal/raceflag"
	"github.com/grapple-system/grapple/internal/smt"
	"github.com/grapple-system/grapple/internal/storage"
)

// closureFingerprint canonicalizes an engine's closed graph into a sorted
// multiset of fully-rendered edges (endpoints, label, rel, and every
// encoding element), so two runs can be compared for byte-level identity.
func closureFingerprint(t *testing.T, en *Engine) []string {
	t.Helper()
	var out []string
	if err := en.ForEach(func(e *storage.Edge) bool {
		out = append(out, fmt.Sprintf("%d>%d:%d rel=%v,%v enc=%v", e.Src, e.Dst, e.Label, e.HasRel, e.Rel, e.Enc))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// TestFrozenIndexUnderParallelJoin exercises the invariant the join's missing
// locks rest on: while join workers read the loaded partitions' edges and
// their bySrc index, nothing writes them — insert, the only writer, runs
// after wg.Wait(), and it alone probes the dedupe index. Eight workers over an
// out-of-core budget (several partitions, repartitions, pending buffers)
// under `make race` would report any insert that overlapped a read; the
// closure and every rejection counter must equal the one-worker run's.
func TestFrozenIndexUnderParallelJoin(t *testing.T) {
	const n = 96
	ic, d, edges := joinChain(t, n)
	var baseline []string
	var baseStats *Stats
	for _, workers := range []int{1, 8} {
		en, st := runEngine(t, ic, d.G, Options{MemoryBudget: 16 << 10, Workers: workers}, edges, n)
		fp := closureFingerprint(t, en)
		if baseline == nil {
			if st.Partitions < 2 || st.RejectedConflict == 0 || st.CacheLookups == 0 {
				t.Fatalf("workload too small to mean anything: %+v", st)
			}
			baseline, baseStats = fp, st
			continue
		}
		if !reflect.DeepEqual(fp, baseline) {
			t.Fatalf("closure differs between 1 and %d workers (%d vs %d edges)", workers, len(baseline), len(fp))
		}
		if st.EdgesAfter != baseStats.EdgesAfter ||
			st.RejectedUnsat != baseStats.RejectedUnsat ||
			st.RejectedConflict != baseStats.RejectedConflict ||
			st.CacheLookups != baseStats.CacheLookups ||
			st.Widened != baseStats.Widened {
			t.Fatalf("stats differ between 1 and %d workers:\n  %+v\n  %+v", workers, baseStats, st)
		}
	}
}

// TestWorkerFoldMatchesOneWorker holds the per-worker tallies, folded by the
// run goroutine after each superstep's wg.Wait(), to the one-worker run: every
// count that does not depend on which worker met a constraint first is equal,
// and on either run the solve histogram holds one observation per solver call
// and Figure 9's solve share is the summed solve time, whichever workers the
// solves landed on. With the constraint cache off every surviving candidate is
// solved, so the solves spread over all eight tallies and their number is
// deterministic too.
func TestWorkerFoldMatchesOneWorker(t *testing.T) {
	const n = 192
	ic, d, edges := joinChain(t, n)
	for _, cached := range []bool{true, false} {
		var base *Stats
		for _, workers := range []int{1, 8} {
			opts := Options{Dir: t.TempDir(), Workers: workers}
			if cached {
				opts.Cache = smt.NewCache(0)
			}
			en := New(ic, d.G, opts)
			st, err := en.Run(edges, n)
			if err != nil {
				t.Fatal(err)
			}
			if len(en.scratch) != workers {
				t.Fatalf("%d join workers ran, want %d", len(en.scratch), workers)
			}
			if st.ConstraintsSolved == 0 || st.SolveLatency.Total() != st.ConstraintsSolved {
				t.Fatalf("cached %v, %d workers: solve histogram holds %d observations, solver was called %d times",
					cached, workers, st.SolveLatency.Total(), st.ConstraintsSolved)
			}
			if st.Breakdown.Solve != st.SolveTime || st.Breakdown.Compute <= 0 || st.Breakdown.Decode <= 0 {
				t.Fatalf("cached %v, %d workers: breakdown %+v against solve time %v", cached, workers, st.Breakdown, st.SolveTime)
			}
			if base == nil {
				base = st
				continue
			}
			if st.CacheLookups != base.CacheLookups || st.RejectedUnsat != base.RejectedUnsat ||
				st.RejectedConflict != base.RejectedConflict || st.EdgesAfter != base.EdgesAfter ||
				!cached && st.ConstraintsSolved != base.ConstraintsSolved {
				t.Fatalf("cached %v: folded counts differ between 1 and %d workers:\n  %+v\n  %+v", cached, workers, base, st)
			}
		}
		if cached && base.CacheLookups == 0 {
			t.Fatal("cached run probed no memo")
		}
		if !cached && base.ConstraintsSolved < 100 {
			t.Fatalf("uncached run solved only %d constraints", base.ConstraintsSolved)
		}
	}
}

// TestCacheProbeZeroAlloc: with the chunk's scratch buffer in place, an SMT-cache probe (key encode + lookup)
// must not allocate — the key string only materializes when PutBytes
// actually inserts.
func TestCacheProbeZeroAlloc(t *testing.T) {
	enc := cfet.Enc{
		cfet.Interval(3, 1, 9),
		cfet.CallElem(12),
		cfet.RetElem(12),
		cfet.Interval(4, 0, 1<<18),
	}
	cache := smt.NewCache(64)
	warm := appendEncCacheKey(nil, enc)
	cache.PutBytes(warm, smt.Sat)
	if v, ok := cache.GetBytes(warm); !ok || v != smt.Sat {
		t.Fatalf("byte-key round trip failed: %v %v", v, ok)
	}

	if raceflag.Enabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	keyBuf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		keyBuf = appendEncCacheKey(keyBuf[:0], enc)
		if _, ok := cache.GetBytes(keyBuf); !ok {
			t.Fatal("warm probe missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm cache probe allocates %.1f/op, want 0", allocs)
	}
}

// joinChain is the join microbenchmark's input: an n-vertex chain whose
// every edge carries a path constraint — the function entry, its then
// branch or its else branch — so each candidate pays the whole per-candidate
// path (grammar match, merge, constraint-cache probe, dedupe in insert), paths
// through both branches die as merge conflicts, and every transitive pair is
// derived once per intermediate vertex, which makes most candidates
// duplicates, as in a real closure.
func joinChain(tb testing.TB, n uint32) (*cfet.ICFET, *grammar.Dataflow, []storage.Edge) {
	return joinChainUnder(tb, n, allPairs())
}

// joinChainUnder is joinChain for the dataflow grammar d: the production one,
// under which each transitive pair is derived once, or allPairs.
func joinChainUnder(tb testing.TB, n uint32, d *grammar.Dataflow) (*cfet.ICFET, *grammar.Dataflow, []storage.Edge) {
	ic := buildFromSource(tb, `
fun f(x: int) {
  if (x > 0) {
    x = x + 1;
  } else {
    x = x - 1;
  }
  return;
}`)
	m := ic.Method("f")
	var edges []storage.Edge
	for i := uint32(0); i+1 < n; i++ {
		e := flowEdge(i, i+1, d.Step)
		end := uint64(0)
		switch {
		case i%3 == 0:
			end = 2
		case i%16 == 7:
			end = 1
		}
		e.Enc = cfet.Enc{cfet.Interval(m.Method, 0, end)}
		edges = append(edges, e)
	}
	return ic, d, edges
}

// BenchmarkEdgeJoin closes joinChain out of core, reporting ns per induced
// edge (the join's unit of work) and allocations.
func BenchmarkEdgeJoin(b *testing.B) {
	const n = 48
	ic, d, edges := joinChain(b, n)
	var induced int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		en := New(ic, d.G, Options{Dir: b.TempDir(), MemoryBudget: 8 << 10, Workers: 4, Cache: smt.NewCache(0)})
		b.StartTimer()
		st, err := en.Run(edges, n)
		if err != nil {
			b.Fatal(err)
		}
		induced = st.EdgesAfter - st.EdgesBefore
	}
	b.StopTimer()
	if induced > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(induced), "ns/edge-join")
	}
}

// joinAllocsPerCandidate closes joinChain in memory on one worker and
// returns heap allocations and allocated bytes per join candidate (candidates
// counted as the perf ledger counts them: constraint-cache lookups plus merge
// conflicts). The run includes building the engine and preprocessing, which
// the candidate count dwarfs at this chain length, and no partition I/O: the
// graph fits the budget.
func joinAllocsPerCandidate(tb testing.TB) (allocs, bytes float64, candidates int64) {
	const n = 192
	ic, d, edges := joinChain(tb, n)
	dir := tb.TempDir()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st, err := New(ic, d.G, Options{Dir: dir, Workers: 1, Cache: smt.NewCache(0)}).Run(edges, n)
	runtime.ReadMemStats(&after)
	if err != nil {
		tb.Fatal(err)
	}
	candidates = st.CacheLookups + st.RejectedConflict
	if candidates == 0 {
		tb.Fatal("join chain produced no candidates")
	}
	if st.IO.Writes != 0 || st.IO.Loads != 0 {
		tb.Fatalf("an in-memory run did partition I/O: %+v", st.IO)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(candidates),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(candidates), candidates
}

// TestJoinAllocBudget is the `make alloc-budget` gate on the join: heap
// allocations per candidate must stay at the level the scratch-buffer merge
// and the allocation-free key brought them to, and allocated bytes where edge
// blocks that are never copied, a dedupe index that is one flat table, a
// constraint cache that starts empty and a run that writes nothing brought
// them.
func TestJoinAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	allocs, bytes, candidates := joinAllocsPerCandidate(t)
	t.Logf("%.3f allocs and %.0f bytes per candidate over %d candidates", allocs, bytes, candidates)
	if allocs > joinAllocBudget || bytes > joinBytesBudget {
		t.Fatalf("join allocates %.3f times and %.0f bytes per candidate, budget %.2f and %d",
			allocs, bytes, joinAllocBudget, joinBytesBudget)
	}
}

// joinAllocBudget pins allocations per join candidate on joinChain: 0.040
// measured over 19 864 candidates (0.075 over 10 536 while the join dropped
// duplicates before the constraint memo and edge arrays doubled; 3.64 before
// the key, merge and expansion stopped allocating), with headroom for
// map-growth timing across Go releases. joinBytesBudget pins the bytes: 250
// measured, against 280 with doubling edge arrays and 627 with the
// write-back, a pre-sized constraint cache, a map for the dedupe index and
// edge arrays regrown by a quarter.
const (
	joinAllocBudget = 0.055
	joinBytesBudget = 320
)
