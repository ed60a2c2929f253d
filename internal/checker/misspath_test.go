package checker_test

import (
	"context"
	"testing"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/raceflag"
	"github.com/grapple-system/grapple/internal/smt"
	"github.com/grapple-system/grapple/internal/storage"
	"github.com/grapple-system/grapple/internal/workload"
)

// TestMissPathZeroAlloc is the allocation gate on what a join worker does
// when its constraint-cache probe misses: decode the path, solve the
// conjunction. (TestJoinAllocBudget's fixture never decodes or solves.) It
// runs one Decoder and one Solver, as a worker owns them, over every distinct
// path encoding of mini-sim's two closed graphs; once a first pass has grown
// their buffers, a pass allocates nothing. The cache insert that ends a miss
// allocates only when a shard's table or key arena grows
// (smt.TestCachePutAllocs).
func TestMissPathZeroAlloc(t *testing.T) {
	c := checker.New(fsm.Builtins(), checker.Options{})
	var encs []cfet.Enc
	seen := map[uint64]bool{}
	c.OnClosedGraph(func(phase string, forEach func(func(*storage.Edge) bool) error) {
		if err := forEach(func(e *storage.Edge) bool {
			if h := e.PayloadHash(); len(e.Enc) > 0 && !seen[h] {
				seen[h] = true
				encs = append(encs, e.Enc.Clone())
			}
			return true
		}); err != nil {
			t.Error(err)
		}
	})
	prep, err := c.PrepareSource(context.Background(), workload.Generate(workload.MiniProfile()).Source)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CheckPrepared(context.Background(), prep); err != nil {
		t.Fatal(err)
	}
	ic, _ := prep.JoinInputs()

	dec, solver := ic.NewDecoder(), smt.New(smt.DefaultOptions())
	atoms := 0
	pass := func() {
		for _, enc := range encs {
			conj, err := dec.Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			atoms += len(conj)
			if len(conj) > 0 {
				solver.Solve(conj)
			}
		}
	}
	pass()
	t.Logf("%d encodings, %d atoms, %d solved: %d sat, %d unsat, %d unknown",
		len(encs), atoms, solver.Calls, solver.SatN, solver.UnsatN, solver.UnknownN)
	if solver.Calls < 100 {
		t.Fatalf("only %d of %d encodings reached the solver: the fixture does not exercise a miss", solver.Calls, len(encs))
	}
	if raceflag.Enabled {
		t.Skip("the race runtime inflates allocation")
	}
	if got := testing.AllocsPerRun(5, pass); got != 0 {
		t.Fatalf("a warm decode + solve pass over %d encodings allocates %.0f times, want 0", len(encs), got)
	}
}
