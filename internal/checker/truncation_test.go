package checker_test

import (
	"context"
	"testing"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/workload"
)

// checkSource prepares and checks src against fsms under opts and returns
// the result and the unit's ICFET.
func checkSource(t *testing.T, fsms []*fsm.FSM, opts checker.Options, src string) (*checker.Result, *cfet.ICFET) {
	t.Helper()
	opts.WorkDir = t.TempDir()
	c := checker.New(fsms, opts)
	prep, err := c.PrepareSource(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.CheckPrepared(context.Background(), prep)
	if err != nil {
		t.Fatal(err)
	}
	ic, _ := prep.JoinInputs()
	return res, ic
}

// TestTruncationIsReported: the subtrees the CFET node budget cuts reach
// PhaseStats.TruncatedSubtrees, the same count on both phases and the sum of
// the methods' CFET.Truncated. The four paper subjects are built whole at
// the default budget, so they read 0 — the budget plays no part in their
// golden reports — and at 64 nodes per method they read > 0. (A cut is
// not report-neutral: a truncated leaf exits like a return, so at low
// budgets a subject may gain or lose reports; only the count is held here.)
func TestTruncationIsReported(t *testing.T) {
	for _, prof := range workload.Profiles() {
		src := workload.Generate(prof).Source
		for _, budget := range []int{0, 64} {
			res, ic := checkSource(t, fsm.Builtins(), checker.WithCFET(checker.Options{}, cfet.Options{MaxNodesPerMethod: budget}), src)
			sum := 0
			for _, m := range ic.Methods {
				sum += m.Truncated
			}
			got := res.Alias.TruncatedSubtrees
			if got != sum || res.Dataflow.TruncatedSubtrees != sum {
				t.Errorf("%s at budget %d: %d/%d truncated subtrees on the two phases, the methods sum to %d",
					prof.Name, budget, got, res.Dataflow.TruncatedSubtrees, sum)
			}
			if budget == 0 && got != 0 {
				t.Errorf("%s: %d truncated subtrees at the default budget, want 0", prof.Name, got)
			}
			if budget != 0 && got == 0 {
				t.Errorf("%s: no truncated subtree at %d nodes per method", prof.Name, budget)
			}
		}
	}
}
