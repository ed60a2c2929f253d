package checker_test

import (
	"context"
	"testing"

	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/raceflag"
	"github.com/grapple-system/grapple/internal/workload"
)

// TestDataflowBuildAllocBudget is the allocation gate on building the
// dataflow graph from real alias flows, in allocations per emitted edge. The
// builder reads each method's allocations, calls, subtree exits and path
// constraints from facts it computes once per call, visiting each method's
// nodes in the order cfet.Build sorted once: 4.56, 3.43 and 6.39 an edge on
// these subjects. Re-deriving them per object and context, as the builder
// before it did, costs 16.9, 9.0 and 293.
func TestDataflowBuildAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime inflates allocation")
	}
	for _, tc := range []struct {
		profile workload.Profile
		budget  float64
	}{
		{deepSimProfile(), 5.5},
		{hdfsHalfProfile(), 4.15},
		{workload.WideProfile(10, 10), 7.7},
	} {
		c := checker.New(fsm.Builtins(), checker.Options{})
		prep, err := c.PrepareSource(context.Background(), workload.Generate(tc.profile).Source)
		if err != nil {
			t.Fatal(err)
		}
		edges := len(prep.BuildDataflow(c).Edges)
		if edges == 0 {
			t.Fatalf("%s: no dataflow edges", tc.profile.Name)
		}
		perEdge := testing.AllocsPerRun(3, func() { prep.BuildDataflow(c) }) / float64(edges)
		t.Logf("%s: %d edges, %.2f allocations an edge", tc.profile.Name, edges, perEdge)
		if perEdge > tc.budget {
			t.Errorf("%s: building the dataflow graph allocates %.2f times an edge, budget %.2f",
				tc.profile.Name, perEdge, tc.budget)
		}
	}
}
