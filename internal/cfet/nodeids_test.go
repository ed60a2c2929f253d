package cfet_test

import (
	"slices"
	"sort"
	"testing"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/symbolic"
	"github.com/grapple-system/grapple/internal/workload"
)

// sortedNodes is the reference for CFET.NodeIDs: the keys of Nodes, sorted,
// as graph construction collected them for every method and context before
// Build sorted them once.
func sortedNodes(m *cfet.CFET) []uint64 {
	out := make([]uint64, 0, len(m.Nodes))
	for id := range m.Nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestNodeIDsAscending holds every method's NodeIDs to the sorted keys of
// its Nodes on the four golden subjects, built as the checker builds them
// against all builtin FSMs (pruned and sliced, so stubs are covered) and
// unpruned and unsliced (every method's whole tree).
func TestNodeIDsAscending(t *testing.T) {
	tracked := map[string]bool{}
	for _, f := range fsm.Builtins() {
		tracked[f.Type] = true
	}
	for _, prof := range workload.Profiles() {
		p := lowerSource(t, workload.Generate(prof).Source)
		for name, opts := range map[string]cfet.Options{
			"checker": checkerOptions(t, p, tracked),
			"whole":   {},
		} {
			ic, err := cfet.Build(p, symbolic.NewTable(), opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range ic.Methods {
				if want := sortedNodes(m); !slices.Equal(m.NodeIDs, want) {
					t.Fatalf("%s/%s: %s: NodeIDs %v, sorted keys of Nodes %v", prof.Name, name, m.Name, m.NodeIDs, want)
				}
			}
		}
	}
}
