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

// sortedNodes is the reference for CFET.NodeIDs: the IDs of the method's
// nodes, sorted by comparison, as graph construction collected them for
// every method and context before Build ordered them once.
func sortedNodes(m *cfet.CFET) []uint64 {
	out := make([]uint64, 0, len(m.Nodes))
	for _, n := range m.Nodes {
		out = append(out, n.ID)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestNodeIDsAscending holds every method's NodeIDs to the sorted IDs of its
// Nodes on the four golden subjects, built as the checker builds them
// against all builtin FSMs (pruned and sliced, so stubs are covered) and
// unpruned and unsliced (every method's whole tree), and at a node budget
// that truncates. Nodes[i] must be the node NodeIDs[i] names, each node's
// parent link the node its ID's parent names, and every leaf found by ID.
func TestNodeIDsAscending(t *testing.T) {
	tracked := map[string]bool{}
	for _, f := range fsm.Builtins() {
		tracked[f.Type] = true
	}
	for _, prof := range workload.Profiles() {
		p := lowerSource(t, workload.Generate(prof).Source)
		for name, opts := range map[string]cfet.Options{
			"checker":  checkerOptions(t, p, tracked),
			"whole":    {},
			"budget64": {MaxNodesPerMethod: 64},
		} {
			ic, err := cfet.Build(p, symbolic.NewTable(), opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range ic.Methods {
				if want := sortedNodes(m); !slices.Equal(m.NodeIDs, want) {
					t.Fatalf("%s/%s: %s: NodeIDs %v, sorted IDs of Nodes %v", prof.Name, name, m.Name, m.NodeIDs, want)
				}
				for i, n := range m.Nodes {
					if n.ID != m.NodeIDs[i] {
						t.Fatalf("%s/%s: %s: Nodes[%d] is node %d, NodeIDs[%d] is %d", prof.Name, name, m.Name, i, n.ID, i, m.NodeIDs[i])
					}
					if n.ID == 0 {
						if n.Parent != nil {
							t.Fatalf("%s/%s: %s: the root has parent %d", prof.Name, name, m.Name, n.Parent.ID)
						}
						continue
					}
					if want := m.Node(cfet.Parent(n.ID)); n.Parent == nil || n.Parent != want {
						t.Fatalf("%s/%s: %s: node %d's parent link is not node %d", prof.Name, name, m.Name, n.ID, cfet.Parent(n.ID))
					}
				}
				for _, l := range m.Leaves {
					if n := m.Node(l); n == nil || n.Leaf == cfet.LeafNone {
						t.Fatalf("%s/%s: %s: leaf %d not found by ID", prof.Name, name, m.Name, l)
					}
				}
			}
		}
	}
}
