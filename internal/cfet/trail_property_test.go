package cfet_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/grapple-system/grapple/internal/analysis"
	"github.com/grapple-system/grapple/internal/callgraph"
	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/raceflag"
	"github.com/grapple-system/grapple/internal/symbolic"
	"github.com/grapple-system/grapple/internal/workload"
)

func lowerSource(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := lang.Resolve(prog)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Lower(info, ir.Options{UnrollDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// diffICFET returns the first difference between two ICFETs built from the
// same ir.Program, or "" when they agree field for field: the symbol table,
// every method's nodes (ID, parent, Cond, CondText, Stmts, Leaf, Ret) in
// order, NodeIDs, Leaves, Syms and ParamSyms in order, the counters, and
// every call edge.
func diffICFET(got, want *cfet.ICFET) string {
	if !reflect.DeepEqual(got.Syms, want.Syms) {
		return "symbol tables differ"
	}
	if !reflect.DeepEqual(got.MethodByName, want.MethodByName) {
		return "MethodByName differs"
	}
	if len(got.Methods) != len(want.Methods) {
		return fmt.Sprintf("%d methods, want %d", len(got.Methods), len(want.Methods))
	}
	for i, g := range got.Methods {
		w := want.Methods[i]
		if g.Truncated != w.Truncated || g.Pruned != w.Pruned || g.Sliced != w.Sliced || g.SlicedAway != w.SlicedAway {
			return fmt.Sprintf("%s: counters truncated/pruned/sliced/slicedAway %d/%d/%d/%v, want %d/%d/%d/%v",
				g.Name, g.Truncated, g.Pruned, g.Sliced, g.SlicedAway, w.Truncated, w.Pruned, w.Sliced, w.SlicedAway)
		}
		if !reflect.DeepEqual(g.Leaves, w.Leaves) {
			return fmt.Sprintf("%s: Leaves %v, want %v", g.Name, g.Leaves, w.Leaves)
		}
		if !reflect.DeepEqual(g.Syms, w.Syms) {
			return fmt.Sprintf("%s: Syms %v, want %v", g.Name, g.Syms, w.Syms)
		}
		if !reflect.DeepEqual(g.ParamSyms, w.ParamSyms) {
			return fmt.Sprintf("%s: ParamSyms %v, want %v", g.Name, g.ParamSyms, w.ParamSyms)
		}
		if !reflect.DeepEqual(g.NodeIDs, w.NodeIDs) {
			return fmt.Sprintf("%s: NodeIDs %v, want %v", g.Name, g.NodeIDs, w.NodeIDs)
		}
		for j, wn := range w.Nodes {
			// Parents are compared by ID: each is a node compared in turn.
			gn := *g.Nodes[j]
			wc := *wn
			if parentID(gn.Parent) != parentID(wc.Parent) {
				return fmt.Sprintf("%s: node %d has parent %d, want %d", g.Name, wc.ID, parentID(gn.Parent), parentID(wc.Parent))
			}
			gn.Parent, wc.Parent = nil, nil
			if !reflect.DeepEqual(gn, wc) {
				return fmt.Sprintf("%s: node %d differs:\n got  %+v\n want %+v", g.Name, wc.ID, gn, wc)
			}
		}
	}
	if len(got.CallEdges) != len(want.CallEdges) {
		return fmt.Sprintf("%d call edges, want %d", len(got.CallEdges), len(want.CallEdges))
	}
	for i, g := range got.CallEdges {
		if !reflect.DeepEqual(g, want.CallEdges[i]) {
			return fmt.Sprintf("call edge %d differs:\n got  %+v\n want %+v", i, *g, *want.CallEdges[i])
		}
	}
	return ""
}

// parentID is the ID of a parent link, -1 for none.
func parentID(n *cfet.Node) int64 {
	if n == nil {
		return -1
	}
	return int64(n.ID)
}

// checkerOptions are the options checker.PrepareIR builds the ICFET with by
// default: SCCP verdicts plus the relevance slice for the given FSM types.
func checkerOptions(t *testing.T, p *ir.Program, tracked map[string]bool) cfet.Options {
	t.Helper()
	pre, err := analysis.Run(p, analysis.PruneAnalyzers())
	if err != nil {
		t.Fatal(err)
	}
	cg := callgraph.Build(p)
	rel := analysis.ComputeRelevance(p, cg, analysis.SolvePointsTo(p, cg), tracked)
	return cfet.Options{
		BranchVerdict: pre.BranchVerdict,
		SliceFunc:     func(name string) bool { return !rel.KeepFunc(name) },
		SliceBranch:   rel.InertBranch,
	}
}

// compareWalkers builds p with the trail environment and with the reference
// cloning walker under the same options and requires identical ICFETs.
func compareWalkers(t *testing.T, name string, p *ir.Program, opts cfet.Options) *cfet.ICFET {
	t.Helper()
	got, err := cfet.Build(p, symbolic.NewTable(), opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := cfet.BuildCloneReference(p, symbolic.NewTable(), opts)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if d := diffICFET(got, want); d != "" {
		t.Fatalf("%s: trail walker differs from the cloning walker: %s", name, d)
	}
	return got
}

// propertyProfile and sliceProfile are the shapes of the prune- and
// slice-invariance property tests in internal/workload.
func propertyProfile(seed int64) workload.Profile {
	return workload.Profile{
		Name: fmt.Sprintf("prop-%d", seed), Version: "prop",
		Seed: seed, Services: 1, WorkersPerService: 3,
		IOTP: 1, LockTP: 1, ExcTP: 1, ExcFP: 1, SockTP: 1,
		CorrectPerBug: 1, FillerStmts: 2,
		LintDeadBranches: 2, LintUninitReads: 1,
		LintDeadStores: 1, LintUnusedAllocs: 1,
	}
}

func sliceProfile(seed int64) workload.Profile {
	p := propertyProfile(seed)
	p.Name = fmt.Sprintf("slice-%d", seed)
	p.LintNilRets, p.LintDeadParams, p.LintLeakyCalls = 1, 2, 1
	return p
}

// undefinedReads reads an int and a bool that no path defines, inside true
// arms and again after them: each read binds the variable lazily to a fresh
// symbol, and that binding must not outlive the arm that made it.
const undefinedReads = `
fun helper(a: int): int {
  if (a > 0) { return a + 1; }
  return a;
}
fun main() {
  var u: int;
  var b: bool;
  var x: int = input();
  var y: int = 0;
  if (x > 0) {
    y = u + 1;
    if (b) { y = y + u; }
    y = helper(y);
  } else {
    y = helper(u);
  }
  if (b) { y = u; }
  if (y > x) { x = u; }
  return;
}`

// TestPropertyTrailEnvMatchesCloneWalker: the ICFET built with one
// environment and an undo trail equals, field for field, the one built by
// the reference walker that copies the environment at every split.
func TestPropertyTrailEnvMatchesCloneWalker(t *testing.T) {
	tracked := map[string]bool{}
	for _, f := range fsm.Builtins() {
		tracked[f.Type] = true
	}
	lockOnly := map[string]bool{fsm.BuiltinLock().Type: true}

	var profiles []workload.Profile
	for _, seed := range []int64{7, 19, 23, 31} {
		profiles = append(profiles, propertyProfile(seed))
	}
	for _, seed := range []int64{11, 29} {
		profiles = append(profiles, sliceProfile(seed))
	}
	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	for seed := 1; seed <= seeds; seed++ {
		p := workload.MiniProfile()
		p.Name = fmt.Sprintf("mini-%d", seed)
		p.Seed = int64(seed)
		profiles = append(profiles, p)
	}

	splits, truncated, pruned, sliced := 0, 0, 0, 0
	for _, prof := range profiles {
		p := lowerSource(t, workload.Generate(prof).Source)
		variants := []struct {
			name string
			opts cfet.Options
		}{
			{"plain", cfet.Options{}},
			{"prune+slice", checkerOptions(t, p, tracked)},
			{"prune+slice(lock)", checkerOptions(t, p, lockOnly)},
			{"budget", cfet.Options{MaxNodesPerMethod: 9}},
		}
		for _, v := range variants {
			ic := compareWalkers(t, prof.Name+"/"+v.name, p, v.opts)
			for _, m := range ic.Methods {
				splits += (len(m.Nodes) - 1) / 2
				truncated += m.Truncated
				pruned += m.Pruned
				sliced += m.Sliced
			}
		}
	}
	if splits == 0 || truncated == 0 || pruned == 0 || sliced == 0 {
		t.Fatalf("corpus misses a walker path: %d splits, %d truncated, %d pruned, %d sliced",
			splits, truncated, pruned, sliced)
	}

	// Lazy bindings of undefined variables, with and without a budget that
	// cuts main's tree short.
	p := lowerSource(t, undefinedReads)
	for _, opts := range []cfet.Options{{}, {MaxNodesPerMethod: 5}} {
		ic := compareWalkers(t, "undefined-reads", p, opts)
		undef := 0
		for i := 0; i < ic.Syms.Len(); i++ {
			if strings.HasPrefix(ic.Syms.Name(symbolic.Sym(i)), "main.undef") {
				undef++
			}
		}
		if opts.MaxNodesPerMethod == 0 && undef < 4 {
			t.Fatalf("undefined-reads: %d lazily bound symbols; the program should bind u and b once per arm that reads them", undef)
		}
	}
}

// TestBuildAllocBudget pins what cfet.Build allocates per encoded path on
// wide-sim at 10×10 under the checker's default options for the lock FSM.
// Nodes, placed statements and symbolic values are the tree's content; what
// must not come back is a per-split cost that grows with the number of live
// variables (copying both environment maps cost ~1.7 KB per split).
func TestBuildAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime inflates allocation")
	}
	const budget = 1040 // bytes per encoded path: 901 measured, + 15 % (1059 before the slot environment and slab-cut node lists, 1810 before the build's slabs)
	p := lowerSource(t, workload.Generate(workload.WideProfile(10, 10)).Source)
	opts := checkerOptions(t, p, map[string]bool{fsm.BuiltinLock().Type: true})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ic, err := cfet.Build(p, symbolic.NewTable(), opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perPath := float64(after.TotalAlloc-before.TotalAlloc) / float64(ic.PathCount())
	t.Logf("%d paths: %.0f B allocated per encoded path", ic.PathCount(), perPath)
	if perPath > budget {
		t.Errorf("cfet.Build allocates %.0f B per encoded path, budget %d", perPath, budget)
	}
}

// TestStubAllocBudget pins what a sliced-away method costs cfet.Build: its
// stub, node, node lists and parameter symbols come from the build's slabs,
// and it allocates no per-method map. On 2 000 functions of two parameters
// each, all sliced away, the build may allocate one object per symbol it
// interns (the symbol's name) and at most 0.25 more per method: slab chunks
// and the table's growth. Before the stub was slab-backed it made 9.05 more
// per method: maps for its nodes, its parameters and its owned symbols, and
// its own struct, leaf list and symbol list.
func TestStubAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime inflates allocation")
	}
	const budget = 0.25 // mallocs per stub beyond one per symbol
	var src strings.Builder
	src.WriteString("type T;\n")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&src, "fun f%d(a: int, o: T) { var x: int = a; }\n", i)
	}
	p := lowerSource(t, src.String())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ic, err := cfet.Build(p, symbolic.NewTable(), cfet.Options{SliceFunc: func(string) bool { return true }})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := ic.SlicedFunctions(); got != len(p.Funs) {
		t.Fatalf("%d of %d methods sliced away", got, len(p.Funs))
	}
	perStub := (float64(after.Mallocs-before.Mallocs) - float64(ic.Syms.Len())) / float64(len(ic.Methods))
	t.Logf("%d stubs, %d symbols: %d mallocs, %.2f per stub beyond one per symbol",
		len(ic.Methods), ic.Syms.Len(), after.Mallocs-before.Mallocs, perStub)
	if perStub > budget {
		t.Errorf("a sliced-away method makes %.2f heap objects beyond its symbols' names, budget %.2f", perStub, budget)
	}
}
