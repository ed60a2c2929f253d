package pgraph_test

import (
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/grapple-system/grapple/internal/callgraph"
	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/pgraph"
	"github.com/grapple-system/grapple/internal/symbolic"
	"github.com/grapple-system/grapple/internal/workload"
)

// TestBuildDataflowMatchesReference holds BuildDataflow, which reads
// per-method facts, to the builder it replaced, which re-derived them per
// object and context (dataflow_ref_test.go): identical edges in order,
// vertex count, tracked objects and skipped-object count. The flows are a
// seeded sample of variable instances in and below each object's
// allocation context, with a few anywhere, under nil, intraprocedural,
// conflicting and call-entry encodings, with one or two pointees each — so
// definite, may-alias and entry-definite attributions all occur (the
// reference counts them). Dropping LeafTruncate from the return bit of the
// per-method exit facts fails it on deep-sim/256, whose methods truncate.
func TestBuildDataflowMatchesReference(t *testing.T) {
	half, _ := workload.ProfileByName("hdfs-sim")
	half.Services, half.ExcTP, half.ExcFP, half.SockTP = 4, 22, 2, 2
	deep := workload.Profile{
		Name: "deep-sim", Seed: 3005, Services: 2, WorkersPerService: 2,
		ExcTP: 8, SockTP: 4, CorrectPerBug: 2, FillerStmts: 6,
	}
	// A subject's name ending in "/N" builds its CFETs with N nodes a method
	// at most, so paths truncate.
	subjects := map[string]string{
		"deep-sim":        workload.Generate(deep).Source,
		"deep-sim/256":    workload.Generate(deep).Source,
		"hdfs-half":       workload.Generate(half).Source,
		"mini-sim":        workload.Generate(workload.MiniProfile()).Source,
		"concurrency-sim": workload.Generate(workload.ConcurrencyProfile()).Source,
		"doubling-7":      pgraph.DoublingChain(7),
		"doubling-9":      pgraph.DoublingChain(9),
	}
	names := make([]string, 0, len(subjects))
	for name := range subjects {
		names = append(names, name)
	}
	sort.Strings(names)

	fsms := map[string]*fsm.FSM{}
	for _, f := range fsm.Builtins() {
		fsms[f.Type] = f
	}
	fsms["R"] = fsm.BuiltinIO() // the doubling chain's type
	fsmFor := func(typ string) *fsm.FSM { return fsms[typ] }

	var total pgraph.RefCounts
	tracked, skipped := 0, 0
	for i, name := range names {
		maxNodes := 0
		if slash := strings.LastIndexByte(name, '/'); slash >= 0 {
			maxNodes, _ = strconv.Atoi(name[slash+1:])
		}
		pr := buildSubject(t, subjects[name], maxNodes)
		ag := pgraph.BuildAlias(pr)
		flows := sampleFlows(pr, ag, rand.New(rand.NewSource(int64(i+1))))
		want, counts := pgraph.BuildDataflowRef(pr, flows, ag, fsmFor)
		got := pgraph.BuildDataflow(pr, flows, ag, fsmFor)
		if len(got.Edges) != len(want.Edges) {
			t.Fatalf("%s: %d edges, reference %d", name, len(got.Edges), len(want.Edges))
		}
		for j := range want.Edges {
			if !reflect.DeepEqual(got.Edges[j], want.Edges[j]) {
				t.Fatalf("%s: edge %d is %+v, reference %+v", name, j, got.Edges[j], want.Edges[j])
			}
		}
		if got.NumVerts != want.NumVerts || got.SkippedObjects != want.SkippedObjects ||
			!reflect.DeepEqual(got.Tracked, want.Tracked) {
			t.Fatalf("%s: %d vertices, %d tracked, %d skipped; reference %d, %d, %d", name,
				got.NumVerts, len(got.Tracked), got.SkippedObjects,
				want.NumVerts, len(want.Tracked), want.SkippedObjects)
		}
		t.Logf("%s: %d edges, %d vertices, %d tracked, %d skipped; events %+v",
			name, len(want.Edges), want.NumVerts, len(want.Tracked), want.SkippedObjects, counts)
		total.Definite += counts.Definite
		total.MayAlias += counts.MayAlias
		total.EntryDefinite += counts.EntryDefinite
		tracked += len(want.Tracked)
		skipped += want.SkippedObjects
	}
	if total.Definite == 0 || total.MayAlias == 0 || total.EntryDefinite == 0 || tracked == 0 || skipped == 0 {
		t.Fatalf("the sample misses a path: events %+v, %d tracked, %d skipped", total, tracked, skipped)
	}
}

// buildSubject runs the frontend the checker runs, without pre-analysis or
// slicing, up to the context tree.
func buildSubject(t *testing.T, src string, maxNodes int) *pgraph.Program {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := lang.Resolve(prog)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Lower(info, ir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cg := callgraph.Build(p)
	ic, err := cfet.Build(p, symbolic.NewTable(), cfet.Options{MaxNodesPerMethod: maxNodes})
	if err != nil {
		t.Fatal(err)
	}
	return pgraph.NewProgram(p, cg, ic, pgraph.Options{})
}

// sampleFlows draws each object's flow targets: every variable instance of
// its allocation context and the contexts below it with probability 1/2,
// any other with probability 1/500. Each target's encoding is one of nil,
// the path from its method's root, the path from an ancestor, a stray node
// of its method (so merges can conflict), and, in a private clone, an entry
// call edge followed by the path from the root. Each instance has one or two
// pointees.
func sampleFlows(pr *pgraph.Program, ag *pgraph.AliasGraph, rng *rand.Rand) pgraph.AliasResult {
	vars := make([]pgraph.VarKey, 0, len(ag.VarVert))
	for vk := range ag.VarVert {
		vars = append(vars, vk)
	}
	sort.Slice(vars, func(i, j int) bool {
		a, b := vars[i], vars[j]
		if a.Ctx != b.Ctx {
			return a.Ctx < b.Ctx
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Name < b.Name
	})
	below := func(ctx, top uint32) bool {
		for ; ctx != pgraph.NoContext; ctx = pr.Contexts[ctx].Parent {
			if ctx == top {
				return true
			}
		}
		return false
	}
	// entries[ctx] are the call edges that enter a private clone.
	entries := map[uint32][]int32{}
	for _, c := range pr.Contexts {
		if c.Shared || c.Parent == pgraph.NoContext {
			continue
		}
		caller := pr.Method(c.Parent).Method
		for _, ce := range pr.IC.CallEdges {
			if ce != nil && ce.Callee == c.Method && ce.Site == c.Site && ce.Caller == caller {
				entries[c.ID] = append(entries[c.ID], ce.ID)
			}
		}
	}
	flows := pgraph.AliasResult{Flows: map[pgraph.ObjID][]pgraph.FlowTarget{}, Pointees: map[pgraph.VarKey]int{}}
	for _, obj := range ag.Objects {
		for _, vk := range vars {
			if below(vk.Ctx, obj.ID.Ctx) {
				if rng.Intn(2) != 0 {
					continue
				}
			} else if rng.Intn(500) != 0 {
				continue
			}
			m := pr.Method(vk.Ctx)
			var enc cfet.Enc
			switch rng.Intn(5) {
			case 1:
				enc = cfet.Enc{cfet.Interval(m.Method, 0, vk.Node)}
			case 2:
				anc := vk.Node
				for k := rng.Intn(4); k > 0; k-- {
					anc = cfet.Parent(anc)
				}
				enc = cfet.Enc{cfet.Interval(m.Method, anc, vk.Node)}
			case 3:
				stray := m.Leaves[rng.Intn(len(m.Leaves))]
				enc = cfet.Enc{cfet.Interval(m.Method, stray, stray)}
			case 4:
				if es := entries[vk.Ctx]; len(es) > 0 {
					enc = cfet.Enc{cfet.CallElem(es[rng.Intn(len(es))]), cfet.Interval(m.Method, 0, vk.Node)}
				}
			}
			flows.Flows[obj.ID] = append(flows.Flows[obj.ID], pgraph.FlowTarget{Var: vk, Enc: enc})
			if _, ok := flows.Pointees[vk]; !ok {
				flows.Pointees[vk] = 1 + rng.Intn(2)
			}
		}
	}
	return flows
}
