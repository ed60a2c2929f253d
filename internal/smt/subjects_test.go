package smt_test

import (
	"encoding/binary"
	"testing"

	"github.com/grapple-system/grapple/internal/analysis"
	"github.com/grapple-system/grapple/internal/callgraph"
	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/raceflag"
	"github.com/grapple-system/grapple/internal/smt"
	"github.com/grapple-system/grapple/internal/symbolic"
	"github.com/grapple-system/grapple/internal/workload"
)

// closureSubjects are the benchmark's two closure subjects
// (benchmark/workloads.go): hdfs-sim at four services of seven, and a few
// very long functions, whose long path conditions miss the cache most.
func closureSubjects() []workload.Profile {
	half, _ := workload.ProfileByName("hdfs-sim")
	half.Name = "hdfs-half"
	half.Services, half.ExcTP, half.ExcFP, half.SockTP = 4, 22, 2, 2
	deep := workload.Profile{
		Name: "deep-sim", Seed: 3005, Services: 2, WorkersPerService: 2,
		ExcTP: 8, SockTP: 4, CorrectPerBug: 2, FillerStmts: 6,
	}
	if raceflag.Enabled || testing.Short() {
		return []workload.Profile{half}
	}
	return []workload.Profile{half, deep}
}

// buildICFET builds src's ICFET the way checker.PrepareIR does by default
// (SCCP verdicts, the relevance slice for the built-in FSMs). The
// construction is deterministic, so the encodings of a check of src index
// into it.
func buildICFET(t *testing.T, src string) *cfet.ICFET {
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
	pre, err := analysis.Run(p, analysis.PruneAnalyzers())
	if err != nil {
		t.Fatal(err)
	}
	tracked := map[string]bool{}
	for _, f := range fsm.Builtins() {
		tracked[f.Type] = true
	}
	cg := callgraph.Build(p)
	rel := analysis.ComputeRelevance(p, cg, analysis.SolvePointsTo(p, cg), tracked)
	ic, err := cfet.Build(p, symbolic.NewTable(), cfet.Options{
		BranchVerdict: pre.BranchVerdict,
		SliceFunc:     func(name string) bool { return !rel.KeepFunc(name) },
		SliceBranch:   rel.InertBranch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ic
}

// encOfKey reads a path encoding back out of the key the engine memoizes its
// verdict under (engine.appendEncCacheKey): per element
// the kind, then method, start and end of an interval or the call edge.
func encOfKey(t *testing.T, key string) cfet.Enc {
	t.Helper()
	b := []byte(key)
	uvarint := func() uint64 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			t.Fatalf("malformed cache key %q", key)
		}
		b = b[n:]
		return v
	}
	var enc cfet.Enc
	for len(b) > 0 {
		kind := cfet.ElemKind(b[0])
		b = b[1:]
		switch kind {
		case cfet.KInterval:
			m, start, end := uvarint(), uvarint(), uvarint()
			enc = append(enc, cfet.Interval(cfet.MethodID(m), start, end))
		case cfet.KCall:
			enc = append(enc, cfet.CallElem(int32(uvarint())))
		case cfet.KRet:
			enc = append(enc, cfet.RetElem(int32(uvarint())))
		default:
			t.Fatalf("malformed cache key %q", key)
		}
	}
	return enc
}

// TestSolverMatchesReferenceOnSubjects runs a real check of each closure
// subject with a constraint cache of the test's own (the check's
// Options.Cache, which replaces the memo it would create for the compilation
// unit) large enough to evict nothing, so that afterwards it holds every path
// both phases' join workers decoded and solved, with the verdict they
// recorded. Each is decoded again and decided by one reused Solver and by the
// reference: the three verdicts must agree, and the two solvers' counters.
func TestSolverMatchesReferenceOnSubjects(t *testing.T) {
	for _, prof := range closureSubjects() {
		src := workload.Generate(prof).Source
		cache := smt.NewCache(1 << 22)
		opts := checker.Options{WorkDir: t.TempDir(), Cache: cache}
		if _, err := checker.New(fsm.Builtins(), opts).CheckSource(src); err != nil {
			t.Fatal(err)
		}
		ic := buildICFET(t, src)
		d := smt.NewDiffer(smt.DefaultOptions())
		dec := ic.NewDecoder()
		solved, verdicts := 0, map[smt.Result]int{}
		cache.Each(func(key string, recorded smt.Result) {
			conj, err := dec.Decode(encOfKey(t, key))
			want := smt.Sat // what the engine records without solving
			if err == nil && len(conj) > 0 {
				want = d.Solve(t, conj)
				solved++
			}
			if recorded != want {
				t.Fatalf("%s: the check recorded %v for %q, the reference decides %v", prof.Name, recorded, key, want)
			}
			verdicts[want]++
		})
		d.CheckCounters(t)
		t.Logf("%s: %d cached paths, %d solved: %v", prof.Name, cache.Len(), solved, verdicts)
		if solved < 1000 || verdicts[smt.Unsat] == 0 {
			t.Fatalf("%s: the cache does not hold what the check solved", prof.Name)
		}
	}
}
