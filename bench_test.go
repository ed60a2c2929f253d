// Benchmarks regenerating each evaluation artifact (DESIGN.md §3). Each
// table/figure has a benchmark exercising exactly the code path that
// produces it; `go run ./cmd/grapple-bench -all` prints the full tables over
// the four paper-scale subjects, while these benchmarks measure the same
// pipelines on the reduced mini-sim subject so `go test -bench=.` stays
// affordable. Ablation benchmarks cover the design choices DESIGN.md calls
// out: constraint memoization, interval encodings vs string constraints,
// loop-unroll depth, context-sensitive cloning, and the memory budget
// (out-of-core vs in-memory operation).
package grapple

import (
	"testing"
	"time"

	"github.com/grapple-system/grapple/internal/baseline"
	"github.com/grapple-system/grapple/internal/bench"
	"github.com/grapple-system/grapple/internal/callgraph"
	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/constraint"
	"github.com/grapple-system/grapple/internal/engine"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/pgraph"
	"github.com/grapple-system/grapple/internal/smt"
	"github.com/grapple-system/grapple/internal/storage"
	"github.com/grapple-system/grapple/internal/symbolic"
	"github.com/grapple-system/grapple/internal/workload"
)

const benchSubject = "mini-sim"

// BenchmarkTable1SubjectGeneration measures generating all four subjects
// (Table 1's inputs).
func BenchmarkTable1SubjectGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range workload.Profiles() {
			s := workload.Generate(p)
			if s.LoC == 0 {
				b.Fatal("empty subject")
			}
		}
	}
}

// BenchmarkTable2Checkers measures the full four-checker pipeline plus
// ground-truth evaluation (Table 2's cells).
func BenchmarkTable2Checkers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run, err := bench.RunSubject(benchSubject, bench.RunOptions{WorkDir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		if run.Tally.Totals().TP == 0 {
			b.Fatal("no bugs found")
		}
	}
}

// BenchmarkTable3Performance measures the end-to-end pipeline whose phase
// times and graph sizes fill Table 3.
func BenchmarkTable3Performance(b *testing.B) {
	p, _ := workload.ProfileByName(benchSubject)
	s := workload.Generate(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := checker.New(fsm.Builtins(), checker.Options{WorkDir: b.TempDir()})
		res, err := c.CheckSource(s.Source)
		if err != nil {
			b.Fatal(err)
		}
		if res.Dataflow.EdgesAfter == 0 {
			b.Fatal("empty closure")
		}
	}
}

// BenchmarkFigure9Breakdown measures the instrumented run that yields the
// per-component cost split.
func BenchmarkFigure9Breakdown(b *testing.B) {
	p, _ := workload.ProfileByName(benchSubject)
	s := workload.Generate(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := checker.New(fsm.Builtins(), checker.Options{WorkDir: b.TempDir()})
		res, err := c.CheckSource(s.Source)
		if err != nil {
			b.Fatal(err)
		}
		if res.Breakdown.Total() == 0 {
			b.Fatal("no breakdown recorded")
		}
	}
}

// BenchmarkTable4Caching measures the checking pipeline with and without
// constraint memoization (Table 4's TOC/TWC columns).
func BenchmarkTable4Caching(b *testing.B) {
	p, _ := workload.ProfileByName(benchSubject)
	s := workload.Generate(p)
	for _, cfg := range []struct {
		name    string
		disable bool
	}{{"WithCache", false}, {"WithoutCache", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cacheSize := 0
				if cfg.disable {
					cacheSize = -1
				}
				c := checker.New(fsm.Builtins(), checker.Options{
					WorkDir: b.TempDir(),
					Engine:  engine.Options{CacheSize: cacheSize},
				})
				if _, err := c.CheckSource(s.Source); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// aliasGraph builds the phase-1 inputs for the engine-level benchmarks.
func aliasGraph(b *testing.B) (*cfet.ICFET, *pgraph.AliasGraph) {
	b.Helper()
	p, _ := workload.ProfileByName(benchSubject)
	s := workload.Generate(p)
	prog, err := lang.Parse(s.Source)
	if err != nil {
		b.Fatal(err)
	}
	info, err := lang.Resolve(prog)
	if err != nil {
		b.Fatal(err)
	}
	irProg, err := ir.Lower(info, ir.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cg := callgraph.Build(irProg)
	ic, err := cfet.Build(irProg, symbolic.NewTable(), cfet.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pr := pgraph.NewProgram(irProg, cg, ic, pgraph.Options{})
	return ic, pgraph.BuildAlias(pr)
}

// BenchmarkTable5StringBaseline compares the interval-encoding engine with
// the naive string-constraint engine on the alias analysis (Table 5).
func BenchmarkTable5StringBaseline(b *testing.B) {
	ic, ag := aliasGraph(b)
	b.Run("GrappleEncoding", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			en := engine.New(ic, ag.Ptr.G, engine.Options{Dir: b.TempDir(), MemoryBudget: 2 << 20})
			in := append([]storage.Edge(nil), ag.Edges...)
			if _, err := en.Run(in, ag.NumVerts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("NaiveStrings", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			se := baseline.NewStringEngine(ic, ag.Ptr.G, baseline.StringOptions{
				Dir: b.TempDir(), MemoryBudget: 2 << 20, Timeout: 5 * time.Minute,
			})
			in := append([]storage.Edge(nil), ag.Edges...)
			if _, err := se.Run(in, ag.NumVerts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTraditionalOOM measures how quickly the non-systemized in-memory
// implementation exhausts the memory budget under which the disk engine
// completes (§5.3's OOM result).
func BenchmarkTraditionalOOM(b *testing.B) {
	ic, ag := aliasGraph(b)
	for i := 0; i < b.N; i++ {
		st, _ := baseline.RunTraditional(ic, ag.Ptr.G, ag.Edges, baseline.TraditionalOptions{
			MemoryBudget: 64 << 10, Timeout: time.Minute,
		})
		if !st.OOM {
			b.Fatal("expected OOM under the small budget")
		}
	}
}

// --- ablation benchmarks ---

// BenchmarkAblationUnrollDepth sweeps the static loop-unroll bound (§3.1).
func BenchmarkAblationUnrollDepth(b *testing.B) {
	p, _ := workload.ProfileByName(benchSubject)
	s := workload.Generate(p)
	for _, depth := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "U1", 2: "U2", 4: "U4"}[depth], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := checker.New(fsm.Builtins(), checker.Options{
					WorkDir: b.TempDir(), UnrollDepth: depth,
				})
				if _, err := c.CheckSource(s.Source); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationContextSensitivity compares full cloning against a
// context-insensitive configuration (every callee shared, §2.1's trade-off).
func BenchmarkAblationContextSensitivity(b *testing.B) {
	p, _ := workload.ProfileByName(benchSubject)
	s := workload.Generate(p)
	for _, cfg := range []struct {
		name        string
		maxContexts int
	}{{"FullCloning", 0}, {"ContextInsensitive", 1}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := checker.New(fsm.Builtins(), checker.Options{WorkDir: b.TempDir()})
				if cfg.maxContexts > 0 {
					c.Opts.Clone.MaxContexts = cfg.maxContexts
				}
				if _, err := c.CheckSource(s.Source); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMemoryBudget sweeps the engine budget: large budgets run
// in memory with one partition; small budgets exercise partitioning,
// repartitioning and disk traffic (§4.3).
func BenchmarkAblationMemoryBudget(b *testing.B) {
	p, _ := workload.ProfileByName(benchSubject)
	s := workload.Generate(p)
	for _, cfg := range []struct {
		name   string
		budget int64
	}{{"InMemory256MiB", 256 << 20}, {"OutOfCore1MiB", 1 << 20}, {"OutOfCore256KiB", 256 << 10}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := checker.New(fsm.Builtins(), checker.Options{
					WorkDir: b.TempDir(),
					Engine:  engine.Options{MemoryBudget: cfg.budget},
				})
				if _, err := c.CheckSource(s.Source); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- component micro-benchmarks ---

// BenchmarkPathConstraintDecode measures ICFET path decoding (Algorithm 1),
// the "constraint lookup" slice of Figure 9.
func BenchmarkPathConstraintDecode(b *testing.B) {
	ic, _ := aliasGraph(b)
	m := ic.Methods[len(ic.Methods)-1] // main
	var deepest uint64
	for id := range m.Nodes {
		if id > deepest {
			deepest = id
		}
	}
	enc := cfet.Enc{cfet.Interval(m.Method, 0, deepest)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ic.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodingMerge measures the §4.2 merge cases.
func BenchmarkEncodingMerge(b *testing.B) {
	ic := &cfet.ICFET{MaxEncLen: 64}
	e1 := cfet.Enc{cfet.Interval(0, 0, 2), cfet.CallElem(7), cfet.Interval(1, 0, 0)}
	e2 := cfet.Enc{cfet.Interval(1, 0, 5), cfet.RetElem(7), cfet.Interval(0, 2, 6)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ic.Merge(e1, e2); !ok {
			b.Fatal("merge failed")
		}
	}
}

// BenchmarkSolver measures the Fourier-Motzkin decision procedure on the
// paper's Fig. 6 constraint.
func BenchmarkSolver(b *testing.B) {
	tab := symbolic.NewTable()
	x := symbolic.Var(tab.Intern("x"))
	a := symbolic.Var(tab.Intern("a"))
	y := symbolic.Var(tab.Intern("y"))
	c := constraint.Conj{
		constraint.NewAtom(x, constraint.GT, symbolic.Const(0)),
		constraint.NewAtom(a, constraint.EQ, x.Scale(2)),
		constraint.NewAtom(a, constraint.LT, symbolic.Const(0)),
		constraint.NewAtom(y, constraint.EQ, a.Add(symbolic.Const(1))),
		constraint.NewAtom(y, constraint.GE, symbolic.Const(0)),
	}
	s := smt.New(smt.DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Solve(c) != smt.Unsat {
			b.Fatal("wrong verdict")
		}
	}
}

// BenchmarkRelCompose measures FSM transition-relation composition, the
// per-join typestate cost.
func BenchmarkRelCompose(b *testing.B) {
	f := fsm.BuiltinSocket()
	r1 := fsm.EventRel(f, "bind")
	r2 := fsm.EventRel(f, "close")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fsm.Compose(r1, r2) == (fsm.Rel{}) {
			b.Fatal("empty relation")
		}
	}
}
