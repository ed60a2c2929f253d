package main

import (
	"fmt"
	"os"
	"time"

	grapple "github.com/grapple-system/grapple"
	"github.com/grapple-system/grapple/internal/analysis"
	"github.com/grapple-system/grapple/internal/callgraph"
	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/pgraph"
	"github.com/grapple-system/grapple/internal/symbolic"
)

// lowered is one source driven through the frontend's unspanned layers, one
// public entry point at a time, in the order checker.PrepareSource does.
// The program has no spans around lex/parse/resolve, lowering or call-graph
// construction, so the harness times those calls itself (the O metrics).
type lowered struct {
	p  *ir.Program
	cg *callgraph.Graph

	parseResolveS, lowerS, callgraphS float64
}

// lowerSource runs parse, resolve, lowering (the checker's default unroll
// depth 2) and call-graph construction over one source.
func lowerSource(source string) (*lowered, error) {
	l := &lowered{}
	start := time.Now()
	prog, err := lang.Parse(source)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	info, err := lang.Resolve(prog)
	if err != nil {
		return nil, fmt.Errorf("resolve: %w", err)
	}
	l.parseResolveS = time.Since(start).Seconds()

	start = time.Now()
	l.p, err = ir.Lower(info, ir.Options{UnrollDepth: 2})
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	l.lowerS = time.Since(start).Seconds()

	start = time.Now()
	l.cg = callgraph.Build(l.p)
	l.callgraphS = time.Since(start).Seconds()
	return l, nil
}

// buildICFET finishes the frontend as checker.PrepareIR does with its
// defaults (pruning on, slicing on for the given FSMs) and returns the ICFET
// and alias graph. The construction is deterministic, so method, node and
// call-edge IDs equal those of a Check of the same source: the probes decode
// edges harvested from such a Check against them.
func buildICFET(l *lowered, fsms []*grapple.FSM) (*cfet.ICFET, *pgraph.AliasGraph, error) {
	pre, err := analysis.Run(l.p, analysis.PruneAnalyzers())
	if err != nil {
		return nil, nil, fmt.Errorf("pre-analysis: %w", err)
	}
	tracked := map[string]bool{}
	for _, fsm := range fsms {
		tracked[fsm.Type()] = true
	}
	rel := analysis.ComputeRelevance(l.p, l.cg, analysis.SolvePointsTo(l.p, l.cg), tracked)
	drop := func(name string) bool { return !rel.KeepFunc(name) }
	ic, err := cfet.Build(l.p, symbolic.NewTable(), cfet.Options{
		BranchVerdict: pre.BranchVerdict, SliceFunc: drop, SliceBranch: rel.InertBranch,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("icfet: %w", err)
	}
	return ic, pgraph.BuildAlias(pgraph.NewProgram(l.p, l.cg, ic, pgraph.Options{Skip: drop})), nil
}

// stagedMetrics times the unspanned frontend layers over every subject of a
// workload, summed over subjects.
func stagedMetrics(inputs []inputFile) (metrics, error) {
	var parse, lower, cg float64
	loc := 0
	for _, in := range inputs {
		src, err := os.ReadFile(in.Source)
		if err != nil {
			return nil, err
		}
		l, err := lowerSource(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.Name, err)
		}
		parse += l.parseResolveS
		lower += l.lowerS
		cg += l.callgraphS
		loc += in.LoC
	}
	m := metrics{}
	m.set("lang.parse_resolve_s", parse, "s")
	m.set("lang.loc_per_s", ratio(float64(loc), parse), "1/s")
	m.set("ir.lower_s", lower, "s")
	m.set("callgraph.build_s", cg, "s")
	return m, nil
}
