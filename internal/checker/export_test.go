package checker

import (
	"context"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/engine"
	"github.com/grapple-system/grapple/internal/grammar"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/pgraph"
	"github.com/grapple-system/grapple/internal/smt"
	"github.com/grapple-system/grapple/internal/storage"
)

// JoinInputs exposes what an external test needs to replay the engine's
// join over a prepared subject's closed graphs: the ICFET its encodings
// index into and the alias-phase grammar.
func (p *Prepared) JoinInputs() (*cfet.ICFET, *grammar.Grammar) {
	return p.ic, p.ag.Ptr.G
}

// WithCFET returns o with the CFET construction options set: a node budget,
// or the seams a reference run replaces the pre-analysis and the slicer with
// (see Options.cfet).
func WithCFET(o Options, co cfet.Options) Options {
	o.cfet = co
	return o
}

// WithMaxVariants returns o with the engines' per-endpoint variant cap set;
// zero is the engine's default.
func WithMaxVariants(o Options, n int) Options {
	o.maxVariants = n
	return o
}

// LowerSource runs the frontend's parse, resolve and lowering as
// CheckSource does, on the checker's workers.
func (c *Checker) LowerSource(src string) (*ir.Program, error) { return c.lowerSource(src) }

// ForGo is c as CheckGo checks a Go unit with it.
func (c *Checker) ForGo() *Checker { return c.forGo() }

// ResolveLower runs the frontend's resolve and lowering over a parsed unit,
// as CheckGo does.
func (c *Checker) ResolveLower(prog *lang.Program) (*ir.Program, error) { return c.resolveLower(prog) }

// TrackedTypes is the object types the relevance slice tracks for c's FSMs.
func (c *Checker) TrackedTypes() map[string]bool { return c.trackedTypes() }

// RenderReports serializes every report field, as renderReports does.
func RenderReports(rs []Report) string { return renderReports(rs) }

// Memo is the compilation unit's constraint memo, which both closure phases
// probe; nil when prepared under DisableConstraintCache.
func (p *Prepared) Memo() *smt.Cache { return p.memo }

// BuildDataflow builds the subject's dataflow graph for c's FSMs from the
// flows its alias closure produced, as CheckPrepared does.
func (p *Prepared) BuildDataflow(c *Checker) *pgraph.DataflowGraph {
	return pgraph.BuildDataflow(p.pr, p.flows, p.ag, c.fsmFor)
}

// OnClosedGraph has f called once per closure phase with the phase's name and
// the engine's ForEach, after the phase's consumer has read the closed graph and
// before a named WorkDir is written: f sees the graph exactly as the checker
// was handed it.
func (c *Checker) OnClosedGraph(f func(phase string, forEach func(func(*storage.Edge) bool) error)) {
	c.closed = func(ph phase, en *engine.Engine) { f(ph.name, en.ForEach) }
}

// CheckSourceAllPairs is CheckSource with the dataflow phase closed under the
// grammar grammar.NewDataflow replaced: flow ::= flow flow over base edges that
// carry flow themselves. It is the oracle TestLinearClosureEqualsAllPairs holds
// the left-linear closure to. Frontend, alias phase, dataflow graph, engine and
// FSM check are the production ones; only the grammar the engine closes under,
// and with it the label of the base edges, differs. Options.WorkDir must be
// set. The Result carries the reports and both phases' statistics.
func (c *Checker) CheckSourceAllPairs(src string) (*Result, error) {
	ctx := context.Background()
	prep, err := c.PrepareSource(ctx, src)
	if err != nil {
		return nil, err
	}
	dg := pgraph.BuildDataflow(prep.pr, prep.flows, prep.ag, c.fsmFor)
	g := grammar.New()
	flow := g.Intern("flow")
	g.AddBinary(flow, flow, flow)
	g.SetFinal(flow)
	dg.D = &grammar.Dataflow{G: g, Step: flow, Flow: flow}
	for i := range dg.Edges {
		dg.Edges[i].Label = flow
	}
	en, dataflow, err := c.runPhase(ctx, dataflowPhase, c.Opts.WorkDir, prep, g, dg.Edges, dg.NumVerts)
	if err != nil {
		return nil, err
	}
	reports, err := checkTyped(en, dg, prep.ic, prep.escaped)
	if err != nil {
		return nil, err
	}
	if err := c.finishPhase(dataflowPhase, en, &dataflow); err != nil {
		return nil, err
	}
	return &Result{Reports: reports, Alias: prep.alias, Dataflow: dataflow}, nil
}
