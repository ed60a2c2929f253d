package analysis_test

import (
	"testing"

	"github.com/grapple-system/grapple/internal/analysis"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/workload"
)

// scanVerdict is BranchVerdict as it was before the whole-program index:
// look the If up in every function's SCCP facts in turn.
func scanVerdict(res *analysis.Result, s *ir.If) int {
	for _, facts := range res.FactsOf(analysis.SCCP) {
		sf, ok := facts.(*analysis.SCCPFacts)
		if !ok {
			continue
		}
		if v, ok := sf.Verdicts[s]; ok {
			return v
		}
	}
	return 0
}

// eachIf calls visit on every If of the block, nested ones included.
func eachIf(b *ir.Block, visit func(*ir.If)) {
	for _, s := range b.Stmts {
		if s, ok := s.(*ir.If); ok {
			visit(s)
			eachIf(s.Then, visit)
			eachIf(s.Else, visit)
		}
	}
}

// TestBranchVerdictIndexMatchesFacts: the indexed BranchVerdict answers what
// the per-function scan answered, for every If of the program, decided or
// not, on every golden subject and on wide-sim at 10×10.
func TestBranchVerdictIndexMatchesFacts(t *testing.T) {
	profiles := append(workload.Profiles(), workload.WideProfile(10, 10))
	for _, prof := range profiles {
		prog, err := lang.Parse(workload.Generate(prof).Source)
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		info, err := lang.Resolve(prog)
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		p, err := ir.Lower(info, ir.Options{UnrollDepth: 2})
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		res, err := analysis.Run(p, analysis.PruneAnalyzers())
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		ifs, decided := 0, 0
		for _, fn := range p.Funs {
			eachIf(fn.Body, func(s *ir.If) {
				ifs++
				want := scanVerdict(res, s)
				if want != 0 {
					decided++
				}
				if got := res.BranchVerdict(s); got != want {
					t.Errorf("%s: %s: if at %s: indexed verdict %d, facts say %d",
						prof.Name, fn.Name, s.Pos, got, want)
				}
			})
		}
		if int64(decided) != res.CondsDecided {
			t.Errorf("%s: %d decided Ifs found in the program, CondsDecided says %d",
				prof.Name, decided, res.CondsDecided)
		}
		t.Logf("%s: %d ifs, %d decided", prof.Name, ifs, decided)
	}
	// The zero Result has no index and knows nothing.
	if v := new(analysis.Result).BranchVerdict(&ir.If{}); v != 0 {
		t.Errorf("zero Result answered %d", v)
	}
}
