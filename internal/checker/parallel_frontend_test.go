package checker_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/workload"
)

// TestParallelFrontendMatchesSerial: the frontend on 1, 2 and 4 workers
// lowers wide-sim at 10×10 (279 KB, cut into two parts) and the four paper
// subjects (one part each) to the same IR text, with the same allocation
// site, allocation type and call site tables, and the check built on it
// reports the same.
func TestParallelFrontendMatchesSerial(t *testing.T) {
	profiles := append([]workload.Profile{workload.WideProfile(10, 10)}, workload.Profiles()...)
	for _, prof := range profiles {
		t.Run(prof.Name, func(t *testing.T) {
			src := workload.Generate(prof).Source
			if prof.Name == "wide-sim" {
				if prog, _, err := lang.ParseParallel(src, 2); err != nil || prog.NumParts() < 2 {
					t.Fatalf("wide-sim was not cut (%v): the test would hold nothing to the serial frontend", err)
				}
			}
			var base, baseReports string
			var baseProg *ir.Program
			for _, workers := range []int{1, 2, 4} {
				c := checker.New(fsm.Builtins(), checker.Options{Workers: workers})
				p, err := c.LowerSource(src)
				if err != nil {
					t.Fatal(err)
				}
				var text strings.Builder
				for _, fn := range p.Funs {
					text.WriteString(ir.Dump(fn))
				}
				res, err := c.CheckIR(context.Background(), p, src)
				if err != nil {
					t.Fatal(err)
				}
				reports := checker.RenderReports(res.Reports)
				if baseProg == nil {
					base, baseReports, baseProg = text.String(), reports, p
					continue
				}
				if text.String() != base {
					t.Errorf("%d workers: the IR differs from one worker's", workers)
				}
				if !slices.Equal(p.AllocSitePos, baseProg.AllocSitePos) || !slices.Equal(p.AllocSiteType, baseProg.AllocSiteType) ||
					!slices.Equal(p.CallSitePos, baseProg.CallSitePos) {
					t.Errorf("%d workers: the site tables differ from one worker's", workers)
				}
				if reports != baseReports {
					t.Errorf("%d workers: the reports differ from one worker's", workers)
				}
			}
		})
	}
}
