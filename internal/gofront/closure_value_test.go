package gofront_test

import (
	"testing"

	"github.com/grapple-system/grapple/internal/gofront"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
)

// TestLiftedClosureAsValue lowers a closure bound to a variable and then used
// as a value: stored in a field, passed on, captured by another closure and
// returned. A lifted closure has no variable in the lowered program, so each
// such use must be the closure-escape havoc, not a reference to an
// undeclared name, and the program must resolve and lower.
func TestLiftedClosureAsValue(t *testing.T) {
	const src = `package p

type opts struct{ skip func(string) bool }

func use(f func(string) bool) {}

func prepare(o *opts) func(string) bool {
	drop := func(name string) bool { return name == "" }
	o.skip = drop
	use(drop)
	again := func() bool { return drop("x") }
	again()
	return drop
}
`
	res, err := gofront.LowerSource(src, allRules(t))
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	prog, err := lang.Parse(res.Source())
	if err != nil {
		t.Fatalf("lowered output does not parse: %v\n%s", err, res.Source())
	}
	info, err := lang.Resolve(prog)
	if err != nil {
		t.Fatalf("resolve: %v\n%s", err, res.Source())
	}
	if _, err := ir.Lower(info, ir.Options{}); err != nil {
		t.Fatalf("ir lower: %v", err)
	}
	if res.Stats.ByKind["closure-escape"] == 0 {
		t.Fatalf("no closure-escape havoc: %v\n%s", res.Stats.ByKind, res.Source())
	}
}
