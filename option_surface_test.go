package grapple

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/engine"
	"github.com/grapple-system/grapple/internal/gofront"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/pgraph"
	"github.com/grapple-system/grapple/internal/scheduler"
	"github.com/grapple-system/grapple/internal/smt"
	"github.com/grapple-system/grapple/internal/trace"
)

// TestOptionSurface pins the knob count: every exported field of every
// options struct, down to the per-layer ones (cfet, pgraph, smt, ir) and the
// run scope they share (trace.Scope), as "Type.Field type", sorted, against
// testdata/option_surface.txt. A new option fails here until it is banked in
// a reviewed diff (the way unlowered_budget.json banks havocs):
//
//	go test -run TestOptionSurface -update .
func TestOptionSurface(t *testing.T) {
	var lines []string
	for _, v := range []any{
		Options{}, BatchOptions{}, ObsOptions{},
		checker.Options{}, engine.Options{}, gofront.Options{}, scheduler.Options{},
		cfet.Options{}, pgraph.Options{}, smt.Options{}, ir.Options{}, trace.Scope{},
	} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				lines = append(lines, fmt.Sprintf("%s.%s %s", typ, f.Name, f.Type))
			}
		}
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "option_surface.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d options)", path, len(lines))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing option surface file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("option surface changed (%d options now); bank it with -update if intended:\n%s",
			len(lines), goldenDiff(want, []byte(got)))
	}
}
