package lang_test

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/workload"
)

// frontend is what parse, resolve and lowering make of a unit: the IR text
// of every function, the three site tables and the object types.
type frontend struct {
	text        string
	allocPos    []lang.Pos
	allocType   []string
	callPos     []lang.Pos
	objectTypes []string
}

func lowerText(p *ir.Program) frontend {
	var b strings.Builder
	for _, fn := range p.Funs {
		b.WriteString(ir.Dump(fn))
	}
	var types []string
	for t := range p.ObjectTypes {
		types = append(types, t)
	}
	slices.Sort(types)
	return frontend{
		text:     b.String(),
		allocPos: p.AllocSitePos, allocType: p.AllocSiteType, callPos: p.CallSitePos,
		objectTypes: types,
	}
}

func (f frontend) equal(g frontend) bool {
	return f.text == g.text && slices.Equal(f.allocPos, g.allocPos) && slices.Equal(f.allocType, g.allocType) &&
		slices.Equal(f.callPos, g.callPos) && slices.Equal(f.objectTypes, g.objectTypes)
}

// opaqueUnit is a unit in which every function holds lowering's opaque
// conditions (an object compared with null, a bool with a bool), an
// allocation and a call to a function that may throw, so that every part
// of it has nonzero bases of every kind. The generated subjects have no
// opaque condition before exception expansion.
func opaqueUnit() string {
	var b strings.Builder
	b.WriteString("type T;\nfun thrower(n: int) {\n  if (n > 0) {\n    var e: Exception = new Exception();\n    throw e;\n  }\n  return;\n}\n")
	for i := range 6 {
		fmt.Fprintf(&b, "fun f%d(x: T) {\n  var y: T = new T();\n  var b: bool = x == null;\n", i)
		fmt.Fprintf(&b, "  if (x != null && b == b) {\n    y.close();\n  }\n  thrower(%d);\n  return;\n}\n", i)
	}
	return b.String()
}

// TestTinyPartsLowerLikeOneUnit: a unit cut at every top-level
// declaration, at most one function a part, and resolved and lowered on
// four goroutines gives the serial frontend's IR, site numbers, site
// tables and object types, and both parses count the unit's lines. The units are every generated subject and
// opaqueUnit. Production parts hold a whole closure subject; this is the
// link's test with the most parts and the most nonzero bases.
func TestTinyPartsLowerLikeOneUnit(t *testing.T) {
	units := map[string]string{"opaque": opaqueUnit()}
	for _, p := range append(workload.Profiles(), workload.MiniProfile(), workload.ConcurrencyProfile(), workload.WideProfile(10, 10)) {
		units[p.Name] = workload.Generate(p).Source
	}
	for name, src := range units {
		prog, lines, err := lang.ParseParallel(src, 1)
		if err != nil {
			t.Fatal(err)
		}
		info, err := lang.Resolve(prog)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := ir.Lower(info, ir.Options{})
		if err != nil {
			t.Fatal(err)
		}

		cut, cutLines, err := lang.ParseTinyParts(src)
		if err != nil {
			t.Fatal(err)
		}
		if want := strings.Count(src, "\n"); lines != want || cutLines != want {
			t.Errorf("%s: %d lines counted by the lexer, %d by the prescan, want %d", name, lines, cutLines, want)
		}
		if cut.NumParts() < len(cut.Funs) {
			t.Fatalf("%s: %d parts for %d functions, want one part per declaration", name, cut.NumParts(), len(cut.Funs))
		}
		info, err = lang.ResolveParallel(cut, 4)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := ir.LowerKept(info, ir.Options{}, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !lowerText(parallel).equal(lowerText(serial)) {
			t.Errorf("%s: lowering %d parts on four goroutines differs from lowering one", name, cut.NumParts())
		}
		if parallel.NumAllocSites != serial.NumAllocSites || parallel.NumCallSites != serial.NumCallSites {
			t.Errorf("%s: %d allocation and %d call sites, want %d and %d", name,
				parallel.NumAllocSites, parallel.NumCallSites, serial.NumAllocSites, serial.NumCallSites)
		}
	}
}

// TestPartsReportTheFirstError: with errors in several parts, resolving on
// four goroutines reports the error of the first function that fails, as
// Resolve does.
func TestPartsReportTheFirstError(t *testing.T) {
	var b strings.Builder
	for i := range 12 {
		switch i {
		case 3, 7, 10:
			fmt.Fprintf(&b, "fun f%d() { x = %d; }\n", i, i)
		default:
			fmt.Fprintf(&b, "fun f%d() { var x: int = %d; }\n", i, i)
		}
	}
	src := b.String()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, want := lang.Resolve(prog)
	if want == nil {
		t.Fatal("Resolve accepted the program")
	}
	cut, _, err := lang.ParseTinyParts(src)
	if err != nil {
		t.Fatal(err)
	}
	for range 20 {
		if _, err := lang.ResolveParallel(cut, 4); err == nil || err.Error() != want.Error() {
			t.Fatalf("resolving in parts: %v, want %v", err, want)
		}
	}
}

// TestParseParallelLeavesNoGoroutine: ParseParallel returns only once every
// goroutine it started has ended, whether the parts parse, one of them
// fails (a lexical error, a syntax error, each in the first or the last
// part) or the join does (a function declared in two parts).
func TestParseParallelLeavesNoGoroutine(t *testing.T) {
	src := workload.Generate(workload.WideProfile(10, 10)).Source
	if cut, _, err := lang.ParseParallel(src, 2); err != nil || cut.NumParts() < 2 {
		t.Fatalf("wide-sim 10×10 parses into %v parts, error %v; want two or more", cut, err)
	}
	units := []struct {
		name, src string
		fails     bool
	}{
		{"parts parse", src, false},
		{"lexical error in the first part", "@\n" + src, true},
		{"lexical error in the last part", src + "fun bad() { x = #; }\n", true},
		{"syntax error in the first part", "fun bad( {\n" + src, true},
		{"syntax error in the last part", src + "fun bad( {\n", true},
		{"function declared in two parts", src + src, true},
	}
	for _, u := range units {
		before := runtime.NumGoroutine()
		_, _, err := lang.ParseParallel(u.src, 4)
		if (err != nil) != u.fails {
			t.Fatalf("%s: ParseParallel returned %v", u.name, err)
		}
		// A goroutine that has signalled the wait group may not have exited
		// yet; one that leaked never does.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Errorf("%s: %d goroutines after ParseParallel, %d before", u.name, got, before)
		}
	}
}
