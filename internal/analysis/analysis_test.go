package analysis

import (
	"strings"
	"testing"

	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
)

func lower(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := lang.Resolve(prog)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	p, err := ir.Lower(info, ir.Options{})
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p
}

func lint(t *testing.T, src string) []Diagnostic {
	t.Helper()
	res, err := Run(lower(t, src), Default())
	if err != nil {
		t.Fatalf("analysis: %v", err)
	}
	return res.Diagnostics
}

// codes extracts just the diagnostic codes, in report order.
func codes(diags []Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, d.Code)
	}
	return out
}

func TestAnalyzers(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string // expected codes in order; nil = clean
	}{
		{
			name: "clean straight line",
			src: `
fun main() {
  var x: int = input();
  var y: int = x + 2;
  if (y > 0) {
    return;
  }
  return;
}`,
		},
		{
			name: "use before init int",
			src: `
fun main() {
  var z: int = input();
  var x: int;
  var y: int = x + 1;
  if (y > z) {
    return;
  }
  return;
}`,
			want: []string{"RD001"},
		},
		{
			name: "init on one path only is not definite",
			src: `
fun main() {
  var c: int = input();
  var x: int;
  if (c > 0) {
    x = 1;
  }
  if (c > 0) {
    if (x > c) {
      return;
    }
  }
  return;
}`,
			want: nil,
		},
		{
			name: "dead store simple",
			src: `
fun main() {
  var c: int = input();
  var x: int = c + 1;
  var y: int = x + 1;
  x = 7;
  if (y > c) {
    return;
  }
  return;
}`,
			want: []string{"DS001"},
		},
		{
			name: "loop counter update is not a dead store",
			src: `
fun main() {
  var n: int = input();
  var i: int = 0;
  var acc: int = 0;
  while (i < n) {
    acc = acc + i;
    i = i + 1;
  }
  if (acc > n) {
    return;
  }
  return;
}`,
			want: nil,
		},
		{
			name: "store dead on both branch arms",
			src: `
fun main() {
  var c: int = input();
  var x: int = 0;
  if (c > 0) {
    x = 1;
  } else {
    x = 2;
  }
  x = 9;
  if (x > c) {
    return;
  }
  return;
}`,
			// x=0, x=1 and x=2 are all overwritten by x=9 before any read.
			want: []string{"DS001", "DS001", "DS001"},
		},
		{
			name: "constant condition always true",
			src: `
fun main() {
  var c: int = input();
  var x: int = 3;
  if (x > 1) {
    c = c + 1;
  }
  if (c > 0) {
    return;
  }
  return;
}`,
			want: []string{"CF001"},
		},
		{
			name: "constant condition always false",
			src: `
fun main() {
  var c: int = input();
  var x: int = 1;
  var y: int = x - 1;
  if (y > 0) {
    c = c + 5;
  }
  if (c > 0) {
    return;
  }
  return;
}`,
			want: []string{"CF002"},
		},
		{
			name: "input keeps condition undecided",
			src: `
fun main() {
  var x: int = input();
  if (x > 1) {
    x = x - 1;
  }
  if (x > 0) {
    return;
  }
  return;
}`,
			want: nil,
		},
		{
			name: "join of unequal constants loses constness",
			src: `
fun main() {
  var c: int = input();
  var x: int = 0;
  if (c > 0) {
    x = 1;
  } else {
    x = 2;
  }
  if (x > 0) {
    return;
  }
  return;
}`,
			// x>0 happens to hold on both arms but x is not one constant; the
			// must-constant lattice stays silent. x=0 is a dead store.
			want: []string{"DS001"},
		},
		{
			name: "sccp tracks through arithmetic and bools",
			src: `
fun main() {
  var c: int = input();
  var a: int = 2;
  var b: int = a * 3;
  var ok: bool = b == 6;
  if (ok) {
    c = c + b;
  }
  if (c > 0) {
    return;
  }
  return;
}`,
			want: []string{"CF001"},
		},
		{
			name: "non-constant conditions stay clean",
			src: `
fun main() {
  var x: int = input();
  var z: int = 0;
  if (x > 0) {
    z = 1;
  }
  if (z == 5) {
    if (x > 7) {
      z = 2;
    }
  }
  if (z > x) {
    return;
  }
  return;
}`,
			// z is in {0,1} at the join, so z==5 is not decided by the
			// must-constant lattice even though it can never hold.
			want: nil,
		},
		{
			name: "unused allocation",
			src: `
type FileWriter;
fun main() {
  var w: FileWriter = new FileWriter();
  var x: int = input();
  if (x > 0) {
    return;
  }
  return;
}`,
			want: []string{"UA001"},
		},
		{
			name: "allocation used via event is not reported",
			src: `
type FileWriter;
fun main() {
  var w: FileWriter = new FileWriter();
  w.close();
  return;
}`,
			want: nil,
		},
		{
			name: "allocation escaping via call is not reported",
			src: `
type FileWriter;
fun use(w: FileWriter) {
  w.close();
  return;
}
fun main() {
  var w: FileWriter = new FileWriter();
  use(w);
  return;
}`,
			want: nil,
		},
		{
			name: "allocation escaping via return is not reported",
			src: `
type FileWriter;
fun make(): FileWriter {
  var w: FileWriter = new FileWriter();
  return w;
}
fun main() {
  var w: FileWriter = make();
  w.close();
  return;
}`,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := lint(t, tc.src)
			if !eqCodes(codes(got), tc.want) {
				t.Fatalf("diagnostics:\n%s\nwant codes %v", renderDiags(got), tc.want)
			}
		})
	}
}

func eqCodes(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func renderDiags(diags []Diagnostic) string {
	if len(diags) == 0 {
		return "  (none)"
	}
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString("  " + d.String() + "\n")
	}
	return sb.String()
}

func TestSCCPVerdictKeysAreIfPointers(t *testing.T) {
	p := lower(t, `
fun main() {
  var c: int = input();
  var x: int = 3;
  if (x > 1) {
    c = c + 1;
  }
  if (c > 0) {
    return;
  }
  return;
}`)
	res, err := Run(p, PruneAnalyzers())
	if err != nil {
		t.Fatalf("analysis: %v", err)
	}
	if res.CondsDecided != 1 {
		t.Fatalf("CondsDecided = %d, want 1", res.CondsDecided)
	}
	found := 0
	for _, fn := range p.Funs {
		var walk func(b *ir.Block)
		walk = func(b *ir.Block) {
			for _, s := range b.Stmts {
				if iff, ok := s.(*ir.If); ok {
					if v := res.BranchVerdict(iff); v != 0 {
						found++
						if v != 1 {
							t.Fatalf("verdict for x>1 = %d, want +1", v)
						}
					}
					walk(iff.Then)
					walk(iff.Else)
				}
			}
		}
		walk(fn.Body)
	}
	if found != 1 {
		t.Fatalf("decided If nodes found in IR walk = %d, want 1", found)
	}
}

func TestEliminateDeadStores(t *testing.T) {
	p := lower(t, `
fun main() {
  var c: int = input();
  var x: int = c + 1;
  var y: int = x + 1;
  x = 7;
  if (y > c) {
    return;
  }
  return;
}`)
	removed, err := EliminateDeadStores(p)
	if err != nil {
		t.Fatalf("eliminate: %v", err)
	}
	if removed != 1 {
		t.Fatalf("removed = %d, want 1 (the x=7 store)", removed)
	}
	// After elimination the program must lint clean.
	res, err := Run(p, Default())
	if err != nil {
		t.Fatalf("analysis: %v", err)
	}
	if len(res.Diagnostics) != 0 {
		t.Fatalf("post-elimination diagnostics:\n%s", renderDiags(res.Diagnostics))
	}
}

func TestRunDependencyOrderAndMissingDep(t *testing.T) {
	// Unreachable requires SCCP; Run must pull it in transitively.
	p := lower(t, `
fun main() {
  var c: int = input();
  var x: int = 3;
  if (x > 1) {
    c = c + 1;
  }
  if (c > 0) {
    return;
  }
  return;
}`)
	res, err := Run(p, []*Analyzer{Unreachable})
	if err != nil {
		t.Fatalf("analysis: %v", err)
	}
	if got := codes(res.Diagnostics); !eqCodes(got, []string{"CF001"}) {
		t.Fatalf("codes = %v, want [CF001]", got)
	}
	// An undeclared dependency must panic (it is a bug in the pass).
	bad := &Analyzer{
		Name: "bad",
		Run: func(p *Pass) (any, error) {
			defer func() {
				if recover() == nil {
					t.Error("ResultOf on undeclared dep did not panic")
				}
			}()
			p.ResultOf(SCCP)
			return nil, nil
		},
	}
	if _, err := Run(p, []*Analyzer{bad}); err != nil {
		t.Fatalf("bad analyzer run: %v", err)
	}
}
