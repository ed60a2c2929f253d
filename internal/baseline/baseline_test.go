package baseline

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/grapple-system/grapple/internal/callgraph"
	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/constraint"
	"github.com/grapple-system/grapple/internal/grammar"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/pgraph"
	"github.com/grapple-system/grapple/internal/storage"
	"github.com/grapple-system/grapple/internal/symbolic"
)

func emptyICFET() *cfet.ICFET {
	return &cfet.ICFET{Syms: symbolic.NewTable(), MethodByName: map[string]cfet.MethodID{}, MaxEncLen: 64}
}

func TestMarshalRoundTrip(t *testing.T) {
	tab := symbolic.NewTable()
	x := symbolic.Var(tab.Intern("x"))
	y := symbolic.Var(tab.Intern("y"))
	cases := []constraint.Conj{
		nil,
		{constraint.NewAtom(x, constraint.GE, symbolic.Const(0))},
		{constraint.NewAtom(x.Scale(2).Sub(y), constraint.LT, symbolic.Const(-3))},
		{
			constraint.NewAtom(x, constraint.NE, symbolic.Const(0)),
			constraint.NewAtom(y.Add(x.Scale(-4)), constraint.EQ, symbolic.Const(7)),
		},
		{constraint.Atom{LHS: symbolic.Const(5), Op: constraint.LE}},
	}
	for i, c := range cases {
		text := MarshalConj(c)
		got, err := UnmarshalConj(text)
		if err != nil {
			t.Fatalf("case %d (%q): %v", i, text, err)
		}
		if len(got) != len(c) {
			t.Fatalf("case %d: %d atoms, want %d", i, len(got), len(c))
		}
		for j := range c {
			if got[j].Op != c[j].Op || !got[j].LHS.Equal(c[j].LHS) {
				t.Fatalf("case %d atom %d: got %+v want %+v", i, j, got[j], c[j])
			}
		}
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		var c constraint.Conj
		for i := 0; i < n; i++ {
			e := symbolic.Const(int64(rng.Intn(21) - 10))
			for j := 0; j < 3; j++ {
				if rng.Intn(2) == 0 {
					e = e.Add(symbolic.Var(symbolic.Sym(rng.Intn(50))).Scale(int64(rng.Intn(9) - 4)))
				}
			}
			c = append(c, constraint.Atom{LHS: e, Op: constraint.Op(rng.Intn(6))})
		}
		got, err := UnmarshalConj(MarshalConj(c))
		if err != nil || len(got) != len(c) {
			return false
		}
		for j := range c {
			if got[j].Op != c[j].Op || !got[j].LHS.Equal(c[j].LHS) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	for _, s := range []string{"garbage", "1*s", "x<=0", "1*s1??0"} {
		if _, err := UnmarshalConj(s); err == nil {
			t.Errorf("no error for %q", s)
		}
	}
}

func TestStringEngineClosureMatchesChain(t *testing.T) {
	d := grammar.NewDataflow()
	var edges []storage.Edge
	const n = 10
	for i := uint32(0); i+1 < n; i++ {
		edges = append(edges, storage.Edge{Src: i, Dst: i + 1, Label: d.Step})
	}
	se := NewStringEngine(emptyICFET(), d.G, StringOptions{Dir: t.TempDir()})
	st, err := se.Run(edges, n)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(n * (n - 1) / 2)
	if st.EdgesAfter != want {
		t.Fatalf("closure = %d edges, want %d", st.EdgesAfter, want)
	}
	if st.Iterations == 0 {
		t.Fatal("no iterations recorded")
	}
}

func TestStringEngineSmallBudgetSplits(t *testing.T) {
	d := grammar.NewDataflow()
	var edges []storage.Edge
	const n = 48
	for i := uint32(0); i+1 < n; i++ {
		edges = append(edges, storage.Edge{Src: i, Dst: i + 1, Label: d.Step})
	}
	se := NewStringEngine(emptyICFET(), d.G, StringOptions{Dir: t.TempDir(), MemoryBudget: 4096})
	st, err := se.Run(edges, n)
	if err != nil {
		t.Fatal(err)
	}
	if st.Partitions < 2 {
		t.Fatalf("expected multiple partitions, got %d", st.Partitions)
	}
	if st.EdgesAfter != int64(n*(n-1)/2) {
		t.Fatalf("closure wrong across partitions: %d", st.EdgesAfter)
	}
}

func TestStringEngineTimeout(t *testing.T) {
	d := grammar.NewDataflow()
	var edges []storage.Edge
	const n = 200
	for i := uint32(0); i+1 < n; i++ {
		edges = append(edges, storage.Edge{Src: i, Dst: i + 1, Label: d.Step})
	}
	se := NewStringEngine(emptyICFET(), d.G, StringOptions{Dir: t.TempDir(), Timeout: time.Nanosecond})
	st, err := se.Run(edges, n)
	if err != nil {
		t.Fatal(err)
	}
	if !st.TimedOut {
		t.Fatal("expected timeout flag")
	}
}

func aliasGraphOf(t *testing.T, src string) (*cfet.ICFET, *pgraph.AliasGraph) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := lang.Resolve(prog)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Lower(info, ir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cg := callgraph.Build(p)
	ic, err := cfet.Build(p, symbolic.NewTable(), cfet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pr := pgraph.NewProgram(p, cg, ic, pgraph.Options{})
	return ic, pgraph.BuildAlias(pr)
}

const branchy = `
type R;
fun main() {
  var x: int = input();
  var a: R = new R();
  var b: R = a;
  var c: R = null;
  if (x > 0) {
    c = b;
  } else {
    c = a;
  }
  if (x > 1) {
    var d: R = c;
    d.use();
  }
  return;
}`

func TestTraditionalCompletesOnTinyProgram(t *testing.T) {
	ic, ag := aliasGraphOf(t, branchy)
	st, err := RunTraditional(ic, ag.Ptr.G, ag.Edges, TraditionalOptions{MemoryBudget: 32 << 20})
	if err != nil {
		t.Fatalf("tiny program should fit: %v (peak %d)", err, st.PeakBytes)
	}
	if st.Edges == 0 || st.PeakBytes == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
}

func TestTraditionalOOMsUnderBudget(t *testing.T) {
	ic, ag := aliasGraphOf(t, branchy)
	st, err := RunTraditional(ic, ag.Ptr.G, ag.Edges, TraditionalOptions{MemoryBudget: 512})
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("want OOM, got %v (%+v)", err, st)
	}
	if !st.OOM {
		t.Fatal("OOM flag not set")
	}
}

func TestTraditionalTimeout(t *testing.T) {
	ic, ag := aliasGraphOf(t, branchy)
	_, err := RunTraditional(ic, ag.Ptr.G, ag.Edges, TraditionalOptions{
		MemoryBudget: 1 << 30, Timeout: time.Nanosecond,
	})
	if err != nil && !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("unexpected error %v", err)
	}
}
