package cfet_test

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/constraint"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/raceflag"
	"github.com/grapple-system/grapple/internal/storage"
	"github.com/grapple-system/grapple/internal/symbolic"
	"github.com/grapple-system/grapple/internal/workload"
)

// closureSubjects are the benchmark's two closure subjects
// (benchmark/workloads.go): hdfs-sim at four services of seven, and a few
// very long functions, whose encodings run to many call frames.
func closureSubjects() []workload.Profile {
	half, _ := workload.ProfileByName("hdfs-sim")
	half.Name = "hdfs-half"
	half.Services, half.ExcTP, half.ExcFP, half.SockTP = 4, 22, 2, 2
	deep := workload.Profile{
		Name: "deep-sim", Seed: 3005, Services: 2, WorkersPerService: 2,
		ExcTP: 8, SockTP: 4, CorrectPerBug: 2, FillerStmts: 6,
	}
	if raceflag.Enabled || testing.Short() {
		return []workload.Profile{half}
	}
	return []workload.Profile{half, deep}
}

// closedEncodings checks src against the built-in FSMs and returns the
// distinct path encodings of both closed graphs, with the ICFET they index
// into: built again here the way the checker builds its own, which is
// deterministic, so method, node and call-edge IDs agree.
func closedEncodings(t *testing.T, src string) (*cfet.ICFET, []cfet.Enc) {
	t.Helper()
	dir := t.TempDir()
	if _, err := checker.New(fsm.Builtins(), checker.Options{WorkDir: dir}).CheckSource(src); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*", "part-*.edges"))
	if err != nil {
		t.Fatal(err)
	}
	var encs []cfet.Enc
	seen := map[string]bool{}
	for _, p := range paths {
		if _, err := storage.VisitPart(p, func(e *storage.Edge) bool {
			if k := e.Enc.String(nil); len(e.Enc) > 0 && !seen[k] {
				seen[k] = true
				encs = append(encs, e.Enc.Clone())
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	tracked := map[string]bool{}
	for _, f := range fsm.Builtins() {
		tracked[f.Type] = true
	}
	p := lowerSource(t, src)
	ic, err := cfet.Build(p, symbolic.NewTable(), checkerOptions(t, p, tracked))
	if err != nil {
		t.Fatal(err)
	}
	return ic, encs
}

func cloneConj(c constraint.Conj) constraint.Conj {
	out := make(constraint.Conj, len(c))
	for i, a := range c {
		out[i] = constraint.Atom{LHS: symbolic.Expr{Terms: slices.Clone(a.LHS.Terms), Const: a.LHS.Const}, Op: a.Op}
	}
	return out
}

func sameConj(a, b constraint.Conj) bool {
	return slices.EqualFunc(a, b, func(x, y constraint.Atom) bool { return x.Op == y.Op && x.LHS.Equal(y.LHS) })
}

// TestDecoderMatchesDecode decodes every distinct encoding of two closed
// graphs, in shuffled order, with one Decoder that keeps its scratch across
// all of them, and holds each conjunction to the reference decoder's, atom
// for atom: operator, terms, constant. Encodings that do not decode must
// fail in both. And what ICFET.Decode returns is the caller's: a thousand
// later decodes leave it as it was.
func TestDecoderMatchesDecode(t *testing.T) {
	for _, prof := range closureSubjects() {
		ic, encs := closedEncodings(t, workload.Generate(prof).Source)
		rng := rand.New(rand.NewSource(24))
		rng.Shuffle(len(encs), func(i, j int) { encs[i], encs[j] = encs[j], encs[i] })
		encs = append(encs,
			cfet.Enc{cfet.Interval(cfet.MethodID(len(ic.Methods)), 0, 1)},
			cfet.Enc{cfet.CallElem(int32(len(ic.CallEdges)))},
			cfet.Enc{cfet.RetElem(int32(len(ic.CallEdges)))},
			cfet.Enc{cfet.Interval(0, 1, 2)})

		owned, err := ic.Decode(encs[0])
		if err != nil {
			t.Fatal(err)
		}
		ownedWas := cloneConj(owned)

		d := ic.NewDecoder()
		atoms, renamed, failed := 0, 0, 0
		for i, enc := range encs {
			want, werr := ic.RefDecode(enc)
			got, gerr := d.Decode(enc)
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("%s: %v: error %v, reference %v", prof.Name, enc, gerr, werr)
			}
			if werr != nil {
				failed++
				continue
			}
			if !sameConj(got, want) {
				t.Fatalf("%s: %v decodes to\n %s\nreference\n %s", prof.Name, enc, got.String(ic.Syms), want.String(ic.Syms))
			}
			atoms += len(got)
			for _, a := range got {
				if n := len(a.LHS.Terms); n > 0 && a.LHS.Terms[n-1].Sym >= cfet.SyntheticBase {
					renamed++
				}
			}
			if i < 1000 {
				if _, err := ic.Decode(enc); err != nil {
					t.Fatal(err)
				}
			} else if i == 1000 && !sameConj(owned, ownedWas) {
				t.Fatalf("%s: a conjunction ICFET.Decode returned changed under 1000 later decodes", prof.Name)
			}
		}
		t.Logf("%s: %d encodings, %d atoms, %d over instance symbols, %d undecodable", prof.Name, len(encs), atoms, renamed, failed)
		if len(encs) < 1004 || renamed == 0 || failed == 0 {
			t.Fatalf("%s: the corpus misses a decoder path", prof.Name)
		}
	}
}
