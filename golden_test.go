package grapple

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/grapple-system/grapple/internal/fsm/packs"
	"github.com/grapple-system/grapple/internal/gofront"
	"github.com/grapple-system/grapple/internal/workload"
)

// The golden-report regression corpus: for every workload profile the full
// batch pipeline (per-property instances, shared constraint cache, merged
// stream) must reproduce testdata/golden/<profile>.json byte for byte.
// Regenerate with:
//
//	go test -run TestGoldenReports -update ./...
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden corpus")

// goldenReport is the canonical serialization. It includes the witness and
// its path constraint on purpose: both are deterministic functions of the
// (seeded) subject source, so a change here means the analysis changed, not
// just the formatting.
type goldenReport struct {
	Subject           string   `json:"subject"`
	Group             string   `json:"group"`
	Line              int      `json:"line"`
	Col               int      `json:"col"`
	FSM               string   `json:"fsm"`
	Kind              string   `json:"kind"`
	Type              string   `json:"type"`
	States            []string `json:"states"`
	Object            string   `json:"object,omitempty"`
	Witness           string   `json:"witness,omitempty"`
	WitnessConstraint string   `json:"witnessConstraint,omitempty"`
}

func goldenBytes(t *testing.T, reports []BatchReport) []byte {
	t.Helper()
	out := make([]goldenReport, 0, len(reports))
	for _, r := range reports {
		out = append(out, goldenReport{
			Subject: r.Subject, Group: r.Group,
			Line: r.Pos.Line, Col: r.Pos.Col,
			FSM: r.FSM, Kind: r.Kind.String(), Type: r.Type,
			States: r.States, Object: r.Object,
			Witness: r.Witness, WitnessConstraint: r.WitnessConstraint,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

func TestGoldenReports(t *testing.T) {
	profiles := workload.Profiles()
	if testing.Short() {
		profiles = profiles[:1]
	}
	for _, p := range profiles {
		t.Run(p.Name, func(t *testing.T) {
			s := workload.Generate(p)
			res, err := CheckAll(
				[]Subject{{Name: s.Name, Source: s.Source}},
				BuiltinCheckers(),
				BatchOptions{Options: Options{WorkDir: t.TempDir()}},
			)
			if err != nil {
				t.Fatal(err)
			}
			if failed := res.Failed(); len(failed) != 0 {
				t.Fatalf("failed instances: %+v", failed)
			}
			got := goldenBytes(t, res.Reports)

			path := filepath.Join("testdata", "golden", p.Name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d reports)", path, bytes.Count(got, []byte("\n  {")))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal(goldenDiff(want, got))
			}
		})
	}
}

// TestGoldenGoReports pins the real-Go self-check: lowering
// internal/storage through the gofront bridge and running the file-handle
// pack must reproduce testdata/golden/go-storage.json byte for byte, and the
// stream must not depend on engine parallelism (checked at Workers 1 and 4).
func TestGoldenGoReports(t *testing.T) {
	const subject = "go-storage"
	var golden []byte
	for _, workers := range []int{1, 4} {
		res, pkg, err := CheckGoPackage(
			filepath.Join("internal", "storage"),
			[]string{"file-handle"},
			Options{WorkDir: t.TempDir(), Workers: workers},
		)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]goldenReport, 0, len(res.Reports))
		for _, r := range res.Reports {
			file, goLine := pkg.Locate(r.Pos.Line)
			out = append(out, goldenReport{
				Subject: subject, Group: file,
				Line: goLine, Col: r.Pos.Col,
				FSM: r.FSM, Kind: r.Kind.String(), Type: r.Type,
				States: r.States, Object: r.Object,
				Witness: r.Witness, WitnessConstraint: r.WitnessConstraint,
			})
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got := append(data, '\n')
		if golden == nil {
			golden = got
		} else if !bytes.Equal(golden, got) {
			t.Fatalf("go golden stream differs across worker counts:\n%s",
				goldenDiff(golden, got))
		}
	}

	path := filepath.Join("testdata", "golden", subject+".json")
	if *updateGolden {
		if err := os.WriteFile(path, golden, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(golden, want) {
		t.Fatal(goldenDiff(want, golden))
	}
}

// TestGoldenSelfCheckPacks pins the concurrency-pack self-check: the mutex
// and context-cancel packs over the engine and trace packages must
// reproduce their goldens byte for byte. Both subjects are clean today, so
// the goldens pin the empty stream — a future regression (or a lowering
// change that conjures a finding) surfaces as a diff, not a green run. As
// with the storage subject, the stream must not depend on engine
// parallelism.
func TestGoldenSelfCheckPacks(t *testing.T) {
	subjects := []struct{ name, dir string }{
		{"go-engine-sync", filepath.Join("internal", "engine")},
		{"go-trace-sync", filepath.Join("internal", "trace")},
	}
	packNames := []string{"mutex", "context-cancel"}
	for _, sub := range subjects {
		t.Run(sub.name, func(t *testing.T) {
			var golden []byte
			for _, workers := range []int{1, 4} {
				res, pkg, err := CheckGoPackage(
					sub.dir, packNames,
					Options{WorkDir: t.TempDir(), Workers: workers},
				)
				if err != nil {
					t.Fatal(err)
				}
				out := make([]goldenReport, 0, len(res.Reports))
				for _, r := range res.Reports {
					file, goLine := pkg.Locate(r.Pos.Line)
					out = append(out, goldenReport{
						Subject: sub.name, Group: file,
						Line: goLine, Col: r.Pos.Col,
						FSM: r.FSM, Kind: r.Kind.String(), Type: r.Type,
						States: r.States, Object: r.Object,
						Witness: r.Witness, WitnessConstraint: r.WitnessConstraint,
					})
				}
				data, err := json.MarshalIndent(out, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				got := append(data, '\n')
				if golden == nil {
					golden = got
				} else if !bytes.Equal(golden, got) {
					t.Fatalf("self-check stream differs across worker counts:\n%s",
						goldenDiff(golden, got))
				}
			}

			path := filepath.Join("testdata", "golden", sub.name+".json")
			if *updateGolden {
				if err := os.WriteFile(path, golden, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if !bytes.Equal(golden, want) {
				t.Fatal(goldenDiff(want, golden))
			}
		})
	}
}

// TestAblationIdentity pins the pre-pass reference on a subject where both
// gofront precision passes bite: testdata/ablation uses interface dispatch
// and shares a tracked file with a goroutine. testdata/golden/ablation.json
// is the report stream the pipeline produced BEFORE the devirtualization and
// MHP passes existed (one JSON object per line, as `grapple run -json`
// printed it). Lowered with both passes off — gofront.Options, which only
// tests set, is the one place that can still be asked for — the pipeline must
// reproduce it field for field. The default lowering must report nothing:
// the MHP widening recognizes the goroutine-shared file and withdraws the
// leak-at-exit verdict the old pipeline (wrongly certain about the
// spawn-free world it saw) reported. The last block pins what the passes
// themselves see there.
func TestAblationIdentity(t *testing.T) {
	type jsonReport struct {
		File              string   `json:"file"`
		Line              int      `json:"line"`
		Col               int      `json:"col"`
		FSM               string   `json:"fsm"`
		Kind              string   `json:"kind"`
		Type              string   `json:"type"`
		States            []string `json:"states"`
		Object            string   `json:"object"`
		Witness           string   `json:"witness"`
		WitnessConstraint string   `json:"witnessConstraint"`
	}
	selected, err := resolvePacks([]string{"file-handle", "mutex"})
	if err != nil {
		t.Fatal(err)
	}
	check := func(opts gofront.Options) []jsonReport {
		g, err := gofront.LowerPackageWith(filepath.Join("testdata", "ablation"), packs.MergedRules(selected), opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := checkLoweredGo(g, selected, Options{WorkDir: t.TempDir()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out []jsonReport
		for _, r := range res.Reports {
			file, goLine := g.Locate(r.Pos.Line)
			out = append(out, jsonReport{
				File: filepath.Base(file), Line: goLine, Col: r.Pos.Col,
				FSM: r.FSM, Kind: r.Kind.String(), Type: r.Type,
				States: r.States, Object: r.Object,
				Witness: r.Witness, WitnessConstraint: r.WitnessConstraint,
			})
		}
		return out
	}

	data, err := os.ReadFile(filepath.Join("testdata", "golden", "ablation.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []jsonReport
	for dec := json.NewDecoder(bytes.NewReader(data)); dec.More(); {
		var r jsonReport
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		r.File = filepath.Base(r.File) // recorded relative to cmd/grapple
		want = append(want, r)
	}
	if len(want) == 0 {
		t.Fatal("pre-pass golden holds no report")
	}
	if got := check(gofront.Options{NoDevirt: true, NoMHP: true}); !reflect.DeepEqual(got, want) {
		t.Fatalf("lowering without the passes does not match the pre-pass golden:\ngot:  %+v\nwant: %+v", got, want)
	}
	if got := check(gofront.Options{}); len(got) != 0 {
		t.Fatalf("default lowering should suppress the shared-file leak:\n%+v", got)
	}

	// What each pass sees on the subject: the one interface call site
	// path-splits over its two implementations, and the concurrency lint
	// flags the never-closed file the spawned worker shares.
	diags, pkg, err := LintGoPackage(filepath.Join("testdata", "ablation"), []string{"file-handle", "mutex"}, []string{"GR001"})
	if err != nil {
		t.Fatal(err)
	}
	if calls, direct, split, open := pkg.Devirt(); calls != 1 || direct != 0 || split != 1 || open != 0 {
		t.Errorf("interface calls: %d (direct %d, split %d, open %d), want one split site", calls, direct, split, open)
	}
	if len(diags) == 0 {
		t.Error("GR001 does not fire on the goroutine-shared file")
	}
}

// goldenDiff renders the first divergence between two golden streams with a
// little context, so a regression is readable without an external diff tool.
func goldenDiff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			lo := i - 2
			if lo < 0 {
				lo = 0
			}
			var buf bytes.Buffer
			fmt.Fprintf(&buf, "golden mismatch at line %d:\n", i+1)
			for j := lo; j < i; j++ {
				fmt.Fprintf(&buf, "  %s\n", wl[j])
			}
			fmt.Fprintf(&buf, "- %s\n+ %s\n", wl[i], gl[i])
			return buf.String()
		}
	}
	return fmt.Sprintf("golden length mismatch: want %d lines, got %d", len(wl), len(gl))
}
