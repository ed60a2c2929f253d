package checker

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/faultpoint"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/fsm/packs"
	"github.com/grapple-system/grapple/internal/gofront"
	"github.com/grapple-system/grapple/internal/smt"
	"github.com/grapple-system/grapple/internal/storage"
	"github.com/grapple-system/grapple/internal/trace"
)

// TestFingerprint: the fingerprint moves with the text, the FSMs and every
// report-affecting option, and with nothing else.
func TestFingerprint(t *testing.T) {
	src := resumeSource(t)
	base := New(fsm.Builtins(), Options{}).Fingerprint(src)
	if again := New(fsm.Builtins(), Options{}).Fingerprint(src); again != base {
		t.Fatalf("fingerprint not deterministic: %x then %x", base, again)
	}
	if def := New(fsm.Builtins(), Options{UnrollDepth: 2}).Fingerprint(src); def != base {
		t.Fatal("the default unroll depth spelled out changed the fingerprint")
	}
	moved := map[string]uint64{
		"text":           New(fsm.Builtins(), Options{}).Fingerprint(src + "\n"),
		"fewer FSMs":     New(fsm.Builtins()[1:], Options{}).Fingerprint(src),
		"no FSMs":        New(nil, Options{}).Fingerprint(src),
		"UnrollDepth":    New(fsm.Builtins(), Options{UnrollDepth: 3}).Fingerprint(src),
		"Bind":           New(fsm.Builtins(), Options{Bind: map[string]string{"Pipe": "io"}}).Fingerprint(src),
		"RecordPointsTo": New(fsm.Builtins(), Options{RecordPointsTo: true}).Fingerprint(src),
		"Go unit":        New(fsm.Builtins(), Options{}).forGo().Fingerprint(src),
		"MaxNodes":       New(fsm.Builtins(), Options{cfet: cfet.Options{MaxNodesPerMethod: 64}}).Fingerprint(src),
	}
	edited := fsm.Builtins()
	if err := edited[0].SetAccept("Init"); err != nil {
		t.Fatal(err)
	}
	moved["FSM body"] = New(edited, Options{}).Fingerprint(src)
	for name, fp := range moved {
		if fp == base {
			t.Errorf("%s: fingerprint did not change", name)
		}
	}
	kept := map[string]Options{
		"WorkDir":                {WorkDir: t.TempDir()},
		"MemoryBudget, Workers":  {MemoryBudget: 1 << 20, Workers: 7},
		"Cache":                  {Cache: smt.NewCache(0)},
		"DisableConstraintCache": {DisableConstraintCache: true},
		"DumpDOT":                {DumpDOT: t.TempDir()},
		"Journal, Resume":        {Journal: true, Resume: true},
		"Scope":                  {Scope: trace.Scope{Progress: trace.NewProgress(), Faults: faultpoint.New()}},
		"CFET seams":             {cfet: cfet.Options{SliceFunc: func(string) bool { return false }}},
	}
	for name, opts := range kept {
		if fp := New(fsm.Builtins(), opts).Fingerprint(src); fp != base {
			t.Errorf("%s changed the fingerprint", name)
		}
	}
}

// stableGoSrc is the Go unit TestFingerprintStable pins: a file opened and
// read, never closed.
const stableGoSrc = `package subject

import "os"

func leak(path string) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	f.Read(nil)
}
`

// TestFingerprintStable pins Fingerprint for one MiniLang and one Go unit.
// Journal tags, the batch log's tag and the batch's shared frontends key on
// it, so a change that moves it turns every journal written before into a
// stale one. The variant cap is hashed as 0 for a MiniLang unit and as
// goMaxVariants for a Go unit, which CheckGo checks under it.
func TestFingerprintStable(t *testing.T) {
	pk, err := packs.Get("file-handle")
	if err != nil {
		t.Fatal(err)
	}
	g, err := gofront.LowerSource(stableGoSrc, pk.Rules)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		unit      string
		got, want uint64
	}{
		{"MiniLang", New(fsm.Builtins(), Options{}).Fingerprint(resumeSrc), 0x7820d07b1d0995eb},
		{"Go", New([]*fsm.FSM{pk.FSM}, Options{}).forGo().Fingerprint(g.Source()), 0x273f2746de003165},
	} {
		if tc.got != tc.want {
			t.Errorf("%s unit: fingerprint %#016x, pinned %#016x", tc.unit, tc.got, tc.want)
		}
	}
}

// TestCheckPreparedRefusesOtherOptions: a Prepared is the phase-1 closure of
// the options it was prepared under. Checked by a Checker whose
// report-affecting options differ, it is refused with an error naming both
// option prints, not answered with the other options' reports.
func TestCheckPreparedRefusesOtherOptions(t *testing.T) {
	ctx := context.Background()
	src := resumeSource(t)
	prep, err := New(nil, Options{UnrollDepth: 1}).PrepareSource(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(fsm.Builtins(), Options{UnrollDepth: 1, Workers: 1}).CheckPrepared(ctx, prep); err != nil {
		t.Fatalf("checked under the preparing options: %v", err)
	}
	other := New(fsm.Builtins(), Options{UnrollDepth: 2})
	_, err = other.CheckPrepared(ctx, prep)
	if err == nil {
		t.Fatal("a Prepared built at unroll 1 was checked at unroll 2")
	}
	for _, want := range []string{fmt.Sprintf("%016x", prep.opts), fmt.Sprintf("%016x", other.optionsPrint())} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %s", err, want)
		}
	}
}

// TestJournalNeedsText: an IR entry given no text has nothing to tag a
// journal with, so it refuses Journal and Resume rather than write or accept
// a journal that would fit any unit.
func TestJournalNeedsText(t *testing.T) {
	c := New(fsm.Builtins(), resumeOpts(t.TempDir()))
	p, err := c.lowerSource(resumeSource(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CheckIR(context.Background(), p, ""); err == nil || !strings.Contains(err.Error(), "text") {
		t.Fatalf("journaled check without text: %v", err)
	}
}

// oneTokenEdits lists the one-token edits of src the property test draws
// from: every comparison flipped, every integer literal changed, and every
// call statement dropped.
func oneTokenEdits(src string) []string {
	var out []string
	flip := map[string]string{">": "<", "<": ">", ">=": "<", "<=": ">"}
	for _, m := range regexp.MustCompile(`[<>]=?`).FindAllStringIndex(src, -1) {
		op := src[m[0]:m[1]]
		out = append(out, src[:m[0]]+flip[op]+src[m[1]:])
	}
	for _, m := range regexp.MustCompile(`\b[0-9]+\b`).FindAllStringIndex(src, -1) {
		out = append(out, src[:m[0]]+"7"+src[m[1]:])
	}
	for _, m := range regexp.MustCompile(`(?m)^ *\w+(\.\w+)?\([^()]*\);\n`).FindAllStringIndex(src, -1) {
		out = append(out, src[:m[0]]+src[m[1]:])
	}
	return out
}

// TestResumeOverRandomEditRefusedOrCold is resume's property over input
// edits: for seeded one-token edits of resumeSrc — a comparison flipped, a
// literal changed, a call dropped — a run journaled over the original, killed
// at a seeded superstep boundary or left to complete, is either refused with
// storage.ErrStale when resumed over the edit, or prints exactly the edit's
// cold reports. It never replays the original's closure into the edit's
// check. The same journal resumed over the original under another memory
// budget and another worker count — what Fingerprint leaves out — must print
// the original's cold reports.
func TestResumeOverRandomEditRefusedOrCold(t *testing.T) {
	src := resumeSource(t)
	cold := func(t *testing.T, text string, faults *faultpoint.Set) string {
		t.Helper()
		opts := resumeOpts(t.TempDir())
		opts.Scope.Faults = faults
		res, err := New(fsm.Builtins(), opts).CheckSource(text)
		if err != nil {
			t.Fatal(err)
		}
		return renderReports(res.Reports)
	}
	counted := faultpoint.New()
	want := cold(t, src, counted)
	boundaries := counted.Count(faultpoint.EngineSuperstep)
	// journaled returns a work dir holding src's journals, killed at the k-th
	// superstep boundary, or complete when k is 0.
	journaled := func(t *testing.T, k int) string {
		t.Helper()
		dir := t.TempDir()
		opts := resumeOpts(dir)
		if k > 0 {
			opts.Scope.Faults = faultpoint.New()
			opts.Scope.Faults.Arm(faultpoint.EngineSuperstep, k)
		}
		if _, err := New(fsm.Builtins(), opts).CheckSource(src); k > 0 && !errors.Is(err, faultpoint.ErrInjected) || k == 0 && err != nil {
			t.Fatalf("journaled run killed at %d: %v", k, err)
		}
		return dir
	}

	edits := oneTokenEdits(src)
	rng := rand.New(rand.NewSource(37))
	rng.Shuffle(len(edits), func(i, j int) { edits[i], edits[j] = edits[j], edits[i] })
	refused := 0
	for i, edited := range edits[:8] {
		k := rng.Intn(boundaries + 1)
		ropts := resumeOpts(journaled(t, k))
		ropts.Resume = true
		res, err := New(fsm.Builtins(), ropts).CheckSource(edited)
		switch {
		case errors.Is(err, storage.ErrStale):
			refused++
		case err != nil:
			t.Fatalf("edit %d, killed at %d: resume: %v", i, k, err)
		default:
			if got, want := renderReports(res.Reports), cold(t, edited, nil); got != want {
				t.Fatalf("edit %d, killed at %d: resumed over the edit, reports differ from its cold run:\n%s\nvs\n%s", i, k, got, want)
			}
		}
	}
	if refused == 0 {
		t.Fatal("no edit was refused; the property was never exercised")
	}

	for _, eng := range []struct {
		budget  int64
		workers int
	}{{32 << 10, 2}, {64 << 10, 1}} {
		ropts := resumeOpts(journaled(t, boundaries/2))
		ropts.MemoryBudget, ropts.Workers = eng.budget, eng.workers
		ropts.Resume = true
		res, err := New(fsm.Builtins(), ropts).CheckSource(src)
		if err != nil {
			t.Fatalf("resume under %+v: %v", eng, err)
		}
		if got := renderReports(res.Reports); got != want {
			t.Fatalf("resume under %+v: reports differ from the cold run:\n%s\nvs\n%s", eng, got, want)
		}
	}
}
