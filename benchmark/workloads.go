package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"github.com/grapple-system/grapple/internal/workload"
)

// workloadDef is one benchmark workload: the subjects it generates and how
// they are checked. README.md records why each was chosen and which layer
// each stresses.
type workloadDef struct {
	Name string
	// Profiles are the generated subjects: a fixed corpus, as the paper's
	// four codebases are. -seed draws a variant of each (see variant).
	Profiles []workload.Profile
	// FSMs restricts the built-in checkers by name; nil means all four.
	FSMs []string
	// MemoryBudget is Options.MemoryBudget (0 = the 256 MiB default).
	MemoryBudget int64
	// Batch routes the subjects through grapple.CheckAll (one instance per
	// subject × FSM) instead of one grapple.Check.
	Batch bool
	// Paper marks workloads whose subjects are workload.Profiles() entries or
	// scaled copies of one: they must reproduce Table 2 (the profile's TP/FP
	// plan) cell for cell.
	Paper bool
}

func paperProfile(name string) workload.Profile {
	p, ok := workload.ProfileByName(name)
	if !ok {
		panic("benchmark: unknown paper profile " + name)
	}
	return p
}

// hdfsHalf is hdfs-sim at four services instead of seven, its Table 2 bug
// mix halved: the closure pair's subject. The whole hdfs-sim takes 1.9 s in
// memory but 5.1 s in four partitions, and a run's window must hold many
// checks (see workloads).
func hdfsHalf() workload.Profile {
	p := paperProfile("hdfs-sim")
	p.Name, p.Description = "hdfs-half", "hdfs-sim at four services of seven"
	p.Services, p.ExcTP, p.ExcFP, p.SockTP = 4, 22, 2, 2
	return p
}

// workloads returns the five workloads. Sizes are chosen so that one check
// takes 1–3 s on a 2-core host: a run's median steadies with the number of
// checks in its window, and three to four of them, as 5 s checks gave, left
// it twice as wide as seven do.
func workloads() []workloadDef {
	return []workloadDef{
		{
			Name:     "closure-inmem",
			Profiles: []workload.Profile{hdfsHalf()},
			Paper:    true,
		},
		// closure-ooc checks the same source as closure-inmem; the budget is
		// the only difference, so a split between the two is a budget effect.
		{
			Name:         "closure-ooc",
			Profiles:     []workload.Profile{hdfsHalf()},
			MemoryBudget: 3 << 20,
			Paper:        true,
		},
		{
			Name: "closure-deep",
			Profiles: []workload.Profile{{
				Name: "deep-sim", Version: "bench", Description: "few very long functions",
				Seed: 3005, Services: 2, WorkersPerService: 2,
				ExcTP: 8, SockTP: 4, CorrectPerBug: 2, FillerStmts: 6,
			}},
		},
		{
			Name: "frontend-wide",
			Profiles: []workload.Profile{{
				Name: "wide-sim", Version: "bench", Description: "many short functions, mostly irrelevant to the property",
				Seed: 3002, Services: 40, WorkersPerService: 50,
				LockTP: 8, IOTP: 8, CorrectPerBug: 1, FillerStmts: 60,
			}},
			FSMs: []string{"lock"},
		},
		{
			Name: "batch-props",
			Profiles: []workload.Profile{
				paperProfile("hadoop-sim"), paperProfile("hdfs-sim"),
			},
			Batch: true,
			Paper: true,
		},
	}
}

// smokeWorkloads keeps every workload's shape (options, FSM set, batch or
// single) but swaps the subjects for workload.MiniProfile(), so the smoke
// test drives every code path in seconds.
func smokeWorkloads() []workloadDef {
	ws := workloads()
	for i := range ws {
		mini := workload.MiniProfile()
		ws[i].Profiles = []workload.Profile{mini}
		ws[i].Paper = false
		if ws[i].MemoryBudget != 0 {
			ws[i].MemoryBudget = 2 << 20
		}
	}
	return ws
}

func findWorkload(ws []workloadDef, name string) (workloadDef, bool) {
	for _, w := range ws {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// loadWidth is W: the closed loop's parallelism, min(nproc, 4).
func loadWidth() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// inputFile is one generated subject on disk: the source the child reads
// and the ground truth only the parent reads.
type inputFile struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	LoC    int    `json:"loc"`
	// Profile and Seeded are the ground truth; the child never opens them.
	Profile workload.Profile  `json:"-"`
	Seeded  []workload.Seeded `json:"-"`
}

// variant returns the seed's variant of a generated subject: the same
// functions in a seeded random order, with the ground truth's line numbers
// moved along. Seed 0 is the subject as generated.
//
// The seed does not go into Profile.Seed, because a check's cost is
// heavy-tailed in it: the generator's shuffle decides which worker function
// collects which branching patterns, and paths multiply within a function.
// Over Profile.Seed+1..+7 one check of closure-deep took 1.7–4.4 s and of
// closure-ooc 4.8–11.8 s, so another Profile.Seed is another workload, not
// another sample of this one. Reordering functions renumbers methods,
// allocation sites and vertices — every table the engine indexes — but
// leaves the work the same.
func variant(s *workload.Subject, seed int64) (string, []workload.Seeded) {
	if seed == 0 {
		return s.Source, s.Seeded
	}
	lines := strings.Split(strings.TrimSuffix(s.Source, "\n"), "\n")
	// A function runs from a "fun " line to the next "}" line, both at
	// column 0; what precedes the first is the header of type declarations.
	type block struct{ lo, hi int } // lines[lo:hi]
	var funs []block
	header := len(lines)
	for i := 0; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "fun ") {
			continue
		}
		if header == len(lines) {
			header = i
		}
		lo := i
		for lines[i] != "}" {
			i++
		}
		funs = append(funs, block{lo, i + 1})
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(funs), func(i, j int) { funs[i], funs[j] = funs[j], funs[i] })
	out := append([]string(nil), lines[:header]...)
	moved := map[int]int{} // old line number -> new line number, 1-based
	for _, b := range funs {
		for i := b.lo; i < b.hi; i++ {
			out = append(out, lines[i])
			moved[i+1] = len(out)
		}
		out = append(out, "")
	}
	seeded := append([]workload.Seeded(nil), s.Seeded...)
	for i := range seeded {
		seeded[i].Line = moved[seeded[i].Line]
	}
	return strings.Join(out, "\n") + "\n", seeded
}

// generateInputs generates the workload's subjects, takes the seed's variant
// of each and writes its source (what the program under test sees) and
// manifest (ground truth, for the reader of a kept run directory) under dir.
func generateInputs(w workloadDef, seed int64, dir string) ([]inputFile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var out []inputFile
	for _, p := range w.Profiles {
		s := workload.Generate(p)
		s.Source, s.Seeded = variant(s, seed)
		src := filepath.Join(dir, s.Name+".ml")
		if err := os.WriteFile(src, []byte(s.Source), 0o644); err != nil {
			return nil, err
		}
		manifest, err := json.Marshal(s.Seeded)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(dir, s.Name+".manifest.json"), manifest, 0o644); err != nil {
			return nil, err
		}
		out = append(out, inputFile{Name: s.Name, Source: src, LoC: s.LoC, Profile: p, Seeded: s.Seeded})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workload %s has no subjects", w.Name)
	}
	return out, nil
}
