package bench

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/fsm/packs"
	"github.com/grapple-system/grapple/internal/gofront"
	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/workload"
)

// GofrontRow is one subject of the synthetic-vs-real-Go comparison.
type GofrontRow struct {
	Name      string
	Mode      string // "synthetic" (workload generator) or "real-go" (gofront)
	Functions int    // lowered functions (synthetic: IR methods)
	Havocs    int    // gofront over-approximated constructs (synthetic: 0)
	Vertices  uint32 // alias-phase graph vertices
	CFETPaths int    // alias-phase encoded CFET paths
	Reports   int
	Time      time.Duration
}

// GofrontTable compares the pipeline's footprint on the synthetic workload
// subjects against a real Go package lowered through the gofront bridge
// (goDir, checked with the file-handle pack). Same engine, same phases;
// only the frontend differs — the table shows real-Go inputs land in the
// same size regime the synthetic profiles were scaled to.
func GofrontTable(names []string, goDir, workDir string) (string, []GofrontRow, error) {
	var rows []GofrontRow

	for _, name := range names {
		p, ok := workload.ProfileByName(name)
		if !ok {
			return "", nil, fmt.Errorf("bench: unknown subject %q", name)
		}
		s := workload.Generate(p)
		dir, err := os.MkdirTemp(workDir, "gofront-*")
		if err != nil {
			return "", nil, err
		}
		c := checker.New(fsm.Builtins(), checker.Options{WorkDir: dir})
		start := time.Now()
		res, err := c.CheckSource(s.Source)
		elapsed := time.Since(start)
		os.RemoveAll(dir)
		if err != nil {
			return "", nil, fmt.Errorf("bench: %s: %w", name, err)
		}
		parsed, err := lang.Parse(s.Source)
		if err != nil {
			return "", nil, err
		}
		rows = append(rows, GofrontRow{
			Name: name, Mode: "synthetic",
			Functions: len(parsed.Funs),
			Vertices:  res.Alias.Vertices,
			CFETPaths: res.Alias.CFETPaths,
			Reports:   len(res.Reports),
			Time:      elapsed,
		})
	}

	pk, err := packs.Get("file-handle")
	if err != nil {
		return "", nil, err
	}
	g, err := gofront.LowerPackage(goDir, pk.Rules)
	if err != nil {
		return "", nil, fmt.Errorf("bench: lower %s: %w", goDir, err)
	}
	dir, err := os.MkdirTemp(workDir, "gofront-*")
	if err != nil {
		return "", nil, err
	}
	defer os.RemoveAll(dir)
	c := checker.New([]*fsm.FSM{pk.FSM}, checker.Options{WorkDir: dir})
	start := time.Now()
	res, err := c.CheckGo(context.Background(), g)
	elapsed := time.Since(start)
	if err != nil {
		return "", nil, fmt.Errorf("bench: check %s: %w", goDir, err)
	}
	rows = append(rows, GofrontRow{
		Name: goDir, Mode: "real-go",
		Functions: g.Stats.Functions,
		Havocs:    g.Stats.Havocs,
		Vertices:  res.Alias.Vertices,
		CFETPaths: res.Alias.CFETPaths,
		Reports:   len(res.Reports),
		Time:      elapsed,
	})

	var sb strings.Builder
	sb.WriteString("Gofront bridge: synthetic workload subjects vs a real Go package\n")
	sb.WriteString("(file-handle pack), same engine and phases\n")
	sb.WriteString(fmt.Sprintf("%-22s %-10s %6s %7s %9s %10s %8s %9s\n",
		"Subject", "Mode", "Funcs", "Havocs", "Vertices", "CFETPaths", "Reports", "Time"))
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-22s %-10s %6d %7d %9d %10d %8d %9s\n",
			r.Name, r.Mode, r.Functions, r.Havocs, r.Vertices, r.CFETPaths,
			r.Reports, round(r.Time)))
	}
	return sb.String(), rows, nil
}
