package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/trace"
	"github.com/grapple-system/grapple/internal/workload"
)

// runTimeout bounds one measured check; a run that exceeds it is failed.
const runTimeout = 120 * time.Second

// runOutcome is one measured run of one workload, as the parent saw it.
// WallS and CPUS are as timed; Slowdown is how much slower than the
// reference host this host ran around the check (hostprobe.go).
type runOutcome struct {
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	Slowdown   float64 `json:"host_slowdown"`
	PeakRSSMiB float64 `json:"peak_rss_mib"`
	CheckS     float64 `json:"check_s"`
	Hash       string  `json:"hash"`
	Verdict    verdict `json:"verdict"`
	Counters   metrics `json:"counters"`
}

// endToEnd returns the run's end-to-end metrics, the times at the speed of
// the reference host.
func (r *runOutcome) endToEnd() metrics {
	m := metrics{}
	wallS := r.WallS / r.Slowdown
	m.set("wall_s", wallS, "s")
	m.set("cpu_s", r.CPUS/r.Slowdown, "s")
	m.set("peak_rss_mib", r.PeakRSSMiB, "MiB")
	m.set("edges_per_s", ratio(r.Counters["engine.edges_after"].Value, wallS), "1/s")
	return m
}

// verdict is the oracle's score of one run against the generator's ground
// truth.
type verdict struct {
	// Errors counts false negatives plus reports matching no seed.
	Errors int `json:"verdict_errors"`
	// Tally is TP/FP per subject and checker, for the Table 2 comparison
	// and the pins.
	Tally map[string]map[string]workload.Counts `json:"tally"`
	// Table2Mismatch lists paper-subject cells that differ from the
	// profile's plan.
	Table2Mismatch []string `json:"table2_mismatch,omitempty"`
}

// runner spawns measured runs of one workload from one set of inputs.
type runner struct {
	w      workloadDef
	inputs []inputFile
	self   string // the running binary; a child is it re-executed
	dir    string // scratch directory of this workload
	traces string // where a traced run's span file stays
	width  int    // W
	// checkTable2 holds paper subjects to the profile's TP/FP plan (Table
	// 2); only the default seed promises that cell for cell.
	checkTable2 bool
	pin         *pin
	rec         *trace.Recorder
	host        *hostProbe
	seq         int
}

// runOpts selects what one run keeps.
type runOpts struct {
	trace       bool
	keepWorkDir bool
}

// runArtifacts are the files a traced or kept run leaves.
type runArtifacts struct {
	tracePath string
	workDir   string
}

// run executes one check in a fresh child process and scores it. wall_s
// spans child start to reports scored; the host probe samples on either
// side of it.
func (r *runner) run(o runOpts) (*runOutcome, runArtifacts, error) {
	r.seq++
	base := filepath.Join(r.dir, "run-"+strconv.Itoa(r.seq))
	tmp := base + ".tmp"
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, runArtifacts{}, err
	}
	defer os.RemoveAll(tmp)
	spec := childSpec{
		Inputs: r.inputs, FSMs: r.w.FSMs, MemoryBudget: r.w.MemoryBudget,
		Batch: r.w.Batch, W: r.width, OutPath: base + ".out.json",
	}
	var art runArtifacts
	if o.trace {
		art.tracePath = filepath.Join(r.traces, r.w.Name+".trace.json")
		spec.TracePath = art.tracePath
	}
	if o.keepWorkDir {
		if r.w.Batch {
			return nil, art, errors.New("a batch run cannot keep its WorkDir: instances would share it")
		}
		art.workDir = base + ".work"
		spec.WorkDir = art.workDir
	}
	specPath := base + ".spec.json"
	data, err := json.Marshal(&spec)
	if err != nil {
		return nil, art, err
	}
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		return nil, art, err
	}
	defer os.Remove(specPath)
	defer os.Remove(spec.OutPath)

	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, r.self)
	// Engine temp WorkDirs follow TMPDIR, which keeps them inside the
	// benchmark's scratch directory.
	cmd.Env = append(os.Environ(),
		childEnv+"="+specPath,
		"GOMAXPROCS="+strconv.Itoa(r.width),
		"TMPDIR="+tmp,
	)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	before := r.host.slowdown()
	start := time.Now()
	sp := r.rec.Start(0, "harness", "check")
	err = cmd.Run()
	sp.End(trace.Args{"workload": r.w.Name, "traced": o.trace})
	if err != nil {
		if ctx.Err() != nil {
			return nil, art, fmt.Errorf("%s: timed out after %s", r.w.Name, runTimeout)
		}
		return nil, art, fmt.Errorf("%s: child: %w: %s", r.w.Name, err, bytes.TrimSpace(stderr.Bytes()))
	}
	out, err := os.ReadFile(spec.OutPath)
	if err != nil {
		return nil, art, err
	}
	var res childResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, art, fmt.Errorf("%s: child result: %w", r.w.Name, err)
	}
	sp = r.rec.Start(0, "harness", "evaluate")
	oc := &runOutcome{
		CheckS:   res.CheckS,
		Hash:     hashReports(res.Reports),
		Verdict:  score(r.w, r.inputs, res.Reports, r.checkTable2),
		Counters: res.Counters,
	}
	sp.End(nil)
	oc.WallS = time.Since(start).Seconds()
	oc.Slowdown = (before + r.host.sample()) / 2
	ps := cmd.ProcessState
	oc.CPUS = (ps.UserTime() + ps.SystemTime()).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		oc.PeakRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return oc, art, nil
}

// hashReports hashes the sorted report stream; two runs of one workload on
// one seed must agree on it.
func hashReports(rs []reportRec) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, r := range rs {
		enc.Encode(r) // writes to a hash never fail
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// score runs workload.Evaluate per subject against the generator's seeds,
// restricted to the FSMs the workload checks. With checkTable2 every
// subject's tally must also equal its profile's TP/FP plan.
func score(w workloadDef, inputs []inputFile, reports []reportRec, checkTable2 bool) verdict {
	v := verdict{Tally: map[string]map[string]workload.Counts{}}
	checked := map[string]bool{}
	for _, n := range w.FSMs {
		checked[n] = true
	}
	for _, in := range inputs {
		subj := &workload.Subject{Name: in.Name}
		for _, sd := range in.Seeded {
			if len(checked) == 0 || checked[sd.Checker] {
				subj.Seeded = append(subj.Seeded, sd)
			}
		}
		var reps []checker.Report
		for _, r := range reports {
			if r.Subject != in.Name {
				continue
			}
			kind := checker.KindLeak
			if r.Kind == checker.KindError.String() {
				kind = checker.KindError
			}
			reps = append(reps, checker.Report{FSM: r.FSM, Type: r.Type, Kind: kind,
				Pos: lang.Pos{Line: r.Line, Col: r.Col}, Object: r.Object})
		}
		t := workload.Evaluate(subj, reps)
		v.Errors += len(t.MissedSeeds) + len(t.UnmatchedReports)
		v.Tally[in.Name] = t.PerChecker
		if checkTable2 {
			p := in.Profile
			want := map[string]workload.Counts{
				"io":        {TP: p.IOTP, FP: p.IOFP},
				"lock":      {TP: p.LockTP, FP: p.LockFP},
				"exception": {TP: p.ExcTP, FP: p.ExcFP},
				"socket":    {TP: p.SockTP, FP: p.SockFP},
			}
			for _, name := range []string{"io", "lock", "exception", "socket"} {
				if got := t.PerChecker[name]; got != want[name] {
					v.Table2Mismatch = append(v.Table2Mismatch, fmt.Sprintf(
						"%s/%s: got TP/FP/FN %d/%d/%d, Table 2 has %d/%d/0",
						in.Name, name, got.TP, got.FP, got.FN, want[name].TP, want[name].FP))
				}
			}
		}
	}
	return v
}
