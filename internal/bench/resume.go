package bench

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/faultpoint"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/workload"
)

// ResumeRow is one subject's checkpoint/resume measurement.
type ResumeRow struct {
	Subject string
	// WallCold is an unjournaled run; WallJournal the same run checkpointing
	// at every superstep boundary. Overhead is their relative difference.
	WallCold    time.Duration
	WallJournal time.Duration
	// Checkpoints and JournalKiB are the journaled run's record count and
	// total journal traffic across both phases.
	Checkpoints int64
	JournalKiB  float64
	// Boundaries is the total superstep-boundary count; the kill for the
	// resume measurement fires at KillAt (the midpoint).
	Boundaries int
	KillAt     int
	// WallResume is a resumed run picking up after the midpoint kill —
	// frontend regeneration plus the remaining supersteps.
	WallResume time.Duration
}

// resumeTableBudget (under the 8 MiB default) forces many checkpoint boundaries.
const resumeTableBudget = 4 << 20

// OverheadPct is the journaling slowdown relative to the cold run.
func (r ResumeRow) OverheadPct() float64 {
	if r.WallCold <= 0 {
		return 0
	}
	return 100 * (float64(r.WallJournal) - float64(r.WallCold)) / float64(r.WallCold)
}

// ResumeTable measures what per-superstep checkpointing costs and what
// resuming saves, per subject: a cold run, a journaled run (reports must be
// identical — the journal-off ablation), then a run killed at the midpoint
// boundary and resumed (reports must again be identical).
func ResumeTable(names []string, workDir string) (string, []ResumeRow, error) {
	var rows []ResumeRow
	for _, name := range names {
		row, err := runResume(name, workDir)
		if err != nil {
			return "", nil, err
		}
		rows = append(rows, row)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Checkpoint/resume under a %d MiB budget (journal every superstep).\n", resumeTableBudget>>20)
	fmt.Fprintf(&b, "%-15s %10s %10s %7s %7s %8s %10s %10s\n",
		"Subject", "cold", "journaled", "ovh %", "ckpts", "jnl KiB", "kill at", "resume")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %10s %10s %7.1f %7d %8.1f %6d/%-3d %10s\n",
			r.Subject, round(r.WallCold), round(r.WallJournal), r.OverheadPct(),
			r.Checkpoints, r.JournalKiB, r.KillAt, r.Boundaries, round(r.WallResume))
	}
	b.WriteString("Reports are byte-identical across cold, journaled, and killed+resumed runs.\n")
	return b.String(), rows, nil
}

// resumeReportKey serializes a report stream for identity comparison.
func resumeReportKey(reports []checker.Report) string {
	var b strings.Builder
	for _, r := range reports {
		fmt.Fprintf(&b, "%s|%s|%d|%s|%s|%v|%s|%s\n",
			r.FSM, r.Type, r.Kind, r.Pos, r.Object, r.States, r.Witness, r.WitnessConstraint)
	}
	return b.String()
}

func resumeCheckerOpts(dir string) checker.Options {
	return checker.Options{
		WorkDir:      dir,
		MemoryBudget: resumeTableBudget,
	}
}

func runResume(name, workDir string) (ResumeRow, error) {
	p, ok := workload.ProfileByName(name)
	if !ok {
		return ResumeRow{}, fmt.Errorf("bench: unknown subject %q", name)
	}
	s := workload.Generate(p)
	row := ResumeRow{Subject: s.Name}

	tmp := func(pattern string) (string, func(), error) {
		dir, err := os.MkdirTemp(workDir, pattern)
		if err != nil {
			return "", nil, err
		}
		return dir, func() { os.RemoveAll(dir) }, nil
	}

	// Cold baseline: no journal.
	coldDir, cleanCold, err := tmp("grapple-resume-cold-*")
	if err != nil {
		return row, err
	}
	defer cleanCold()
	start := time.Now()
	cold, err := checker.New(fsm.Builtins(), resumeCheckerOpts(coldDir)).CheckSource(s.Source)
	if err != nil {
		return row, fmt.Errorf("bench: %s: cold: %w", name, err)
	}
	row.WallCold = time.Since(start)
	wantReports := resumeReportKey(cold.Reports)

	// Journaled run: every superstep boundary checkpoints; reports must not
	// change (the journal-off ablation, run in the profitable direction).
	jDir, cleanJ, err := tmp("grapple-resume-jnl-*")
	if err != nil {
		return row, err
	}
	defer cleanJ()
	counter := faultpoint.New()
	jOpts := resumeCheckerOpts(jDir)
	jOpts.Journal = true
	jOpts.Scope.Faults = counter
	start = time.Now()
	jres, err := checker.New(fsm.Builtins(), jOpts).CheckSource(s.Source)
	if err != nil {
		return row, fmt.Errorf("bench: %s: journaled: %w", name, err)
	}
	row.WallJournal = time.Since(start)
	row.Checkpoints = jres.Alias.IO.JournalAppends + jres.Dataflow.IO.JournalAppends
	row.JournalKiB = float64(jres.Alias.IO.JournalBytes+jres.Dataflow.IO.JournalBytes) / (1 << 10)
	row.Boundaries = counter.Count(faultpoint.EngineSuperstep)
	if got := resumeReportKey(jres.Reports); got != wantReports {
		return row, fmt.Errorf("bench: %s: journaling changed the reports", name)
	}

	// Kill at the midpoint boundary, then resume.
	row.KillAt = row.Boundaries / 2
	if row.KillAt < 1 {
		row.KillAt = 1
	}
	kDir, cleanK, err := tmp("grapple-resume-kill-*")
	if err != nil {
		return row, err
	}
	defer cleanK()
	killer := faultpoint.New()
	killer.Arm(faultpoint.EngineSuperstep, row.KillAt)
	kOpts := resumeCheckerOpts(kDir)
	kOpts.Journal = true
	kOpts.Scope.Faults = killer
	if _, err := checker.New(fsm.Builtins(), kOpts).CheckSource(s.Source); !errors.Is(err, faultpoint.ErrInjected) {
		return row, fmt.Errorf("bench: %s: kill did not fire: %v", name, err)
	}
	rOpts := resumeCheckerOpts(kDir)
	rOpts.Resume = true
	start = time.Now()
	rres, err := checker.New(fsm.Builtins(), rOpts).CheckSource(s.Source)
	if err != nil {
		return row, fmt.Errorf("bench: %s: resume: %w", name, err)
	}
	row.WallResume = time.Since(start)
	if got := resumeReportKey(rres.Reports); got != wantReports {
		return row, fmt.Errorf("bench: %s: resume changed the reports", name)
	}
	return row, nil
}
