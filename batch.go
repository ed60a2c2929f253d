package grapple

import (
	"context"
	"time"

	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/metrics"
	"github.com/grapple-system/grapple/internal/scheduler"
)

// Subject is one named compilation unit for batch checking: Name identifies
// it in merged reports and must be unique within a batch; Source is its
// MiniLang text.
type Subject = scheduler.Subject

// BatchReport is one merged-stream warning: a Report annotated with the
// Subject and the FSM property Group that produced it.
type BatchReport = scheduler.Report

// InstanceStatus summarizes one (subject, property-group) checking
// instance of a batch.
type InstanceStatus struct {
	Subject string
	Group   string
	// Err is the instance's failure, nil on success; TimedOut marks it as
	// the per-instance deadline expiring.
	Err      error
	TimedOut bool
	// Resumed marks an instance restored from a previous journaled batch's
	// log (BatchOptions.Resume) rather than recomputed; only the
	// report set and Elapsed survive, so phase stats are zero.
	Resumed bool
	// Wait is time spent queued for a worker; Elapsed the run itself.
	Wait    time.Duration
	Elapsed time.Duration
	// Reports is this instance's warning count (the warnings themselves
	// live in the merged stream).
	Reports  int
	Alias    PhaseStats
	Dataflow PhaseStats
}

// SchedulerStats is the batch scheduler's queue-depth and latency counters.
type SchedulerStats = metrics.SchedSnapshot

// BatchOptions tunes CheckAll. The embedded Options apply to every
// instance, except Journal and Resume, which act at batch granularity:
// Journal appends each finished instance's reports to the batch log in
// WorkDir (batch.grj, a record log of the same format as the engines'
// journals), and Resume reruns only the instances a previous journaled
// batch did not finish, merging restored and fresh results into a
// byte-identical report stream. Resume refuses a log written for another
// instance set — an edited subject or FSM, a different property set or
// grouping, other report-affecting Options — rather than replay its reports.
type BatchOptions struct {
	Options
	// BatchWorkers bounds how many checking instances run concurrently
	// (default GOMAXPROCS). Distinct from Options.Workers, which bounds
	// each instance's own goroutines: its edge-induction workers and its
	// frontend's.
	BatchWorkers int
	// InstanceTimeout bounds each instance; an expired instance is recorded
	// as failed and the batch continues. Zero means no per-instance bound.
	InstanceTimeout time.Duration
	// CombineProperties checks each subject once against all FSMs instead
	// of the default paper configuration of one instance per (property,
	// subject) pair. The merged report stream is the same either way; only
	// the instance granularity (and so scheduling/sharing behaviour)
	// changes.
	CombineProperties bool
}

// BatchResult is the outcome of a CheckAll run.
type BatchResult struct {
	// Reports is the deterministic merged warning stream, totally ordered
	// by (Subject, Line, Col, FSM, Kind, Object, Type, Group) — byte-
	// identical output regardless of worker count or submission order.
	Reports []BatchReport
	// Instances is sorted by (Subject, Group).
	Instances []InstanceStatus
	// Scheduler reports queue depth and latency for the batch.
	Scheduler SchedulerStats
	// CacheLookups/CacheHits/CacheHitRate describe the constraint memos, one
	// per subject and shared by its instances (zeros with
	// DisableConstraintCache).
	CacheLookups int64
	CacheHits    int64
	CacheHitRate float64
	// FrontendPrepares is how many frontend + alias-closure computations the
	// batch actually performed; with sharing (the default) it equals the
	// distinct-subject count rather than the instance count.
	FrontendPrepares int
	// IO aggregates partition-store traffic (bytes, cache effectiveness,
	// load latencies) across every instance's phases.
	IO IOStats
	// Wall is the batch's wall-clock time.
	Wall time.Duration
}

// Failed returns the statuses of instances that did not finish cleanly.
func (b *BatchResult) Failed() []InstanceStatus {
	var out []InstanceStatus
	for _, st := range b.Instances {
		if st.Err != nil {
			out = append(out, st)
		}
	}
	return out
}

// CheckAll analyzes many subjects against the FSM properties as one batch:
// one checking instance per (subject, property) pair — the paper's §5
// configuration of hundreds of independent Grapple instances under a
// load-balancing scheduler — fanned across a bounded worker pool, the
// instances of one subject sharing its frontend, alias closure and
// constraint memo.
func CheckAll(subjects []Subject, fsms []*FSM, opts BatchOptions) (*BatchResult, error) {
	return CheckAllContext(context.Background(), subjects, fsms, opts)
}

// CheckAllContext is CheckAll under a batch-wide cancellation context (the
// per-instance deadline is BatchOptions.InstanceTimeout).
func CheckAllContext(ctx context.Context, subjects []Subject, fsms []*FSM, opts BatchOptions) (*BatchResult, error) {
	innerFSMs := make([]*fsm.FSM, len(fsms))
	for i, f := range fsms {
		innerFSMs[i] = f.inner
	}
	groups := scheduler.GroupPerFSM(innerFSMs)
	if opts.CombineProperties {
		groups = scheduler.OneGroup(innerFSMs)
	}
	// Batch crash recovery is instance-granular: the scheduler's batch log
	// (not per-engine journals) decides what reruns, so the per-instance
	// checker options carry no journal flags.
	iopts := opts.Options
	iopts.Journal, iopts.Resume = false, false
	// WorkDir reaches the instances through the scheduler, which gives each
	// its own subdirectory; lowered here it would make every instance write
	// the same dataflow/part-*.edges files.
	iopts.WorkDir = ""
	instances := scheduler.Expand(subjects, groups, checkerOptions(iopts))
	obs, err := startObs(opts.Obs, opts.WorkDir)
	if err != nil {
		return nil, err
	}
	schedOpts := scheduler.Options{
		Workers: opts.BatchWorkers,
		Timeout: opts.InstanceTimeout,
		WorkDir: opts.WorkDir,
		Journal: opts.Journal,
		Resume:  opts.Resume,
		Scope:   obs.scope(),
	}
	res, err := scheduler.Run(ctx, instances, schedOpts)
	obsErr := obs.finish()
	if err != nil {
		return nil, err
	}
	if obsErr != nil {
		return nil, obsErr
	}
	out := &BatchResult{
		Reports:          res.Reports,
		Scheduler:        res.Sched,
		CacheLookups:     res.CacheLookups,
		CacheHits:        res.CacheHits,
		CacheHitRate:     res.CacheHitRate,
		FrontendPrepares: res.FrontendPrepares,
		Wall:             res.Wall,
	}
	for _, ir := range res.Instances {
		st := InstanceStatus{
			Subject: ir.Subject, Group: ir.Group,
			Err: ir.Err, TimedOut: ir.TimedOut, Resumed: ir.Resumed,
			Wait: ir.Wait, Elapsed: ir.Elapsed,
		}
		if ir.Result != nil {
			st.Reports = len(ir.Result.Reports)
			st.Alias = ir.Result.Alias
			st.Dataflow = ir.Result.Dataflow
			out.IO.Add(st.Alias.IO)
			out.IO.Add(st.Dataflow.IO)
		}
		out.Instances = append(out.Instances, st)
	}
	return out, nil
}
