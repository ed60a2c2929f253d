// Package scheduler is the batch driver of the paper's §5 methodology:
// instead of one Grapple run per invocation, it fans a set of independent
// checking instances — the cross product of subjects (compilation units) ×
// FSM property groups — across a bounded worker pool. Each instance is a
// complete three-phase pipeline run (alias closure, dataflow closure, FSM
// checking) and is independently decidable, so instances never communicate;
// what the instances of one subject *share* is one thing, the subject's
// checker.Prepared: its frontend + alias closure, read-only, and the
// constraint memo (§4.3) it carries, which amortizes solver work across the
// subject's instances behind its shard locks. A subject's frontend is
// prepared without FSMs — so it is never property-sliced — which makes its
// alias phase the same no matter which property group is being checked: only
// the first instance of a subject computes it and the rest start at phase 2.
// Every instance, shared or not, reaches phase 2 by that one path, so the
// reports do not depend on the sharing mode.
//
// The scheduler guarantees a deterministic merged report stream: results
// are keyed by (subject, group) and the merge is a total order over report
// fields, so the output is byte-identical regardless of worker count,
// submission order, or goroutine scheduling.
package scheduler

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/faultpoint"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/metrics"
	"github.com/grapple-system/grapple/internal/storage"
	"github.com/grapple-system/grapple/internal/trace"
)

// Subject is one named compilation unit.
type Subject struct {
	Name   string
	Source string
}

// Group is one FSM property group; instances check one group at a time.
type Group struct {
	Name string
	FSMs []*fsm.FSM
}

// GroupPerFSM splits properties into singleton groups — the paper's
// configuration: one checking instance per (property, source) pair.
func GroupPerFSM(fsms []*fsm.FSM) []Group {
	out := make([]Group, len(fsms))
	for i, f := range fsms {
		out[i] = Group{Name: f.Name, FSMs: []*fsm.FSM{f}}
	}
	return out
}

// OneGroup bundles every property into a single group, so each subject is
// checked exactly once against all FSMs (the single-run behaviour).
func OneGroup(fsms []*fsm.FSM) []Group {
	if len(fsms) == 0 {
		return nil
	}
	names := make([]string, len(fsms))
	for i, f := range fsms {
		names[i] = f.Name
	}
	return []Group{{Name: strings.Join(names, "+"), FSMs: fsms}}
}

// Instance is one independently-checkable (subject, property group) unit.
type Instance struct {
	Subject string
	Group   string
	Source  string
	FSMs    []*fsm.FSM
	// Opts configures this instance's checker. The scheduler replaces its
	// Scope's recorder and progress tracker with the worker's lane (see
	// Options); its fault set is kept.
	Opts checker.Options
}

// Key is the instance's stable identity; merge order depends only on it.
func (in *Instance) Key() string { return in.Subject + "\x00" + in.Group }

// Expand builds the instance set subjects × groups.
func Expand(subjects []Subject, groups []Group, opts checker.Options) []Instance {
	var out []Instance
	for _, s := range subjects {
		for _, g := range groups {
			out = append(out, Instance{
				Subject: s.Name, Group: g.Name,
				Source: s.Source, FSMs: g.FSMs, Opts: opts,
			})
		}
	}
	return out
}

// InstanceResult is one instance's outcome.
type InstanceResult struct {
	Subject string
	Group   string
	// Result is nil when Err is set.
	Result *checker.Result
	Err    error
	// TimedOut marks Err as the per-instance deadline expiring.
	TimedOut bool
	// Resumed marks a result restored from a previous run's batch log
	// (Options.Resume) rather than recomputed; only Reports, Elapsed and the
	// key survive the round trip, so Result carries no phase stats.
	Resumed bool
	// Wait is the time spent in the ready queue; Elapsed the run itself.
	Wait    time.Duration
	Elapsed time.Duration
	// enq is when the instance entered the ready queue (zero when Resumed).
	enq     time.Time
	prepKey uint64 // the prepStore key of its frontend (0 unshared)
}

// Report is one warning annotated with the subject and property group that
// produced it.
type Report struct {
	Subject string
	Group   string
	checker.Report
}

// Options configures a batch run. Each instance's checker options are its
// Instance.Opts, with WorkDir defaulted under this WorkDir and Scope on the
// worker's trace lane, with no progress tracker and the instance's own fault
// set.
type Options struct {
	// Workers bounds pool concurrency (default GOMAXPROCS, capped at the
	// instance count).
	Workers int
	// Timeout bounds each instance (0 = none); an expired instance is
	// recorded as failed with TimedOut set, and the batch continues.
	Timeout time.Duration
	// noSharedFrontend disables per-subject sharing of checker.Prepared;
	// every instance then prepares its own frontend, alias closure and
	// constraint memo, as an independent process would, by the same path the
	// shared one takes (no FSMs, so no slicing). Only this package's tests set
	// it, as the reference sharing is held to.
	noSharedFrontend bool
	// WorkDir, when non-empty, hosts one partition subdirectory per
	// instance; each instance otherwise uses its own temp dir.
	WorkDir string
	// Journal appends a completion record (key, reports, elapsed) to the
	// batch log in WorkDir (JournalName) after each successful instance, so
	// a later run with Resume skips the finished ones. A record that cannot
	// be written stops the batch with an error. Requires WorkDir.
	Journal bool
	// Resume loads a previous journaled batch's log from WorkDir and re-runs
	// only the instances not recorded complete; restored and recomputed
	// results merge into a byte-identical report stream. A missing log is an
	// error wrapping storage.ErrNoJournal, a damaged one storage.ErrCorrupt
	// (a torn final record — the crash landing mid-append — is the one
	// tolerated damage: that instance just reruns), and a log written for
	// another instance set — another property group, or an instance whose
	// checker.Checker.Fingerprint differs (an edited source or FSM, another
	// UnrollDepth) — storage.ErrStale, with no instance restored. Implies
	// Journal.
	Resume bool
	// Scope is the batch's recorder, progress tracker and fault set. The
	// recorder gets one span per instance on a per-worker lane (the scope's
	// own lane carries nothing: the scheduler emits only inside a worker),
	// the progress tracker the instance lifecycle (started, done, still
	// running), and the fault set a crash point after each instance
	// completion and a torn-write point in the batch log's appends.
	// Observation only: the merged report stream is unaffected.
	Scope trace.Scope
}

// BatchResult is a batch run's outcome.
type BatchResult struct {
	// Instances is sorted by (Subject, Group).
	Instances []InstanceResult
	// Reports is the deterministic merged stream, totally ordered by
	// (Subject, Line, Col, FSM, Kind, Object, Type, Group).
	Reports []Report
	// Sched is the scheduler's queue-depth/latency counters.
	Sched metrics.SchedSnapshot
	// CacheLookups/CacheHits/CacheHitRate describe the subjects' constraint
	// memos (zero when the instances prepared without one), summed from the
	// probes each instance's engines counted (PhaseStats), a shared alias
	// phase once.
	CacheLookups int64
	CacheHits    int64
	CacheHitRate float64
	// FrontendPrepares is how many frontend + alias-closure artifacts were
	// actually computed; with sharing on this is the distinct-subject
	// count, not the instance count.
	FrontendPrepares int
	// Wall is the batch's wall-clock time.
	Wall time.Duration
}

// Failed returns the results of instances that did not finish cleanly.
func (b *BatchResult) Failed() []InstanceResult {
	var out []InstanceResult
	for _, ir := range b.Instances {
		if ir.Err != nil {
			out = append(out, ir)
		}
	}
	return out
}

// Run checks every instance under a bounded worker pool and merges the
// per-instance results deterministically. Instance failures (including
// per-instance timeouts) do not fail the batch; they are reported on the
// corresponding InstanceResult. Run itself errors only on invalid input —
// duplicate (subject, group) keys, which would make the merge ambiguous —
// on a batch log it cannot open or append to (see Options.Resume), or when
// ctx is canceled before all instances finish.
func Run(ctx context.Context, instances []Instance, opts Options) (*BatchResult, error) {
	start := time.Now()
	seen := make(map[string]bool, len(instances))
	for i := range instances {
		k := instances[i].Key()
		if seen[k] {
			return nil, fmt.Errorf("scheduler: duplicate instance %q/%q", instances[i].Subject, instances[i].Group)
		}
		seen[k] = true
	}
	if (opts.Journal || opts.Resume) && opts.WorkDir == "" {
		return nil, fmt.Errorf("scheduler: Journal/Resume require a persistent WorkDir")
	}
	var blog *storage.JournalWriter
	var done map[string]*completion
	if opts.Journal || opts.Resume {
		var err error
		blog, done, err = openBatchLog(opts.WorkDir, batchTag(instances), opts.Resume, opts.Scope.Faults)
		if err != nil {
			return nil, err
		}
		defer blog.Close()
	}
	pending := 0
	for i := range instances {
		if done[instances[i].Key()] == nil {
			pending++
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > pending {
		workers = pending
	}
	var preps *prepStore
	if !opts.noSharedFrontend {
		preps = &prepStore{entries: map[uint64]*prepEntry{}}
	}

	type job struct {
		idx int
		enq time.Time
	}
	// A crash, injected or the batch log failing, cancels in-flight work
	// through a batch-local context so the parent ctx (and its error
	// contract) is untouched.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	var stopMu sync.Mutex
	var stopErr error
	stop := func(err error) {
		stopMu.Lock()
		if stopErr == nil {
			stopErr = err
		}
		stopMu.Unlock()
		cancelRun()
	}
	opts.Scope.Progress.SetBatch(pending)
	jobs := make(chan job, len(instances))
	results := make([]InstanceResult, len(instances))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// One trace lane per worker, so instance spans of concurrent workers
		// render as parallel tracks instead of overlapping on one line. The
		// worker's scope is that lane alone: no Progress (concurrent
		// instances would fight over the phase field; batch progress tracks
		// instance lifecycles) and not the batch's Faults (they count
		// completions).
		ws := trace.Scope{Rec: opts.Scope.Rec}.Lane(fmt.Sprintf("worker-%02d", w))
		go func() {
			defer wg.Done()
			for jb := range jobs {
				wait := time.Since(jb.enq)
				opts.Scope.Progress.InstanceStart()
				sp := ws.Start("scheduler", "instance")
				r := runOne(runCtx, &instances[jb.idx], opts, preps, ws)
				sp.End(trace.Args{
					"subject": r.Subject, "group": r.Group,
					"waitUs": wait.Microseconds(), "ok": r.Err == nil,
				})
				opts.Scope.Progress.InstanceDone()
				if r.Err == nil && blog != nil {
					// A record that did not stick may have left a torn frame;
					// the batch stops as a crash there would.
					if _, err := blog.Append(&completion{
						Subject: r.Subject, Group: r.Group,
						Elapsed: r.Elapsed, Reports: r.Result.Reports,
					}); err != nil {
						stop(fmt.Errorf("scheduler: batch log: %w", err))
					}
				}
				r.Wait, r.enq = wait, jb.enq
				results[jb.idx] = r
				// The kill switch fires after the completion record is
				// durable — the crash a real batch can hit between instances.
				if err := opts.Scope.Faults.Hit(faultpoint.SchedulerInstance); err != nil {
					stop(err)
				}
			}
		}()
	}
	for i := range instances {
		if rec := done[instances[i].Key()]; rec != nil {
			// Finished by a previous run: restore the logged outcome and skip
			// the worker pool entirely.
			results[i] = InstanceResult{
				Subject: instances[i].Subject, Group: instances[i].Group,
				Result:  &checker.Result{Reports: rec.Reports},
				Elapsed: rec.Elapsed, Resumed: true,
			}
			continue
		}
		jobs <- job{idx: i, enq: time.Now()}
	}
	close(jobs)
	wg.Wait()
	stopMu.Lock()
	err := stopErr
	stopMu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	lookups, hits := cacheProbes(results, preps != nil)
	sort.Slice(results, func(i, j int) bool {
		if results[i].Subject != results[j].Subject {
			return results[i].Subject < results[j].Subject
		}
		return results[i].Group < results[j].Group
	})
	out := &BatchResult{
		Instances:    results,
		Reports:      mergeReports(results),
		Sched:        schedStats(results),
		CacheLookups: lookups,
		CacheHits:    hits,
		Wall:         time.Since(start),
	}
	if lookups > 0 {
		out.CacheHitRate = float64(hits) / float64(lookups)
	}
	if preps != nil {
		out.FrontendPrepares = len(preps.entries)
	} else {
		out.FrontendPrepares = len(instances)
	}
	return out, nil
}

// JournalName is the batch log's file name under Options.WorkDir: storage's
// durable log, one record per successfully finished instance, read back by
// Options.Resume.
const JournalName = "batch.grj"

// completion is one finished instance's record in the batch log. Reports are
// persisted in full so a resumed batch reproduces the merged stream
// byte-for-byte without re-checking the instance.
type completion struct {
	Subject string           `json:"subject"`
	Group   string           `json:"group"`
	Elapsed time.Duration    `json:"elapsedNs"`
	Reports []checker.Report `json:"reports,omitempty"`
}

// openBatchLog creates dir's batch log under tag or, when resuming, opens it
// and returns the completions of a previous run by instance key. A fresh
// batch replaces any old log, so old completions can never satisfy a later
// Resume by accident; a resumed one refuses a log written for another
// instance set (storage.ErrStale).
func openBatchLog(dir string, tag uint64, resume bool, faults *faultpoint.Set) (*storage.JournalWriter, map[string]*completion, error) {
	path := filepath.Join(dir, JournalName)
	if !resume {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		w, err := storage.CreateJournal(path, tag, faults)
		return w, nil, err
	}
	w, recs, err := storage.OpenJournal[completion](path, tag, faults)
	if err != nil {
		return nil, nil, fmt.Errorf("scheduler: resume: %w", err)
	}
	done := make(map[string]*completion, len(recs))
	for i := range recs {
		done[recs[i].Subject+"\x00"+recs[i].Group] = &recs[i]
	}
	return w, done, nil
}

// batchTag fingerprints an instance set: each instance's key and its
// checker.Checker.Fingerprint, in key order. A batch log written for another
// set — an edited subject, a dropped property group, an FSM edited under the
// same name, another unroll depth — carries another tag.
func batchTag(instances []Instance) uint64 {
	lines := make([]string, len(instances))
	for i := range instances {
		in := &instances[i]
		lines[i] = fmt.Sprintf("%q %x\n", in.Key(), checker.New(in.FSMs, in.Opts).Fingerprint(in.Source))
	}
	slices.Sort(lines)
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
	}
	return h.Sum64()
}

// prepStore lazily builds and shares one checker.Prepared per compilation
// unit and options, keyed on the preparing checker's Fingerprint, and with it
// the unit's constraint memo; a nil store prepares every time and keeps
// nothing. The entry mutex serializes same-key prepares (the second claimant
// waits and reuses rather than duplicating the alias fixpoint); distinct keys
// prepare concurrently. Errors are not memoized: if the building instance's
// deadline expires mid-prepare, the next instance of that key retries under
// its own deadline.
type prepStore struct {
	mu      sync.Mutex
	entries map[uint64]*prepEntry
}

type prepEntry struct {
	mu   sync.Mutex
	prep *checker.Prepared
}

// get returns source's Prepared under copts and the key it is stored under.
func (ps *prepStore) get(ctx context.Context, source string, copts checker.Options) (*checker.Prepared, uint64, error) {
	// The frontend is prepared without FSMs, so it is never sliced and serves
	// every property group alike.
	pc := checker.New(nil, copts)
	if ps == nil {
		prep, err := pc.PrepareSource(ctx, source)
		return prep, 0, err
	}
	key := pc.Fingerprint(source)
	ps.mu.Lock()
	e := ps.entries[key]
	if e == nil {
		e = &prepEntry{}
		ps.entries[key] = e
	}
	ps.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.prep != nil {
		return e.prep, key, nil
	}
	prep, err := pc.PrepareSource(ctx, source)
	if err != nil {
		return nil, key, err
	}
	e.prep = prep
	return prep, key, nil
}

// runOne executes a single instance under its per-instance deadline, in the
// worker's scope.
func runOne(ctx context.Context, in *Instance, opts Options, preps *prepStore, scope trace.Scope) InstanceResult {
	res := InstanceResult{Subject: in.Subject, Group: in.Group}
	ictx := ctx
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ictx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	copts := in.Opts
	// The worker's lane replaces the instance's recorder and progress
	// tracker; the instance keeps its own fault set.
	scope.Faults = in.Opts.Scope.Faults
	copts.Scope = scope
	if opts.WorkDir != "" && copts.WorkDir == "" {
		copts.WorkDir = filepath.Join(opts.WorkDir, pathSafe(in.Subject)+"--"+pathSafe(in.Group))
	}
	start := time.Now()
	prep, key, err := preps.get(ictx, in.Source, copts)
	res.prepKey = key
	var r *checker.Result
	if err == nil {
		r, err = checker.New(in.FSMs, copts).CheckPrepared(ictx, prep)
	}
	res.Elapsed = time.Since(start)
	res.Result, res.Err = r, err
	if err != nil && errors.Is(err, context.DeadlineExceeded) {
		res.TimedOut = true
	}
	return res
}

// schedStats computes a finished batch's scheduler counters from what each
// instance result already holds. Resumed instances never entered the queue
// and are not counted; every other one was enqueued, picked up and ended ok or
// failed (an analysis error or a timeout). The ready queue is deepest right after some enqueue: that many
// have been enqueued by then, less the ones a worker picked up before it.
func schedStats(results []InstanceResult) metrics.SchedSnapshot {
	var s metrics.SchedSnapshot
	var enqs, deqs []time.Time
	for i := range results {
		r := &results[i]
		if r.Resumed {
			continue
		}
		s.Enqueued++
		s.Started++
		if r.Err == nil {
			s.Completed++
		} else {
			s.Failed++
		}
		s.TotalWait += r.Wait
		s.MaxWait = max(s.MaxWait, r.Wait)
		s.TotalRun += r.Elapsed
		s.MaxRun = max(s.MaxRun, r.Elapsed)
		enqs = append(enqs, r.enq)
		deqs = append(deqs, r.enq.Add(r.Wait))
	}
	slices.SortFunc(enqs, time.Time.Compare)
	slices.SortFunc(deqs, time.Time.Compare)
	picked := 0
	for i, at := range enqs {
		for picked < len(deqs) && deqs[picked].Before(at) {
			picked++
		}
		s.MaxDepth = max(s.MaxDepth, int64(i+1-picked))
	}
	return s
}

// cacheProbes sums the memos' lookups and hits from the probes each
// instance's engines counted. Every dataflow phase counts. An alias phase
// counts once per prepStore key when its instances share one prepared alias
// closure (sharedAlias: its stats are copied into each), else once per
// instance. A resumed or failed instance counts nothing.
func cacheProbes(results []InstanceResult, sharedAlias bool) (lookups, hits int64) {
	aliasCounted := map[uint64]bool{}
	for i := range results {
		r := results[i].Result
		if r == nil || results[i].Resumed {
			continue
		}
		lookups += r.Dataflow.CacheLookups
		hits += r.Dataflow.CacheHits
		if sharedAlias {
			if aliasCounted[results[i].prepKey] {
				continue
			}
			aliasCounted[results[i].prepKey] = true
		}
		lookups += r.Alias.CacheLookups
		hits += r.Alias.CacheHits
	}
	return lookups, hits
}

// pathSafe makes a key component usable as a directory name.
func pathSafe(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ':', '*', '?', '"', '<', '>', '|', 0:
			return '_'
		}
		return r
	}, s)
}

// mergeReports flattens per-instance reports into one totally-ordered
// stream. Instances are already key-sorted; the final order depends only on
// report content plus the (subject, group) key, never on completion order.
func mergeReports(results []InstanceResult) []Report {
	var merged []Report
	for i := range results {
		ir := &results[i]
		if ir.Result == nil {
			continue
		}
		for _, r := range ir.Result.Reports {
			merged = append(merged, Report{Subject: ir.Subject, Group: ir.Group, Report: r})
		}
	}
	slices.SortStableFunc(merged, func(a, b Report) int {
		return cmp.Or(strings.Compare(a.Subject, b.Subject), checker.CompareReports(a.Report, b.Report),
			strings.Compare(a.Group, b.Group))
	})
	return merged
}
