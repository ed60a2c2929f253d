package scheduler

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/faultpoint"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/metrics"
	"github.com/grapple-system/grapple/internal/smt"
	"github.com/grapple-system/grapple/internal/trace"
	"github.com/grapple-system/grapple/internal/workload"
)

// miniSubjects returns a couple of small distinct subjects.
func miniSubjects(t *testing.T) []Subject {
	t.Helper()
	mini := workload.Generate(workload.MiniProfile())
	second := workload.MiniProfile()
	second.Name = "mini-b"
	second.Seed = 43
	second.IOTP, second.SockTP = 1, 1
	b := workload.Generate(second)
	return []Subject{
		{Name: mini.Name, Source: mini.Source},
		{Name: b.Name, Source: b.Source},
	}
}

// reportBytes renders a merged stream canonically for byte comparison.
func reportBytes(t *testing.T, reports []Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range reports {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func runBatch(t *testing.T, instances []Instance, workers int) *BatchResult {
	t.Helper()
	res, err := Run(context.Background(), instances, Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	for _, ir := range res.Instances {
		if ir.Err != nil {
			t.Fatalf("instance %s/%s: %v", ir.Subject, ir.Group, ir.Err)
		}
	}
	return res
}

// TestDeterministicAcrossWorkersAndOrder is the batch determinism property:
// the merged report stream is byte-identical for workers=1 vs workers=N and
// for shuffled submission order. Run under -race by the Makefile ci target.
func TestDeterministicAcrossWorkersAndOrder(t *testing.T) {
	subjects := miniSubjects(t)
	groups := GroupPerFSM(fsm.Builtins())
	instances := Expand(subjects, groups, checker.Options{})

	base := runBatch(t, instances, 1)
	want := reportBytes(t, base.Reports)
	if len(base.Reports) == 0 {
		t.Fatal("expected warnings from seeded subjects")
	}

	for _, workers := range []int{2, 4, 8} {
		got := reportBytes(t, runBatch(t, instances, workers).Reports)
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: merged reports differ from workers=1", workers)
		}
	}

	for trial := 0; trial < 3; trial++ {
		shuffled := append([]Instance(nil), instances...)
		rand.New(rand.NewSource(int64(trial))).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		got := reportBytes(t, runBatch(t, shuffled, 4).Reports)
		if !bytes.Equal(got, want) {
			t.Fatalf("shuffle trial %d: merged reports differ", trial)
		}
	}
}

// TestSplitEqualsCombined: checking one property per instance merges to the
// same warning *sites* as checking every property in one instance. The
// comparison is at (subject, position, FSM, kind) granularity: the listed
// non-accepting exit states can legitimately differ between granularities,
// because the combined dataflow graph carries every property's tracked
// objects at once and its per-endpoint constraint-variant bookkeeping keeps
// different (equally sound) representatives.
func TestSplitEqualsCombined(t *testing.T) {
	subjects := miniSubjects(t)

	split := runBatch(t, Expand(subjects, GroupPerFSM(fsm.Builtins()), checker.Options{}), 4)
	combined := runBatch(t, Expand(subjects, OneGroup(fsm.Builtins()), checker.Options{}), 2)

	strip := func(rs []Report) []string {
		var out []string
		for _, r := range rs {
			out = append(out, fmt.Sprintf("%s|%d:%d|%s|%s|%s",
				r.Subject, r.Pos.Line, r.Pos.Col, r.FSM, r.Kind, r.Type))
		}
		return out
	}
	a, b := strip(split.Reports), strip(combined.Reports)
	if len(a) != len(b) {
		t.Fatalf("split %d reports, combined %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("report %d differs:\n split:    %s\n combined: %s", i, a[i], b[i])
		}
	}
}

// TestSharedCacheAcrossInstances: a subject's memo, shared through its
// Prepared, must see cross-instance hits — the dataflow phases of different
// property groups pose many of the same constraints, so the 2nd..Nth
// instances of the same subject hit what the earlier ones filled in, which
// instances that each prepare their own memo cannot.
func TestSharedCacheAcrossInstances(t *testing.T) {
	mini := workload.Generate(workload.MiniProfile())
	subjects := []Subject{{Name: mini.Name, Source: mini.Source}}
	instances := Expand(subjects, GroupPerFSM(fsm.Builtins()), checker.Options{})

	shared, err := Run(context.Background(), instances, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if shared.CacheLookups == 0 {
		t.Fatal("shared cache saw no lookups")
	}

	private, err := Run(context.Background(), instances, Options{Workers: 1, noSharedFrontend: true})
	if err != nil {
		t.Fatal(err)
	}
	// Per-instance engine stats: with sharing, later instances hit more.
	if sharedHits, privateHits := instanceHits(shared), instanceHits(private); sharedHits <= privateHits {
		t.Fatalf("sharing produced no extra hits: shared %d <= private %d", sharedHits, privateHits)
	}
	// And identical reports either way (memoization must not change verdicts).
	if !bytes.Equal(reportBytes(t, shared.Reports), reportBytes(t, private.Reports)) {
		t.Fatal("shared vs private cache changed the merged reports")
	}
}

// instanceHits sums the cache hits every instance's engines counted, a
// shared alias phase once per instance that carries it.
func instanceHits(res *BatchResult) int64 {
	var hits int64
	for _, ir := range res.Instances {
		hits += ir.Result.Alias.CacheHits + ir.Result.Dataflow.CacheHits
	}
	return hits
}

// TestCacheProbesCountedOnce: BatchResult's cache counts are summed from the
// probes the instances' engines counted, each probe once. Each compilation
// unit's memo is one the test hands in through Options.Cache: a subject's in
// the shared batch, each instance's in the unshared one, where every instance
// prepares its own unit. With one instance and one join worker at a time and
// memos that evict nothing, every miss inserts a key no earlier probe put, so
// the misses must equal what the memos hold at the end, in both modes.
// Counting a shared alias phase once per instance would overshoot that, and
// dropping a phase would undershoot it. Lookups do not depend on sharing
// either: the unshared batch probes exactly what the shared one probes plus
// the alias probes of each subject's instances after the first, each of those
// repeated alias phases the shared one probe for probe, hits included.
func TestCacheProbesCountedOnce(t *testing.T) {
	subjects := miniSubjects(t)
	instances := Expand(subjects, GroupPerFSM(fsm.Builtins()), checker.Options{Workers: 1})
	run := func(noSharedFrontend bool) *BatchResult {
		ins := append([]Instance(nil), instances...)
		memos := map[string]*smt.Cache{}
		for i := range ins {
			key := ins[i].Subject
			if noSharedFrontend {
				key += "/" + ins[i].Group
			}
			if memos[key] == nil {
				memos[key] = smt.NewCache(1 << 20)
			}
			ins[i].Opts.Cache = memos[key]
		}
		res, err := Run(context.Background(), ins, Options{Workers: 1, noSharedFrontend: noSharedFrontend})
		if err != nil {
			t.Fatal(err)
		}
		var held int64
		for _, m := range memos {
			held += int64(m.Len())
		}
		if misses := res.CacheLookups - res.CacheHits; misses != held {
			t.Fatalf("noSharedFrontend=%v: %d lookups - %d hits = %d misses, but the %d memos hold %d keys",
				noSharedFrontend, res.CacheLookups, res.CacheHits, misses, len(memos), held)
		}
		if want := float64(res.CacheHits) / float64(res.CacheLookups); res.CacheHitRate != want {
			t.Fatalf("hit rate %v, want %v", res.CacheHitRate, want)
		}
		return res
	}
	shared, unshared := run(false), run(true)
	var repeated int64 // alias probes of the instances after each subject's first
	seen := map[string]bool{}
	for i, ir := range shared.Instances {
		a, ua := ir.Result.Alias, unshared.Instances[i].Result.Alias
		if ua.CacheLookups != a.CacheLookups || ua.CacheHits != a.CacheHits {
			t.Fatalf("%s/%s: its own alias phase probed %d/%d lookups/hits, the shared one %d/%d",
				ir.Subject, ir.Group, ua.CacheLookups, ua.CacheHits, a.CacheLookups, a.CacheHits)
		}
		if seen[ir.Subject] {
			repeated += a.CacheLookups
			continue
		}
		seen[ir.Subject] = true
		if a.CacheLookups == a.CacheHits {
			t.Fatalf("%s: the alias phase misses nothing, so the memo is not exercised", ir.Subject)
		}
	}
	if repeated == 0 || unshared.CacheLookups != shared.CacheLookups+repeated {
		t.Fatalf("unshared frontends: %d lookups, want the shared %d plus %d repeated alias probes",
			unshared.CacheLookups, shared.CacheLookups, repeated)
	}
}

// TestFrontendSharing: with the default shared mode, the frontend + alias
// closure is computed once per distinct subject, not once per instance —
// and turning sharing off restores the one-prepare-per-instance behaviour
// with the same merged reports.
func TestFrontendSharing(t *testing.T) {
	subjects := miniSubjects(t)
	instances := Expand(subjects, GroupPerFSM(fsm.Builtins()), checker.Options{})

	shared := runBatch(t, instances, 4)
	if shared.FrontendPrepares != len(subjects) {
		t.Fatalf("prepares = %d, want one per subject (%d)", shared.FrontendPrepares, len(subjects))
	}

	unshared, err := Run(context.Background(), instances, Options{Workers: 4, noSharedFrontend: true})
	if err != nil {
		t.Fatal(err)
	}
	if unshared.FrontendPrepares != len(instances) {
		t.Fatalf("unshared prepares = %d, want one per instance (%d)", unshared.FrontendPrepares, len(instances))
	}
	if !bytes.Equal(reportBytes(t, shared.Reports), reportBytes(t, unshared.Reports)) {
		t.Fatal("frontend sharing changed the merged reports")
	}
}

// loopSrc closes its writer on the loop's second iteration and writes to it
// after the loop, so only an unroll depth of 2 or more sees the write after
// close.
const loopSrc = `
type FileWriter;
fun main() {
  var w: FileWriter = new FileWriter();
  var n: int = input();
  var i: int = 0;
  while (i < n) {
    if (i == 1) {
      w.close();
    }
    i = i + 1;
  }
  w.write();
  w.close();
  return;
}`

// TestSharedPrepareHonoursInstanceOptions: instances share a frontend only
// when it is the one each would prepare itself. Two subjects over one source,
// checked at unroll 1 and 2 on one worker, each report and encode exactly
// what their own single check does — not what the frontend the first of them
// prepared would give the second.
func TestSharedPrepareHonoursInstanceOptions(t *testing.T) {
	group := Group{Name: "io", FSMs: []*fsm.FSM{fsm.BuiltinIO()}}
	var instances []Instance
	for _, depth := range []int{1, 2} {
		instances = append(instances, Instance{
			Subject: fmt.Sprintf("unroll-%d", depth), Group: group.Name,
			Source: loopSrc, FSMs: group.FSMs, Opts: checker.Options{UnrollDepth: depth},
		})
	}
	res := runBatch(t, instances, 1)
	render := func(rs []checker.Report) string {
		var b strings.Builder
		for _, r := range rs {
			fmt.Fprintf(&b, "%s %s|%s|%s\n", r, r.Object, r.Witness, r.WitnessConstraint)
		}
		return b.String()
	}
	for i, in := range instances {
		single, err := checker.New(in.FSMs, in.Opts).CheckSource(in.Source)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Instances[i].Result
		if render(got.Reports) != render(single.Reports) || got.Alias.CFETPaths != single.Alias.CFETPaths {
			t.Errorf("%s: batch %d CFET paths, reports:\n%s\nits single check %d CFET paths, reports:\n%s",
				in.Subject, got.Alias.CFETPaths, render(got.Reports), single.Alias.CFETPaths, render(single.Reports))
		}
	}
	if res.FrontendPrepares != 2 {
		t.Errorf("%d frontends prepared for two unroll depths", res.FrontendPrepares)
	}
}

// TestInstanceTimeout: an absurdly small per-instance deadline fails that
// instance but not the batch.
func TestInstanceTimeout(t *testing.T) {
	mini := workload.Generate(workload.MiniProfile())
	instances := Expand(
		[]Subject{{Name: mini.Name, Source: mini.Source}},
		OneGroup(fsm.Builtins()), checker.Options{})
	res, err := Run(context.Background(), instances, Options{Workers: 1, Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	failed := res.Failed()
	if len(failed) != 1 || !failed[0].TimedOut {
		t.Fatalf("want 1 timed-out instance, got %+v", failed)
	}
	if res.Sched.Failed != 1 {
		t.Fatalf("sched.Failed = %d want 1", res.Sched.Failed)
	}
}

// TestDuplicateKeyRejected: ambiguous merges are refused.
func TestDuplicateKeyRejected(t *testing.T) {
	mini := workload.Generate(workload.MiniProfile())
	in := Instance{Subject: mini.Name, Group: "io", Source: mini.Source, FSMs: fsm.Builtins()[:1]}
	if _, err := Run(context.Background(), []Instance{in, in}, Options{}); err == nil {
		t.Fatal("duplicate (subject, group) accepted")
	}
}

// TestSchedulerCounters: queue metrics reflect the batch shape.
func TestSchedulerCounters(t *testing.T) {
	subjects := miniSubjects(t)
	instances := Expand(subjects, GroupPerFSM(fsm.Builtins()), checker.Options{})
	res := runBatch(t, instances, 2)
	s := res.Sched
	n := int64(len(instances))
	if s.Enqueued != n || s.Started != n || s.Completed != n || s.Failed != 0 {
		t.Fatalf("counters: %+v want %d instances all completed", s, n)
	}
	if s.MaxDepth < 1 || s.MaxDepth > n {
		t.Fatalf("max depth %d out of range [1,%d]", s.MaxDepth, n)
	}
	if s.TotalRun <= 0 {
		t.Fatal("no runtime recorded")
	}
}

// TestSchedStatsFromResults holds the scheduler counters to the instance
// results they are computed from: first hand-built results with known
// enqueue instants, then a real three-worker batch resumed over a partly
// finished one.
func TestSchedStatsFromResults(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	const sec = time.Second
	boom := fmt.Errorf("boom")
	for _, tc := range []struct {
		name    string
		results []InstanceResult
		want    metrics.SchedSnapshot
	}{
		{name: "no instances"},
		{
			name:    "everything restored from the batch log",
			results: []InstanceResult{{Resumed: true, Elapsed: 9 * sec}, {Resumed: true, Elapsed: sec}},
		},
		{
			// All three are queued at once before the first is picked up; the
			// resumed instance's logged runtime is not this batch's.
			name: "ok, failed, timed out, resumed",
			results: []InstanceResult{
				{enq: at(0), Wait: 3 * sec, Elapsed: 4 * sec},
				{Resumed: true, Elapsed: 9 * sec},
				{enq: at(1), Wait: 3 * sec, Elapsed: 2 * sec, Err: boom},
				{enq: at(2), Wait: 1 * sec, Elapsed: 1 * sec, Err: context.DeadlineExceeded, TimedOut: true},
			},
			want: metrics.SchedSnapshot{
				Enqueued: 3, Started: 3, Completed: 1, Failed: 2, MaxDepth: 3,
				TotalWait: 7 * sec, MaxWait: 3 * sec, TotalRun: 7 * sec, MaxRun: 4 * sec,
			},
		},
		{
			// The first is picked up before the second arrives, and the
			// second at once: the queue never holds two.
			name: "queue drains between arrivals",
			results: []InstanceResult{
				{enq: at(2), Wait: 0, Elapsed: 5 * sec},
				{enq: at(0), Wait: 1 * sec, Elapsed: 1 * sec},
			},
			want: metrics.SchedSnapshot{
				Enqueued: 2, Started: 2, Completed: 2, MaxDepth: 1,
				TotalWait: 1 * sec, MaxWait: 1 * sec, TotalRun: 6 * sec, MaxRun: 5 * sec,
			},
		},
	} {
		if got := schedStats(tc.results); got != tc.want {
			t.Errorf("%s:\n got  %+v\n want %+v", tc.name, got, tc.want)
		}
	}

	instances := resumeInstances(t)
	dir := t.TempDir()
	const finished = 3
	faults := faultpoint.New()
	faults.Arm(faultpoint.SchedulerInstance, finished)
	if _, err := Run(context.Background(), instances, Options{
		Workers: 1, WorkDir: dir, Journal: true, Scope: trace.Scope{Faults: faults},
	}); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("kill after %d instances did not fire: %v", finished, err)
	}
	res, err := Run(context.Background(), instances, Options{Workers: 3, WorkDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	s, ran := res.Sched, int64(len(instances)-finished)
	if countResumed(res) != finished || s.Enqueued != ran || s.Started != ran || s.Completed+s.Failed != ran || s.Failed != 0 {
		t.Fatalf("%d of %d instances resumed, counters %+v: want the %d that ran, all completed", countResumed(res), len(instances), s, ran)
	}
	var run, maxRun time.Duration
	for _, ir := range res.Instances {
		if !ir.Resumed {
			run, maxRun = run+ir.Elapsed, max(maxRun, ir.Elapsed)
		}
	}
	if s.MaxDepth < 1 || s.MaxDepth > ran || s.TotalRun != run || s.MaxRun != maxRun || s.MaxWait > s.TotalWait {
		t.Fatalf("counters %+v do not add up to the instance results (run %v, max %v)", s, run, maxRun)
	}
}

// TestBatchMatchesSingleCheck: every batch mode reports what one check of the
// same source reports. concurrency-sim shares objects with spawned tasks, and
// a frontend prepared without the escaped set reports four of them as leaks
// (15 reports against the check's 11). The single check slices and the
// batch does not, which numbers contexts differently, so reports compare by
// site and exit states, not by Object.
func TestBatchMatchesSingleCheck(t *testing.T) {
	src := workload.Generate(workload.ConcurrencyProfile()).Source
	single, err := checker.New(fsm.Builtins(), checker.Options{}).CheckSource(src)
	if err != nil {
		t.Fatal(err)
	}
	site := func(r checker.Report) string {
		return fmt.Sprintf("%d:%d [%s] %s %s %v", r.Pos.Line, r.Pos.Col, r.FSM, r.Kind, r.Type, r.States)
	}
	var want []string
	for _, r := range single.Reports {
		want = append(want, site(r))
	}
	sort.Strings(want)
	subjects := []Subject{{Name: "concurrency-sim", Source: src}}
	for _, tc := range []struct {
		name   string
		groups []Group
		opts   Options
	}{
		{"per-FSM groups", GroupPerFSM(fsm.Builtins()), Options{Workers: 2}},
		{"one group", OneGroup(fsm.Builtins()), Options{Workers: 2}},
		{"no sharing", GroupPerFSM(fsm.Builtins()), Options{Workers: 2, noSharedFrontend: true}},
	} {
		res, err := Run(context.Background(), Expand(subjects, tc.groups, checker.Options{}), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range res.Reports {
			got = append(got, site(r.Report))
		}
		sort.Strings(got)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: batch reports %d warnings, the single check %d:\nbatch:\n%s\nsingle:\n%s",
				tc.name, len(got), len(want), strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestInstanceScope: each instance runs in its worker's scope — the worker's
// trace lane and nothing else. Every checker and engine event lands on a
// worker-NN lane, never on the root lane; the batch Progress sees instance
// lifecycles only, no phase and no superstep; and the batch fault set counts
// completions only, although every instance journals and so passes the
// engine's superstep crash point. An instance's own fault set is kept (its
// engines hit it) and its own progress tracker is replaced (nothing reaches
// it).
func TestInstanceScope(t *testing.T) {
	instances := Expand(miniSubjects(t), GroupPerFSM(fsm.Builtins()), checker.Options{Journal: true})
	if len(instances) < 4 {
		t.Fatalf("%d instances, want at least 4", len(instances))
	}
	ownFaults, ownProg := faultpoint.New(), trace.NewProgress()
	instances[0].Opts.Scope = trace.Scope{Progress: ownProg, Faults: ownFaults}
	var jsonl bytes.Buffer
	rec := trace.NewWriters(nil, &jsonl)
	prog := trace.NewProgress()
	faults := faultpoint.New()
	res, err := Run(context.Background(), instances, Options{
		Workers: 2, WorkDir: t.TempDir(),
		Scope: trace.Scope{Rec: rec, Progress: prog, Faults: faults},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ir := range res.Instances {
		if ir.Err != nil {
			t.Fatalf("instance %s/%s: %v", ir.Subject, ir.Group, ir.Err)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	lanes := map[uint64]string{}
	spans := map[string]int{}
	dec := json.NewDecoder(&jsonl)
	for dec.More() {
		var ev struct {
			Type, Cat, Name string
			TID             uint64
			Args            map[string]any
		}
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == "meta" {
			lanes[ev.TID], _ = ev.Args["name"].(string)
			continue
		}
		if ev.Cat != "checker" && ev.Cat != "engine" && ev.Cat != "storage" {
			continue
		}
		spans[ev.Cat]++
		if lane := lanes[ev.TID]; ev.TID == 0 || !strings.HasPrefix(lane, "worker-") {
			t.Fatalf("%s/%s on lane %d (%q), want a worker lane", ev.Cat, ev.Name, ev.TID, lane)
		}
	}
	if spans["checker"] == 0 || spans["engine"] == 0 {
		t.Fatalf("trace holds %v, want checker and engine events", spans)
	}

	snap := prog.Snapshot()
	if snap.Phase != "" || snap.Superstep != 0 || snap.BatchDone != int64(len(instances)) {
		t.Fatalf("batch progress: phase %q, superstep %d, done %d; want \"\", 0, %d",
			snap.Phase, snap.Superstep, snap.BatchDone, len(instances))
	}
	if got := faults.Count(faultpoint.SchedulerInstance); got != len(instances) {
		t.Fatalf("%d instance hits, want %d", got, len(instances))
	}
	if got := faults.Count(faultpoint.EngineSuperstep); got != 0 {
		t.Fatalf("%d engine superstep hits reached the batch fault set", got)
	}
	if ownFaults.Count(faultpoint.EngineSuperstep) == 0 || ownFaults.Count(faultpoint.SchedulerInstance) != 0 {
		t.Fatalf("instance's own fault set: %d superstep, %d instance hits; want some, 0",
			ownFaults.Count(faultpoint.EngineSuperstep), ownFaults.Count(faultpoint.SchedulerInstance))
	}
	if snap := ownProg.Snapshot(); snap.Phase != "" || snap.Superstep != 0 {
		t.Fatalf("instance's own progress saw phase %q, superstep %d", snap.Phase, snap.Superstep)
	}
}
