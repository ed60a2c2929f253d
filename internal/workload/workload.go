// Package workload generates the synthetic subject programs of the
// evaluation (DESIGN.md §1). The paper analyzes ZooKeeper, Hadoop, HDFS and
// HBase; those codebases (and the manual TP/FP inspection the authors
// performed) are not reproducible inputs, so each subject is replaced by a
// deterministic generated MiniLang program whose *ground truth* is known:
// every seeded defect records its allocation line, checker and kind, and
// every seeded false-positive pattern records why the analysis is expected
// to over-approximate it (may-alias on collection-fetched objects — the
// same root cause as the paper's HDFS socket FP).
//
// The per-subject seeding plan follows Table 2 of the paper exactly, so a
// faithful analysis reproduces the table's shape.
package workload

import (
	"fmt"
	"math/rand"
	"strings"
)

// Seeded is one planted pattern with ground truth.
type Seeded struct {
	// Line is the allocation line of the object of interest.
	Line int
	// Type is the object type (FileWriter, Lock, Socket, Exception).
	Type string
	// Checker names the FSM expected to fire (io, lock, exception, socket).
	Checker string
	// Kind is "leak" or "error-transition".
	Kind string
	// ExpectFP marks patterns that are *correct* code the analysis is
	// expected to flag anyway (the evaluation counts these as FPs).
	ExpectFP bool
}

// LintSeeded is one planted IR-level defect for the pre-analysis lint
// passes, with exact ground truth: `grapple lint` on the generated source
// must report exactly these (code, line) pairs and nothing else.
type LintSeeded struct {
	// Line is the source line the diagnostic must point at.
	Line int
	// Code is the expected diagnostic code (RD001, DS001, CF001, CF002,
	// UA001).
	Code string
}

// Subject is one generated program.
type Subject struct {
	Name        string
	Description string
	Version     string
	Source      string
	LoC         int
	Seeded      []Seeded
	LintSeeded  []LintSeeded
}

// Profile scales a subject.
type Profile struct {
	Name        string
	Description string
	Version     string
	Seed        int64
	// Services and WorkersPerService shape the call tree
	// main -> service_i -> work_j.
	Services          int
	WorkersPerService int
	// Bug plan: TP/FP counts per checker, mirroring Table 2.
	IOTP, IOFP     int
	LockTP, LockFP int
	ExcTP, ExcFP   int
	SockTP, SockFP int
	// CorrectPerBug controls how many correct patterns pad each buggy one.
	CorrectPerBug int
	// FillerStmts adds plain integer code per worker for bulk.
	FillerStmts int
	// Lint-defect plan: IR-level defects for the pre-analysis passes, each
	// recorded in the LintSeeded manifest with its exact expected code and
	// line. LintDeadBranches also feeds the pruner: every planted
	// constant-guarded branch is a CFET split that pruning removes.
	LintDeadBranches int // always-true/always-false branches (CF001/CF002)
	LintUninitReads  int // reads of never-initialized locals (RD001)
	LintDeadStores   int // stores never read on any path (DS001)
	LintUnusedAllocs int // allocations with no observable use (UA001)
	// Interprocedural lint defects (each uses a per-instance helper function
	// so every seed has a unique line):
	LintNilRets    int // may-return-null helpers dereferenced unchecked (ND001)
	LintDeadParams int // dead parameters / ignored object results (DP001)
	// LintLeakyCalls converts direct typestate leaks into interprocedural
	// ones (resource allocated in a helper, leaked by the caller): each
	// instance seeds BOTH the usual typestate leak (at the helper's
	// allocation line) and an LK001 lint defect (at the call line), drawing
	// from the socket budget first, then io. The per-checker TP totals are
	// unchanged; Table 2 still holds.
	LintLeakyCalls int
	// Concurrency lint defects (docs/concurrency.md); each instance spawns a
	// per-instance helper goroutine. These also exercise the checker's
	// goroutine-sharing widening: the GR001 resource is never released by
	// anyone, yet seeds NO typestate leak — its lifetime continues on the
	// spawned task, so reporting it would be a false positive.
	LintGoroutineLeaks int // resource shared with a goroutine, released by neither side (GR001)
	LintUnsyncShared   int // unguarded event on a goroutine-shared object (GR002)
}

// LeakyCallSplit returns how many interprocedural leaky-call patterns the
// generator actually emits as (socket-typed, io-typed): the knob is capped
// by the direct leak budgets it converts.
func (p Profile) LeakyCallSplit() (sock, io int) {
	sockDirect := maxInt(0, p.SockTP-p.SockFP)
	ioDirect := maxInt(0, p.IOTP-p.IOFP)
	sock = minInt(p.LintLeakyCalls, sockDirect)
	io = minInt(p.LintLeakyCalls-sock, ioDirect)
	return sock, io
}

// Profiles returns the four subject profiles, scaled to this harness while
// preserving the paper's relative sizes (Table 1) and bug mix (Table 2).
func Profiles() []Profile {
	return []Profile{
		{
			Name: "zookeeper-sim", Version: "3.5.0-sim",
			Description: "distributed coordination service (simulated)",
			Seed:        1001, Services: 4, WorkersPerService: 6,
			IOTP: 2, IOFP: 0, LockTP: 0, LockFP: 0,
			ExcTP: 59, ExcFP: 0, SockTP: 4, SockFP: 0,
			CorrectPerBug: 1, FillerStmts: 6,
			LintDeadBranches: 6, LintUninitReads: 3,
			LintDeadStores: 3, LintUnusedAllocs: 3,
			LintNilRets: 2, LintDeadParams: 2, LintLeakyCalls: 2,
		},
		{
			Name: "hadoop-sim", Version: "2.7.5-sim",
			Description: "data-processing platform (simulated)",
			Seed:        1002, Services: 7, WorkersPerService: 8,
			IOTP: 0, IOFP: 0, LockTP: 0, LockFP: 0,
			ExcTP: 54, ExcFP: 2, SockTP: 0, SockFP: 0,
			CorrectPerBug: 2, FillerStmts: 8,
			LintDeadBranches: 4, LintUninitReads: 2,
			LintDeadStores: 2, LintUnusedAllocs: 2,
			LintNilRets: 2, LintDeadParams: 2, LintLeakyCalls: 0,
		},
		{
			Name: "hdfs-sim", Version: "2.0.3-sim",
			Description: "distributed file system (simulated)",
			Seed:        1003, Services: 7, WorkersPerService: 8,
			IOTP: 1, IOFP: 1, LockTP: 1, LockFP: 0,
			ExcTP: 43, ExcFP: 3, SockTP: 4, SockFP: 1,
			CorrectPerBug: 2, FillerStmts: 8,
			LintDeadBranches: 4, LintUninitReads: 2,
			LintDeadStores: 2, LintUnusedAllocs: 2,
			LintNilRets: 2, LintDeadParams: 2, LintLeakyCalls: 2,
		},
		{
			Name: "hbase-sim", Version: "1.1.6-sim",
			Description: "distributed database (simulated)",
			Seed:        1004, Services: 12, WorkersPerService: 10,
			IOTP: 15, IOFP: 2, LockTP: 0, LockFP: 0,
			ExcTP: 176, ExcFP: 8, SockTP: 0, SockFP: 0,
			CorrectPerBug: 1, FillerStmts: 10,
			LintDeadBranches: 8, LintUninitReads: 4,
			LintDeadStores: 4, LintUnusedAllocs: 4,
			LintNilRets: 3, LintDeadParams: 4, LintLeakyCalls: 3,
		},
	}
}

// MiniProfile is a reduced subject for unit tests and quick benchmarks; it
// is not one of the paper's four subjects.
func MiniProfile() Profile {
	return Profile{
		Name: "mini-sim", Version: "0.1-sim",
		Description: "reduced subject for quick runs",
		Seed:        42, Services: 2, WorkersPerService: 3,
		IOTP: 2, IOFP: 1, LockTP: 1, LockFP: 0,
		ExcTP: 4, ExcFP: 1, SockTP: 2, SockFP: 1,
		CorrectPerBug: 1, FillerStmts: 4,
		LintDeadBranches: 2, LintUninitReads: 1,
		LintDeadStores: 1, LintUnusedAllocs: 1,
		LintNilRets: 1, LintDeadParams: 1, LintLeakyCalls: 1,
	}
}

// WideProfile is the frontend-scaling subject at a chosen size: services ×
// workers short worker functions with 60 filler statements each, almost all
// irrelevant to any one property, so parse, lowering, pre-analysis and CFET
// construction do all the work. At 40×50 it has the shape of the
// time-to-verdict benchmark's frontend-wide workload (~255 k LoC); the
// frontend's oracle tests, scaling guard, allocation budgets and
// microbenchmarks use smaller sizes of the same shape.
func WideProfile(services, workers int) Profile {
	return Profile{
		Name: "wide-sim", Version: "0.1-sim",
		Description: "many short functions, mostly irrelevant to the property",
		Seed:        3002, Services: services, WorkersPerService: workers,
		LockTP: 8, IOTP: 8, CorrectPerBug: 1, FillerStmts: 60,
	}
}

// ConcurrencyProfile is the goroutine-heavy subject: every worker mixes the
// classic patterns with spawned tasks, seeding exact GR001/GR002 ground
// truth. It is not one of the paper's four subjects (the paper's engine is
// sequential), so Profiles() excludes it and the Table 1/2 goldens are
// untouched; the concurrency tests select it by name.
func ConcurrencyProfile() Profile {
	return Profile{
		Name: "concurrency-sim", Version: "0.1-sim",
		Description: "goroutine-sharing subject for the GR rules and checker widening",
		Seed:        2001, Services: 3, WorkersPerService: 4,
		IOTP: 2, IOFP: 0, LockTP: 1, LockFP: 0,
		ExcTP: 4, ExcFP: 1, SockTP: 2, SockFP: 0,
		CorrectPerBug: 1, FillerStmts: 4,
		LintDeadBranches: 2, LintUninitReads: 1,
		LintDeadStores: 1, LintUnusedAllocs: 1,
		LintNilRets: 1, LintDeadParams: 1, LintLeakyCalls: 1,
		LintGoroutineLeaks: 4, LintUnsyncShared: 4,
	}
}

// ProfileByName returns the named profile.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	if m := MiniProfile(); m.Name == name {
		return m, true
	}
	if c := ConcurrencyProfile(); c.Name == name {
		return c, true
	}
	return Profile{}, false
}

// builder accumulates source lines and tracks line numbers.
type builder struct {
	lines      []string
	seeded     []Seeded
	lintSeeded []LintSeeded
	rng        *rand.Rand
	varN       int
	// helpers are deferred emitters for per-instance helper functions:
	// interprocedural patterns queue one while writing a worker body and the
	// generator drains the queue at top level after the workers.
	helpers []func(b *builder)
}

func (b *builder) linef(format string, args ...any) int {
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
	return len(b.lines)
}

func (b *builder) fresh(prefix string) string {
	b.varN++
	return fmt.Sprintf("%s%d", prefix, b.varN)
}

func (b *builder) seed(line int, typ, checker, kind string, fp bool) {
	b.seeded = append(b.seeded, Seeded{
		Line: line, Type: typ, Checker: checker, Kind: kind, ExpectFP: fp,
	})
}

func (b *builder) lintSeed(line int, code string) {
	b.lintSeeded = append(b.lintSeeded, LintSeeded{Line: line, Code: code})
}

// Generate builds the subject for a profile.
func Generate(p Profile) *Subject {
	b := &builder{rng: rand.New(rand.NewSource(p.Seed))}
	b.linef("// %s — generated subject (seed %d); ground truth in manifest.", p.Name, p.Seed)
	b.linef("type FileWriter;")
	b.linef("type Lock;")
	b.linef("type Socket;")
	b.linef("type Exception;")
	b.linef("type Box;")
	b.linef("type RareError;")
	b.linef("")

	prelude(b)

	// Assemble the pattern plan. Collection-FP patterns each contribute one
	// genuine leak too, so the direct-TP counts are reduced accordingly and
	// the aliased-exception FP pattern flags two allocations per instance.
	var plan []func(b *builder)
	addN := func(n int, f func(b *builder)) {
		for i := 0; i < n; i++ {
			plan = append(plan, f)
		}
	}
	// Interprocedural leaky calls replace direct leaks one-for-one, so the
	// per-checker TP totals still match Table 2.
	lkSock, lkIO := p.LeakyCallSplit()
	ioDirect := maxInt(0, p.IOTP-p.IOFP) - lkIO
	sockDirect := maxInt(0, p.SockTP-p.SockFP) - lkSock
	addN(ioDirect/2, ioLeakBranch)
	addN(ioDirect-ioDirect/2, ioWriteAfterClose)
	addN(lkIO, ioLeakViaHelper)
	addN(p.IOFP, ioCollectionFP)
	addN(p.LockTP, lockMisorder)
	addN(p.LockFP, lockCollectionFP)
	addN(p.ExcTP, excUnhandled)
	addN(p.ExcFP, excAliasedFP)
	addN(sockDirect/2, sockLeakOnException)
	addN(sockDirect-sockDirect/2, sockReassignLeak)
	addN(lkSock, sockLeakViaHelper)
	addN(p.SockFP, sockCollectionFP)
	bugCount := len(plan)
	// Lint defects ride along after the typestate bug plan is sized; they
	// are typestate-neutral, so they do not contribute correct-code padding.
	addN(p.LintDeadBranches, lintDeadBranch)
	addN(p.LintUninitReads, lintUninitRead)
	addN(p.LintDeadStores, lintDeadStore)
	addN(p.LintUnusedAllocs, lintUnusedAlloc)
	addN(p.LintNilRets, ndNilReturn)
	for i := 0; i < p.LintDeadParams; i++ {
		if i%2 == 0 {
			plan = append(plan, dpDeadParam)
		} else {
			plan = append(plan, dpIgnoredResult)
		}
	}
	for i := 0; i < p.LintGoroutineLeaks; i++ {
		if i%2 == 0 {
			plan = append(plan, grGoroutineLeakSock)
		} else {
			plan = append(plan, grGoroutineLeakIO)
		}
	}
	addN(p.LintUnsyncShared, grUnsyncShared)
	correct := []func(b *builder){
		ioCorrect, ioPathSensitiveSafe, ioHelperClose, lockCorrect,
		sockCorrect, excHandled, sockCorrectBothPaths,
	}
	for i := 0; i < bugCount*p.CorrectPerBug+4; i++ {
		plan = append(plan, correct[b.rng.Intn(len(correct))])
	}
	b.rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })

	// Distribute patterns across workers.
	nWorkers := p.Services * p.WorkersPerService
	perWorker := (len(plan) + nWorkers - 1) / nWorkers
	w := 0
	for s := 0; s < p.Services; s++ {
		for k := 0; k < p.WorkersPerService; k++ {
			name := fmt.Sprintf("work_%d_%d", s, k)
			b.linef("fun %s(cfg: int) {", name)
			lo := w * perWorker
			hi := lo + perWorker
			if lo > len(plan) {
				lo = len(plan)
			}
			if hi > len(plan) {
				hi = len(plan)
			}
			for _, pat := range plan[lo:hi] {
				pat(b)
			}
			filler(b, p.FillerStmts)
			b.linef("  return;")
			b.linef("}")
			b.linef("")
			w++
		}
	}
	// Emit the helper functions the interprocedural patterns queued while
	// their call sites were being written.
	for len(b.helpers) > 0 {
		hs := b.helpers
		b.helpers = nil
		for _, h := range hs {
			h(b)
		}
	}
	for s := 0; s < p.Services; s++ {
		b.linef("fun service_%d(cfg: int) {", s)
		for k := 0; k < p.WorkersPerService; k++ {
			b.linef("  work_%d_%d(cfg + %d);", s, k, k)
		}
		b.linef("  return;")
		b.linef("}")
		b.linef("")
	}
	b.linef("fun main() {")
	b.linef("  var cfg: int = input();")
	for s := 0; s < p.Services; s++ {
		b.linef("  service_%d(cfg + %d);", s, s)
	}
	b.linef("  return;")
	b.linef("}")

	src := strings.Join(b.lines, "\n") + "\n"
	return &Subject{
		Name:        p.Name,
		Description: p.Description,
		Version:     p.Version,
		Source:      src,
		LoC:         len(b.lines),
		Seeded:      b.seeded,
		LintSeeded:  b.lintSeeded,
	}
}

// ---- correct patterns ----

func ioCorrect(b *builder) {
	w := b.fresh("w")
	i := b.fresh("i")
	b.linef("  var %s: FileWriter = new FileWriter();", w)
	b.linef("  var %s: int = 0;", i)
	b.linef("  while (%s < cfg) {", i)
	b.linef("    %s.write();", w)
	b.linef("    %s = %s + 1;", i, i)
	b.linef("  }")
	b.linef("  %s.close();", w)
}

// ioPathSensitiveSafe is the §2.1-style pattern whose skip-close path is
// infeasible: a path-insensitive checker reports a leak here; Grapple must
// not (the control for path sensitivity).
func ioPathSensitiveSafe(b *builder) {
	w := b.fresh("w")
	x := b.fresh("x")
	b.linef("  var %s: FileWriter = null;", w)
	b.linef("  var %s: int = input();", x)
	b.linef("  if (%s >= 0) {", x)
	b.linef("    %s = new FileWriter();", w)
	b.linef("    %s.write();", w)
	b.linef("  }")
	b.linef("  if (%s >= 0) {", x)
	b.linef("    %s.close();", w)
	b.linef("  }")
}

func ioHelperClose(b *builder) {
	w := b.fresh("w")
	b.linef("  var %s: FileWriter = new FileWriter();", w)
	b.linef("  %s.write();", w)
	b.linef("  closeWriter(%s);", w)
}

func lockCorrect(b *builder) {
	l := b.fresh("l")
	b.linef("  var %s: Lock = new Lock();", l)
	b.linef("  %s.lock();", l)
	b.linef("  %s.unlock();", l)
}

func sockCorrect(b *builder) {
	s := b.fresh("s")
	b.linef("  var %s: Socket = new Socket();", s)
	b.linef("  %s.bind();", s)
	b.linef("  %s.accept();", s)
	b.linef("  %s.close();", s)
}

func sockCorrectBothPaths(b *builder) {
	s := b.fresh("s")
	e := b.fresh("e")
	b.linef("  var %s: Socket = new Socket();", s)
	b.linef("  %s.bind();", s)
	b.linef("  try {")
	b.linef("    mayFail(cfg);")
	b.linef("    %s.close();", s)
	b.linef("  } catch (%s) {", e)
	b.linef("    %s.close();", s)
	b.linef("  }")
}

func excHandled(b *builder) {
	e := b.fresh("e")
	c := b.fresh("c")
	x := b.fresh("x")
	b.linef("  var %s: int = input();", x)
	b.linef("  try {")
	b.linef("    if (%s > 7) {", x)
	b.linef("      var %s: Exception = new Exception();", e)
	b.linef("      throw %s;", e)
	b.linef("    }")
	b.linef("  } catch (%s) {", c)
	b.linef("    consume(%s);", x)
	b.linef("  }")
}

// ---- buggy patterns (ground truth TPs) ----

// ioLeakBranch: close happens only on one feasible branch.
func ioLeakBranch(b *builder) {
	w := b.fresh("w")
	x := b.fresh("x")
	line := b.linef("  var %s: FileWriter = new FileWriter();", w)
	b.linef("  var %s: int = input();", x)
	b.linef("  %s.write();", w)
	b.linef("  if (%s > 3) {", x)
	b.linef("    %s.close();", w)
	b.linef("  }")
	b.seed(line, "FileWriter", "io", "leak", false)
}

// ioWriteAfterClose: a feasible use-after-close (the FSM's Error state).
func ioWriteAfterClose(b *builder) {
	w := b.fresh("w")
	x := b.fresh("x")
	line := b.linef("  var %s: FileWriter = new FileWriter();", w)
	b.linef("  var %s: int = input();", x)
	b.linef("  %s.close();", w)
	b.linef("  if (%s > 5) {", x)
	b.linef("    %s.write();", w)
	b.linef("  }")
	b.seed(line, "FileWriter", "io", "error-transition", false)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func lockMisorder(b *builder) {
	l := b.fresh("l")
	line := b.linef("  var %s: Lock = new Lock();", l)
	b.linef("  %s.unlock();", l)
	b.linef("  %s.lock();", l)
	b.linef("  %s.unlock();", l)
	b.seed(line, "Lock", "lock", "error-transition", false)
}

func excUnhandled(b *builder) {
	e := b.fresh("e")
	x := b.fresh("x")
	b.linef("  var %s: int = input();", x)
	b.linef("  if (%s < 0 - 3) {", x)
	line := b.linef("    var %s: Exception = new Exception();", e)
	b.linef("    throw %s;", e)
	b.linef("  }")
	b.seed(line, "Exception", "exception", "leak", false)
}

// sockLeakOnException is the paper's Fig. 1/8a shape: the socket is closed
// only when the guarded call does not throw.
func sockLeakOnException(b *builder) {
	s := b.fresh("s")
	e := b.fresh("e")
	line := b.linef("  var %s: Socket = new Socket();", s)
	b.linef("  %s.bind();", s)
	b.linef("  try {")
	b.linef("    mayFail(cfg);")
	b.linef("    %s.close();", s)
	b.linef("  } catch (%s) {", e)
	b.linef("    consume(cfg);")
	b.linef("  }")
	b.seed(line, "Socket", "socket", "leak", false)
}

// sockReassignLeak is the reconfigure idiom of the paper's Fig. 1: the old
// channel is replaced by a new one and only the replacement gets closed, so
// the old socket leaks on the reconfiguration path.
func sockReassignLeak(b *builder) {
	s := b.fresh("s")
	s2 := b.fresh("s")
	x := b.fresh("x")
	line := b.linef("  var %s: Socket = new Socket();", s)
	b.linef("  %s.bind();", s)
	b.linef("  var %s: int = input();", x)
	b.linef("  if (%s > 0) {", x)
	b.linef("    var %s: Socket = new Socket();", s2)
	b.linef("    %s.bind();", s2)
	b.linef("    %s.close();", s2)
	b.linef("  } else {")
	b.linef("    %s.close();", s)
	b.linef("  }")
	b.seed(line, "Socket", "socket", "leak", false)
}

// ---- expected-FP patterns (correct code the analysis over-approximates) ----

// ioCollectionFP: two writers stored in the same field; the one fetched
// back is closed. The may-alias on the collection load forces a
// may-not-alias bypass, so the *actually closed* writer is still reported —
// the same FP cause as the paper's HDFS socket-from-a-collection FP. The
// overwritten writer is a genuine leak (TP).
func ioCollectionFP(b *builder) {
	box := b.fresh("box")
	w1 := b.fresh("w")
	w2 := b.fresh("w")
	o := b.fresh("o")
	b.linef("  var %s: Box = new Box();", box)
	l1 := b.linef("  var %s: FileWriter = new FileWriter();", w1)
	l2 := b.linef("  var %s: FileWriter = new FileWriter();", w2)
	b.linef("  %s.fw = %s;", box, w1)
	b.linef("  %s.fw = %s;", box, w2)
	b.linef("  var %s: FileWriter = %s.fw;", o, box)
	b.linef("  %s.close();", o)
	b.seed(l1, "FileWriter", "io", "leak", false) // truly leaked (overwritten)
	b.seed(l2, "FileWriter", "io", "leak", true)  // closed at runtime: FP
}

func sockCollectionFP(b *builder) {
	box := b.fresh("box")
	s1 := b.fresh("s")
	s2 := b.fresh("s")
	o := b.fresh("o")
	b.linef("  var %s: Box = new Box();", box)
	l1 := b.linef("  var %s: Socket = new Socket();", s1)
	l2 := b.linef("  var %s: Socket = new Socket();", s2)
	b.linef("  %s.sock = %s;", box, s1)
	b.linef("  %s.sock = %s;", box, s2)
	b.linef("  var %s: Socket = %s.sock;", o, box)
	b.linef("  %s.bind();", o)
	b.linef("  %s.close();", o)
	b.seed(l1, "Socket", "socket", "leak", false)
	b.seed(l2, "Socket", "socket", "leak", true)
}

func lockCollectionFP(b *builder) {
	box := b.fresh("box")
	l1 := b.fresh("l")
	o := b.fresh("o")
	b.linef("  var %s: Box = new Box();", box)
	line := b.linef("  var %s: Lock = new Lock();", l1)
	b.linef("  %s.lk = %s;", box, l1)
	b.linef("  var %s: Lock = %s.lk;", o, box)
	b.linef("  %s.lock();", o)
	b.linef("  %s.unlock();", o)
	b.seed(line, "Lock", "lock", "leak", true)
}

// excAliasedFP: the thrown-and-caught exception may alias an untracked
// error object through a conditional, so the throw/catch events get
// may-not-alias bypasses and a spurious Thrown-at-exit path survives. The
// code is correct (the exception is always caught); the analysis flags it —
// the same over-approximation family as the paper's nested-try FPs.
func excAliasedFP(b *builder) {
	e := b.fresh("e")
	c := b.fresh("c")
	x := b.fresh("x")
	line := b.linef("  var %s: Exception = new Exception();", e)
	b.linef("  var %s: int = input();", x)
	b.linef("  if (%s > 0) { %s = new RareError(); }", x, e)
	b.linef("  try {")
	b.linef("    throw %s;", e)
	b.linef("  } catch (%s) {", c)
	b.linef("    consume(%s);", x)
	b.linef("  }")
	b.seed(line, "Exception", "exception", "leak", true)
}

// filler emits plain integer computation (bulk + SMT work). The accumulator
// is sunk through consume so none of its stores are dead: the generated
// subjects stay lint-clean apart from the defects planted on purpose.
func filler(b *builder, n int) {
	if n <= 0 {
		return
	}
	v := b.fresh("acc")
	b.linef("  var %s: int = cfg;", v)
	for i := 0; i < n; i++ {
		switch b.rng.Intn(3) {
		case 0:
			b.linef("  %s = %s + %d;", v, v, b.rng.Intn(9)+1)
		case 1:
			b.linef("  %s = %s * 2 - %d;", v, v, b.rng.Intn(5))
		default:
			t := b.fresh("t")
			b.linef("  var %s: int = %s - %d;", t, v, b.rng.Intn(7))
			b.linef("  if (%s > %d) {", t, b.rng.Intn(20))
			b.linef("    %s = %s + 1;", v, v)
			b.linef("  }")
		}
	}
	b.linef("  consume(%s);", v)
}

// ---- lint-defect patterns (IR-level ground truth for `grapple lint`) ----

// lintDeadBranch plants a branch whose condition constant-folds, so one arm
// is unreachable (CF001/CF002). SCCP decides the branch; with pruning on the
// CFET never splits here, which is what the prune ablation measures.
func lintDeadBranch(b *builder) {
	d := b.fresh("db")
	base := b.rng.Intn(5) + 1
	if b.rng.Intn(2) == 0 {
		b.linef("  var %s: int = %d;", d, base)
		line := b.linef("  if (%s > %d) {", d, base+2)
		b.linef("    %s = %s + 1;", d, d)
		b.linef("  }")
		b.lintSeed(line, "CF002")
	} else {
		b.linef("  var %s: int = %d;", d, base+3)
		line := b.linef("  if (%s > %d) {", d, base)
		b.linef("    %s = %s + 1;", d, d)
		b.linef("  }")
		b.lintSeed(line, "CF001")
	}
	b.linef("  consume(%s);", d)
}

// lintUninitRead plants a read of a declared-but-never-initialized local
// (RD001 on the reading line).
func lintUninitRead(b *builder) {
	u := b.fresh("u")
	z := b.fresh("z")
	b.linef("  var %s: int;", u)
	line := b.linef("  var %s: int = %s + cfg;", z, u)
	b.lintSeed(line, "RD001")
	b.linef("  consume(%s);", z)
}

// lintDeadStore plants a store whose value is never read on any path
// (DS001 on the storing line).
func lintDeadStore(b *builder) {
	s := b.fresh("ds")
	line := b.linef("  var %s: int = cfg + %d;", s, b.rng.Intn(9)+1)
	b.lintSeed(line, "DS001")
}

// lintUnusedAlloc plants an allocation that is never used: no events, no
// stores, no escapes (UA001 on the allocation line). Box is FSM-free, so the
// typestate checkers are unaffected.
func lintUnusedAlloc(b *builder) {
	g := b.fresh("ua")
	line := b.linef("  var %s: Box = new Box();", g)
	b.lintSeed(line, "UA001")
}

// ---- interprocedural lint patterns (per-instance helper functions) ----

// sockLeakViaHelper converts a direct socket leak into an interprocedural
// one: a helper allocates, binds and returns a fresh socket, and the caller
// closes it on only one branch. It seeds the usual typestate leak at the
// helper's allocation line AND an LK001 lint defect at the call line.
func sockLeakViaHelper(b *builder) {
	h := b.fresh("openSock")
	s := b.fresh("s")
	x := b.fresh("x")
	line := b.linef("  var %s: Socket = %s();", s, h)
	b.lintSeed(line, "LK001")
	b.linef("  var %s: int = input();", x)
	b.linef("  if (%s > 0) {", x)
	b.linef("    %s.close();", s)
	b.linef("  }")
	b.helpers = append(b.helpers, func(b *builder) {
		hs := b.fresh("hs")
		b.linef("fun %s(): Socket {", h)
		alloc := b.linef("  var %s: Socket = new Socket();", hs)
		b.linef("  %s.bind();", hs)
		b.linef("  return %s;", hs)
		b.linef("}")
		b.linef("")
		b.seed(alloc, "Socket", "socket", "leak", false)
	})
}

// ioLeakViaHelper is the FileWriter variant of sockLeakViaHelper.
func ioLeakViaHelper(b *builder) {
	h := b.fresh("openLog")
	w := b.fresh("w")
	x := b.fresh("x")
	line := b.linef("  var %s: FileWriter = %s();", w, h)
	b.lintSeed(line, "LK001")
	b.linef("  var %s: int = input();", x)
	b.linef("  if (%s > 3) {", x)
	b.linef("    %s.close();", w)
	b.linef("  }")
	b.helpers = append(b.helpers, func(b *builder) {
		hw := b.fresh("hw")
		b.linef("fun %s(): FileWriter {", h)
		alloc := b.linef("  var %s: FileWriter = new FileWriter();", hw)
		b.linef("  %s.write();", hw)
		b.linef("  return %s;", hw)
		b.linef("}")
		b.linef("")
		b.seed(alloc, "FileWriter", "io", "leak", false)
	})
}

// ndNilReturn plants an unchecked dereference of a may-return-null helper:
// ND001 fires at the first dereference line. The pattern is
// typestate-neutral — on the path where the helper allocates, the writer is
// written and closed; on the null path no tracked object exists.
func ndNilReturn(b *builder) {
	h := b.fresh("findWriter")
	w := b.fresh("w")
	b.linef("  var %s: FileWriter = %s(cfg);", w, h)
	line := b.linef("  %s.write();", w)
	b.lintSeed(line, "ND001")
	b.linef("  %s.close();", w)
	b.helpers = append(b.helpers, func(b *builder) {
		hw := b.fresh("hw")
		b.linef("fun %s(sel: int): FileWriter {", h)
		b.linef("  var %s: FileWriter = null;", hw)
		b.linef("  if (sel > 3) {")
		b.linef("    %s = new FileWriter();", hw)
		b.linef("  }")
		b.linef("  return %s;", hw)
		b.linef("}")
		b.linef("")
	})
}

// dpDeadParam plants a helper with one never-read parameter: DP001 fires at
// the helper's declaration line.
func dpDeadParam(b *builder) {
	h := b.fresh("tune")
	t := b.fresh("t")
	b.linef("  var %s: int = %s(cfg, cfg);", t, h)
	b.linef("  consume(%s);", t)
	b.helpers = append(b.helpers, func(b *builder) {
		line := b.linef("fun %s(a: int, extra: int): int {", h)
		b.linef("  return a + 1;")
		b.linef("}")
		b.linef("")
		b.lintSeed(line, "DP001")
	})
}

// dpIgnoredResult plants a call whose object-typed result is discarded:
// DP001 fires at the call line. Box carries no FSM, so typestate checkers
// are unaffected.
func dpIgnoredResult(b *builder) {
	h := b.fresh("makeBox")
	line := b.linef("  %s();", h)
	b.lintSeed(line, "DP001")
	b.helpers = append(b.helpers, func(b *builder) {
		hb := b.fresh("hb")
		b.linef("fun %s(): Box {", h)
		b.linef("  var %s: Box = new Box();", hb)
		b.linef("  return %s;", hb)
		b.linef("}")
		b.linef("")
	})
}

// ---- concurrency lint patterns (spawned per-instance helper goroutines) ----

// grGoroutineLeakSock plants the GR001 shape: a socket allocated by the
// worker is handed to a spawned goroutine and neither side ever closes it.
// The spawner performs no events on the socket itself, so the pattern stays
// inert for GR002 even when another pattern puts a guard in scope. It seeds
// NO typestate entry: the site is goroutine-shared, so the checker's
// sharing widening must keep the leak report suppressed — any io/socket
// report here shows up as an unmatched FP in the evaluation.
func grGoroutineLeakSock(b *builder) {
	h := b.fresh("shipSock")
	s := b.fresh("s")
	b.linef("  var %s: Socket = new Socket();", s)
	line := b.linef("  spawn %s(%s);", h, s)
	b.lintSeed(line, "GR001")
	b.helpers = append(b.helpers, func(b *builder) {
		b.linef("fun %s(sk: Socket) {", h)
		b.linef("  sk.bind();")
		b.linef("  sk.accept();")
		b.linef("  return;")
		b.linef("}")
		b.linef("")
	})
}

// grGoroutineLeakIO is the FileWriter variant of grGoroutineLeakSock.
func grGoroutineLeakIO(b *builder) {
	h := b.fresh("shipLog")
	w := b.fresh("w")
	b.linef("  var %s: FileWriter = new FileWriter();", w)
	line := b.linef("  spawn %s(%s);", h, w)
	b.lintSeed(line, "GR001")
	b.helpers = append(b.helpers, func(b *builder) {
		b.linef("fun %s(lg: FileWriter) {", h)
		b.linef("  lg.write();")
		b.linef("  return;")
		b.linef("}")
		b.linef("")
	})
}

// grUnsyncShared plants the GR002 shape: a writer shared with a spawned
// goroutine gets one unguarded write (seeded) and one lock-protected flush
// (clean); the goroutine closes the writer, so GR001 stays silent (clean
// ownership transfer) and the sequential typestate walk ends in an
// accepting state. Every lock pattern in the generator releases its guard
// before returning, so the seeded write always sits in unguarded territory
// no matter how patterns are packed into a worker.
func grUnsyncShared(b *builder) {
	h := b.fresh("drainLog")
	l := b.fresh("l")
	w := b.fresh("w")
	b.linef("  var %s: Lock = new Lock();", l)
	b.linef("  var %s: FileWriter = new FileWriter();", w)
	line := b.linef("  %s.write();", w)
	b.lintSeed(line, "GR002")
	b.linef("  %s.lock();", l)
	b.linef("  %s.flush();", w)
	b.linef("  %s.unlock();", l)
	b.linef("  spawn %s(%s);", h, w)
	b.helpers = append(b.helpers, func(b *builder) {
		b.linef("fun %s(lg: FileWriter) {", h)
		b.linef("  lg.close();")
		b.linef("  return;")
		b.linef("}")
		b.linef("")
	})
}

// prelude emits the shared helpers every subject includes: a closing helper
// (interprocedural close) and a guarded thrower (exception-path workloads).
func prelude(b *builder) {
	b.linef("fun closeWriter(w: FileWriter) {")
	b.linef("  w.close();")
	b.linef("  return;")
	b.linef("}")
	b.linef("fun mayFail(n: int) {")
	b.linef("  if (n > 5) {")
	b.linef("    var ex: Exception = new Exception();")
	b.linef("    throw ex;")
	b.linef("  }")
	b.linef("  return;")
	b.linef("}")
	// consume is a branch-free, throw-free value sink: calling it keeps a
	// variable live without splitting any CFET path. It passes its argument
	// back out so the parameter is genuinely used (no DP001) and the ignored
	// int result stays idiomatic.
	b.linef("fun consume(n: int): int {")
	b.linef("  return n;")
	b.linef("}")
	b.linef("")
}
