// Concurrency lint rules over the MHP facts:
//
//	GR001 (goroutineleak): a tracked resource allocated in the spawning
//	function is passed to a spawned goroutine and NEITHER side ever
//	releases it. One-sided release is a clean ownership transfer and stays
//	silent — the rule only fires when no possible owner closes the
//	resource, which keeps it zero-false-positive on the ownership idioms
//	real Go code uses (spawn-and-close-inside, spawn-then-close-after).
//
//	GR002 (sharedsync): a typestate event fires on an object shared with a
//	spawned goroutine, the enclosing function has a guard (mutex-shaped
//	object) in scope, and no guard acquire dominates the event. Events the
//	property marked concurrency-safe (sync.Mutex's own lock/unlock,
//	context.CancelFunc invocation) are exempt, as are events on the guard
//	types themselves. The guard-in-scope requirement makes the rule an
//	inconsistency check — "you synchronize this object sometimes" — rather
//	than a global race detector, which is the precision the lint layer
//	promises.
//
// Both rules are inert on spawn-free programs, so pre-concurrency MiniLang
// inputs (and gofront's NoMHP test-reference output) report byte-identically.
package analysis

import (
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/ir"
	"github.com/grapple-system/grapple/internal/lang"
)

// GoroutineLeak is the GR001 rule.
var GoroutineLeak = &Analyzer{
	Name:     "goroutineleak",
	Doc:      "resource passed to a spawned goroutine and released by neither side (GR001)",
	Requires: []*Analyzer{PointsTo, MHP},
	Run:      runGoroutineLeak,
}

func runGoroutineLeak(p *Pass) (any, error) {
	mhp := p.ResultOf(MHP).(*MHPFacts)
	if mhp.SpawnCount == 0 {
		return nil, nil
	}
	spawns := spawnSitesOf(p.Fn)
	if len(spawns) == 0 {
		return nil, nil
	}
	pts := p.ResultOf(PointsTo).(*PointsToResult)
	release := releaseAlphabet(fsm.KnownProperties())

	// Sites allocated in this function — GR001 only charges the spawner for
	// resources it created itself (a resource received from elsewhere has an
	// owner the rule cannot see).
	localSites := map[int32]bool{}
	eachStmt(p.Fn.Body, func(st ir.Stmt) {
		if n, ok := st.(*ir.NewObj); ok {
			localSites[n.Site] = true
		}
	})

	type key struct {
		call int32
		site int32
	}
	reported := map[key]bool{}
	for _, c := range spawns {
		// All functions the spawned task may run; a release by any of them
		// counts as the goroutine taking ownership.
		inTask := p.CG.Reachable([]string{c.Callee})
		for _, a := range c.ObjArgs {
			for _, site := range pts.VarPointsTo(p.Fn.Name, a.Arg) {
				if site < 0 || !localSites[site] || reported[key{c.Site, site}] {
					continue
				}
				typ := p.Prog.AllocSiteType[site]
				rel := release[typ]
				if len(rel) == 0 {
					continue // not a tracked resource type
				}
				if releasesSite(p.Prog, pts, p.Fn.Name, site, rel) {
					continue // spawner keeps ownership and releases
				}
				released := false
				for g := range inTask {
					if releasesSite(p.Prog, pts, g, site, rel) {
						released = true
						break
					}
				}
				if released {
					continue // ownership transferred to the goroutine
				}
				reported[key{c.Site, site}] = true
				p.Reportf("GR001", c.Pos,
					"resource %q (type %s) is shared with spawned goroutine %q but released by neither side",
					a.Arg, typ, c.Callee)
			}
		}
	}
	return nil, nil
}

// releasesSite reports whether fn's body contains a release-alphabet event
// whose receiver may reference site.
func releasesSite(prog *ir.Program, pts *PointsToResult, fn string, site int32, rel map[string]bool) bool {
	f := prog.FunByName[fn]
	if f == nil {
		return false
	}
	found := false
	eachStmt(f.Body, func(st ir.Stmt) {
		if found {
			return
		}
		ev, ok := st.(*ir.Event)
		if !ok || !rel[ev.Method] {
			return
		}
		for _, s := range pts.VarPointsTo(fn, ev.Recv) {
			if s == site {
				found = true
				return
			}
		}
	})
	return found
}

// SharedSync is the GR002 rule.
var SharedSync = &Analyzer{
	Name:     "sharedsync",
	Doc:      "typestate event on a goroutine-shared object without a dominating guard acquire (GR002)",
	Requires: []*Analyzer{PointsTo, MHP},
	Run:      runSharedSync,
}

// guardAlphabets scans the known properties for "guard-shaped" FSMs — an
// accepting initial state with an acquire event into a non-accepting state
// and a release event straight back — and returns the acquire events, the
// release events, and the guard object types. The shape picks out mutex-like
// properties (builtin Lock, the mutex pack's sync_Mutex) and rejects
// resource lifecycles: file-handle's close lands in Closed, not back in
// Init, and exception's catch does not return to the initial state.
func guardAlphabets(fsms []*fsm.FSM) (acquire, release, guardTypes map[string]bool) {
	acquire = map[string]bool{}
	release = map[string]bool{}
	guardTypes = map[string]bool{}
	for _, f := range fsms {
		if !f.IsAccept(f.Init) {
			continue
		}
		for _, a := range f.Events() {
			mid := f.Step(f.Init, a)
			if mid == fsm.ErrorState || mid == f.Init || f.IsAccept(mid) {
				continue
			}
			for _, b := range f.Events() {
				if f.Step(mid, b) == f.Init {
					acquire[a] = true
					release[b] = true
					guardTypes[f.Type] = true
				}
			}
		}
	}
	return acquire, release, guardTypes
}

func runSharedSync(p *Pass) (any, error) {
	mhp := p.ResultOf(MHP).(*MHPFacts)
	if mhp.SpawnCount == 0 || len(mhp.SharedSites) == 0 {
		return nil, nil
	}
	props := fsm.KnownProperties()
	acquire, release, guardTypes := guardAlphabets(props)
	if len(guardTypes) == 0 {
		return nil, nil
	}
	// Only functions with a guard in scope participate: the rule flags
	// inconsistent synchronization, not its absence.
	if !guardInScope(p.Fn, guardTypes) {
		return nil, nil
	}
	pts := p.ResultOf(PointsTo).(*PointsToResult)

	// Per-type event alphabets and concurrency-safe exemptions.
	alphabet := map[string]map[string]bool{}
	safe := map[string]map[string]bool{}
	for _, f := range props {
		evs := alphabet[f.Type]
		if evs == nil {
			evs = map[string]bool{}
			alphabet[f.Type] = evs
		}
		sf := safe[f.Type]
		if sf == nil {
			sf = map[string]bool{}
			safe[f.Type] = sf
		}
		for _, ev := range f.Events() {
			evs[ev] = true
			if f.IsConcurrencySafe(ev) {
				sf[ev] = true
			}
		}
	}

	// Forward "a guard acquire dominates here" dataflow over the acyclic
	// CFG: acquire sets the flag, release clears it, meet is AND over
	// predecessors, entry starts unguarded. Optimistic init (true) is sound
	// because the CFG is acyclic (loops are statically unrolled) so the
	// fixpoint is reached in topological order.
	blocks := p.CFG.Blocks
	in := make([]bool, len(blocks))
	outF := make([]bool, len(blocks))
	for i := range in {
		in[i], outF[i] = true, true
	}
	transfer := func(b *ir.CFGBlock, g bool) bool {
		for _, st := range b.Stmts {
			if ev, ok := st.(*ir.Event); ok {
				if acquire[ev.Method] {
					g = true
				} else if release[ev.Method] {
					g = false
				}
			}
		}
		return g
	}
	for changed := true; changed; {
		changed = false
		for i, b := range blocks {
			iv := true
			if i == 0 {
				iv = false // entry is unguarded
			} else {
				for _, pr := range b.Preds {
					iv = iv && outF[pr]
				}
			}
			ov := transfer(b, iv)
			if iv != in[i] || ov != outF[i] {
				in[i], outF[i] = iv, ov
				changed = true
			}
		}
	}

	// One finding per receiver variable, at its earliest unguarded event —
	// the first racy touch is the actionable one; repeating it per statement
	// would drown the report.
	type cand struct {
		pos    lang.Pos
		method string
	}
	best := map[string]cand{}
	for i, b := range blocks {
		g := in[i]
		for _, st := range b.Stmts {
			ev, ok := st.(*ir.Event)
			if !ok {
				continue
			}
			if acquire[ev.Method] {
				g = true
				continue
			}
			if release[ev.Method] {
				g = false
				continue
			}
			if g {
				continue
			}
			for _, site := range pts.VarPointsTo(p.Fn.Name, ev.Recv) {
				if site < 0 || !mhp.SharedSites[site] {
					continue
				}
				typ := p.Prog.AllocSiteType[site]
				if guardTypes[typ] || !alphabet[typ][ev.Method] || safe[typ][ev.Method] {
					continue
				}
				if old, ok := best[ev.Recv]; !ok || posBefore(ev.Pos, old.pos) {
					best[ev.Recv] = cand{pos: ev.Pos, method: ev.Method}
				}
				break
			}
		}
	}
	for recv, c := range best {
		p.Reportf("GR002", c.pos,
			"event %q on goroutine-shared %q is not protected by a dominating guard acquire",
			c.method, recv)
	}
	return nil, nil
}

// guardInScope reports whether fn receives or allocates a guard-typed
// object.
func guardInScope(fn *ir.Func, guardTypes map[string]bool) bool {
	for _, pr := range fn.Params {
		if guardTypes[pr.Type] {
			return true
		}
	}
	found := false
	eachStmt(fn.Body, func(st ir.Stmt) {
		if n, ok := st.(*ir.NewObj); ok && guardTypes[n.Type] {
			found = true
		}
	})
	return found
}

func posBefore(a, b lang.Pos) bool {
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Col < b.Col
}
