package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	grapple "github.com/grapple-system/grapple"
	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/constraint"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/grammar"
	"github.com/grapple-system/grapple/internal/smt"
	"github.com/grapple-system/grapple/internal/storage"
)

const (
	// probeReps: every probe is timed this many times and the best kept.
	probeReps = 3
	// probeCap bounds the pairs, encodings and records one probe walks, so a
	// traced run stays well inside the driver's per-run limit.
	probeCap = 100_000
)

// probeSink keeps the compiler from discarding a probed call's result.
var probeSink int

// harvestPart reads every partition file of one closure phase left in a
// kept WorkDir.
func harvestPart(dir string) ([]storage.Edge, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "part-*.edges"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var edges []storage.Edge
	for _, p := range paths {
		if edges, _, _, err = storage.ReadPart(p, edges); err != nil {
			return nil, err
		}
	}
	return edges, nil
}

// edgePair is two adjacent edges x->y, y->z and the grammar heads their
// labels produce: one join candidate as the engine sees it.
type edgePair struct {
	e1, e2 *storage.Edge
	heads  []grammar.Label
}

// adjacentPairs samples up to limit adjacent pairs in a deterministic order.
func adjacentPairs(edges []storage.Edge, limit int) [][2]*storage.Edge {
	bySrc := map[uint32][]int32{}
	for i := range edges {
		bySrc[edges[i].Src] = append(bySrc[edges[i].Src], int32(i))
	}
	var out [][2]*storage.Edge
	// Take at most a few successors per edge so the sample spans the graph
	// instead of exhausting one hub vertex.
	const perEdge = 4
	for i := range edges {
		next := bySrc[edges[i].Dst]
		for k := 0; k < len(next) && k < perEdge; k++ {
			out = append(out, [2]*storage.Edge{&edges[i], &edges[next[k]]})
			if len(out) == limit {
				return out
			}
		}
	}
	return out
}

// bestOf times f probeReps times and returns the best nanoseconds per op.
func bestOf(ops int, f func()) float64 {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < probeReps; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return ratio(float64(best.Nanoseconds()), float64(ops))
}

func sameEdge(a, b *storage.Edge) bool {
	return a.Src == b.Src && a.Dst == b.Dst && a.Label == b.Label && a.Gen == b.Gen &&
		a.HasRel == b.HasRel && a.Rel == b.Rel && a.Enc.Equal(b.Enc)
}

// probeMetrics times the join's building blocks (the P metrics) over real
// edges harvested from the kept WorkDir of a check of source. Every probe
// asserts on its output, so none can time a no-op. minEdges is the least
// harvest the probes accept.
func probeMetrics(source string, fsms []*grapple.FSM, workDir, scratch string, minEdges int) (metrics, error) {
	l, err := lowerSource(source)
	if err != nil {
		return nil, err
	}
	ic, ag, err := buildICFET(l, fsms)
	if err != nil {
		return nil, err
	}
	alias, err := harvestPart(filepath.Join(workDir, "alias"))
	if err != nil {
		return nil, err
	}
	dataflow, err := harvestPart(filepath.Join(workDir, "dataflow"))
	if err != nil {
		return nil, err
	}
	if n := len(alias) + len(dataflow); n < minEdges {
		return nil, fmt.Errorf("probes: harvested %d edges from %s, want at least %d", n, workDir, minEdges)
	}
	m := metrics{}

	// storage.Edge.Key: the dedupe key, once per head per candidate. Only
	// the hash is timed; the map the assertion and the merge probe need is
	// built outside. The closed graph holds no duplicates, so the keys must
	// be distinct.
	all := append(append([]storage.Edge(nil), alias...), dataflow...)
	m.set("storage.edge_key_ns", bestOf(len(all), func() {
		var fold uint64
		for i := range all {
			fold ^= all[i].Key()
		}
		probeSink += int(fold)
	}), "ns")
	keys := make(map[uint64]struct{}, len(all))
	for i := range all {
		keys[all[i].Key()] = struct{}{}
	}
	if len(keys) != len(all) {
		return nil, fmt.Errorf("probes: %d edges gave %d distinct keys", len(all), len(keys))
	}

	// grammar.MatchBinary over adjacent alias edges (the dataflow grammar
	// has a single production, so only the pointer grammar discriminates).
	aliasAdj := adjacentPairs(alias, probeCap)
	matched := 0
	m.set("grammar.match_binary_ns", bestOf(len(aliasAdj), func() {
		matched = 0
		for _, p := range aliasAdj {
			if len(ag.Ptr.G.MatchBinary(p[0].Label, p[1].Label)) > 0 {
				matched++
			}
		}
	}), "ns")
	if matched == 0 {
		return nil, fmt.Errorf("probes: no grammar match among %d adjacent alias pairs", len(aliasAdj))
	}

	// ICFET.Merge over grammar-matched pairs of both phases.
	var pairs []edgePair
	for _, p := range aliasAdj {
		if heads := ag.Ptr.G.MatchBinary(p[0].Label, p[1].Label); len(heads) > 0 {
			pairs = append(pairs, edgePair{p[0], p[1], heads})
		}
	}
	flow := grammar.NewDataflow()
	for _, p := range adjacentPairs(dataflow, probeCap-len(pairs)) {
		pairs = append(pairs, edgePair{p[0], p[1], flow.G.MatchBinary(p[0].Label, p[1].Label)})
	}
	merged := make([]cfet.Enc, len(pairs))
	mergeOK := make([]bool, len(pairs))
	m.set("cfet.merge_ns", bestOf(len(pairs), func() {
		for i, p := range pairs {
			merged[i], mergeOK[i] = ic.Merge(p.e1.Enc, p.e2.Enc)
		}
	}), "ns")
	// A merged candidate the solver accepts was inserted by the engine, so
	// some must already be in the closed graph. One that is not there was
	// rejected as unsatisfiable, widened away or merged to a conflict.
	inClosure := 0
	var encs []cfet.Enc
	seenEnc := map[string]bool{}
	for i, p := range pairs {
		if !mergeOK[i] {
			continue // the two paths lie on conflicting branches
		}
		cand := storage.Edge{Src: p.e1.Src, Dst: p.e2.Dst, Enc: merged[i], HasRel: p.e1.HasRel}
		if cand.HasRel {
			cand.Rel = fsm.Compose(p.e1.Rel, p.e2.Rel)
		}
		for _, h := range p.heads {
			cand.Label = h
			if _, ok := keys[cand.Key()]; ok {
				inClosure++
			}
		}
		if k := merged[i].String(nil); len(merged[i]) > 0 && !seenEnc[k] {
			seenEnc[k] = true
			encs = append(encs, merged[i])
		}
	}
	if inClosure == 0 {
		return nil, fmt.Errorf("probes: none of %d merged candidates is in the closed graph: ICFET and harvest do not line up", len(pairs))
	}

	// ICFET.Decode and Solver.Solve over the distinct merged encodings: the
	// work a constraint-cache miss pays.
	conjs := make([]constraint.Conj, len(encs))
	var decodeErr error
	m.set("cfet.decode_ns", bestOf(len(encs), func() {
		for i, e := range encs {
			c, err := ic.Decode(e)
			if err != nil {
				decodeErr = err
			}
			conjs[i] = c
		}
	}), "ns")
	if decodeErr != nil {
		return nil, fmt.Errorf("probes: decode: %w", decodeErr)
	}
	var solvable []constraint.Conj
	for _, c := range conjs {
		if len(c) > 0 {
			solvable = append(solvable, c)
		}
	}
	if len(solvable) == 0 {
		return nil, fmt.Errorf("probes: %d encodings decoded to no constraint at all", len(encs))
	}
	var sat int64
	m.set("smt.solve_ns", bestOf(len(solvable), func() {
		solver := smt.New(smt.DefaultOptions())
		for _, c := range solvable {
			probeSink += int(solver.Solve(c))
		}
		sat = solver.SatN
		if solver.Calls != int64(len(solvable)) {
			sat = 0
		}
	}), "ns")
	if sat == 0 {
		return nil, fmt.Errorf("probes: solver found none of %d harvested constraints satisfiable", len(solvable))
	}

	// WritePart / ReadPart round trip over dataflow records.
	recs := dataflow
	if len(recs) > probeCap {
		recs = recs[:probeCap]
	}
	path := filepath.Join(scratch, "probe.edges")
	defer os.Remove(path)
	var written int64
	var ioErr error
	m.set("storage.writepart_ns_per_record", bestOf(len(recs), func() {
		if written, err = storage.WritePart(path, recs, storage.PartInfo{}); err != nil {
			ioErr = err
		}
	}), "ns")
	var back []storage.Edge
	m.set("storage.readpart_ns_per_record", bestOf(len(recs), func() {
		if back, _, _, err = storage.ReadPart(path, back[:0]); err != nil {
			ioErr = err
		}
	}), "ns")
	if ioErr != nil {
		return nil, fmt.Errorf("probes: partition round trip: %w", ioErr)
	}
	if len(back) != len(recs) {
		return nil, fmt.Errorf("probes: wrote %d records, read %d", len(recs), len(back))
	}
	for i := range recs {
		if !sameEdge(&recs[i], &back[i]) {
			return nil, fmt.Errorf("probes: record %d changed in the round trip", i)
		}
	}
	m.set("storage.bytes_per_edge", ratio(float64(written), float64(len(recs))), "B")
	return m, nil
}
