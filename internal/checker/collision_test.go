package checker_test

import (
	"context"
	"encoding/binary"
	"path/filepath"
	"sort"
	"testing"

	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/grammar"
	"github.com/grapple-system/grapple/internal/storage"
	"github.com/grapple-system/grapple/internal/workload"
)

// exactIndex is the dedupe index the engine would need if it did not trust
// a 64-bit key: every edge identity ever offered, serialized in full, next
// to the key it hashes to. Two identities under one key is a collision —
// in the engine, a distinct edge silently dropped as a duplicate.
type exactIndex struct {
	byKey      map[uint64]string
	buf        []byte
	identities int
	collisions []string
}

func identity(buf []byte, e *storage.Edge) []byte {
	buf = binary.LittleEndian.AppendUint32(buf[:0], e.Src)
	buf = binary.LittleEndian.AppendUint32(buf, e.Dst)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(e.Label))
	if e.HasRel {
		buf = e.Rel.Pack(append(buf, 1))
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Enc)))
	for _, el := range e.Enc {
		buf = append(buf, byte(el.Kind))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(el.Method))
		buf = binary.LittleEndian.AppendUint64(buf, el.Start)
		buf = binary.LittleEndian.AppendUint64(buf, el.End)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(el.Call))
	}
	return buf
}

func (x *exactIndex) offer(e *storage.Edge) {
	x.buf = identity(x.buf, e)
	k := e.Key()
	prev, seen := x.byKey[k]
	switch {
	case !seen:
		x.byKey[k] = string(x.buf)
		x.identities++
	case prev != string(x.buf):
		x.collisions = append(x.collisions, prev+" | "+string(x.buf))
	}
}

// offerAll offers e under every endpoint triple the engine's insert would
// give it — the edge, its unary heads, its mirror, transitively — each in
// the three precisions insert can store: as is, widened to its call/return
// skeleton, and fully unconstrained.
func (x *exactIndex) offerAll(g *grammar.Grammar, e storage.Edge) {
	type variant struct {
		label   grammar.Label
		swapped bool
	}
	seen := map[variant]bool{}
	work := []variant{{label: e.Label}}
	for len(work) > 0 {
		v := work[0]
		work = work[1:]
		if seen[v] {
			continue
		}
		seen[v] = true
		for _, h := range g.MatchUnary(v.label) {
			work = append(work, variant{h, v.swapped})
		}
		if m := g.Mirror(v.label); m != grammar.NoLabel {
			work = append(work, variant{m, !v.swapped})
		}
		d := e
		d.Label = v.label
		if v.swapped {
			d.Src, d.Dst = e.Dst, e.Src
		}
		x.offer(&d)
		if len(d.Enc) > 0 {
			d.Enc = e.Enc.Skeleton()
			x.offer(&d)
			d.Enc = nil
			x.offer(&d)
		}
	}
}

// auditPhase replays the join over one phase's closed graph: every edge on
// disk, and every candidate any adjacent pair of them merges to. That is a
// superset of what the engine's index was probed with during the run — each
// intermediate graph is a subset of the final one — including the
// candidates it discarded as duplicates, which is where a collision hides.
func auditPhase(t *testing.T, x *exactIndex, dir string, ic *cfet.ICFET, g *grammar.Grammar) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "part-*.edges"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	var edges []storage.Edge
	for _, p := range paths {
		if edges, _, _, err = storage.ReadPart(p, edges); err != nil {
			t.Fatal(err)
		}
	}
	if len(edges) == 0 {
		t.Fatalf("no edges under %s", dir)
	}
	bySrc := map[uint32][]int32{}
	for i := range edges {
		bySrc[edges[i].Src] = append(bySrc[edges[i].Src], int32(i))
		x.offer(&edges[i])
	}
	var enc cfet.Enc
	for i := range edges {
		e1 := &edges[i]
		for _, k := range bySrc[e1.Dst] {
			e2 := &edges[k]
			heads := g.MatchBinary(e1.Label, e2.Label)
			if len(heads) == 0 {
				continue
			}
			var ok bool
			if enc, ok = ic.AppendMerge(enc[:0], e1.Enc, e2.Enc); !ok {
				continue
			}
			cand := storage.Edge{Src: e1.Src, Dst: e2.Dst, HasRel: e1.HasRel, Enc: enc}
			if cand.HasRel {
				cand.Rel = fsm.Compose(e1.Rel, e2.Rel)
			}
			for _, h := range heads {
				cand.Label = h
				x.offerAll(g, cand)
			}
		}
	}
}

// TestKeyCollisionAudit (ROADMAP item 4d) runs the exact index over both
// closure phases of the four golden subjects and the benchmark's two
// closure subjects and requires that no two distinct edge identities share
// a 64-bit dedupe key.
func TestKeyCollisionAudit(t *testing.T) {
	profiles := append(workload.Profiles(), hdfsHalfProfile(), deepSimProfile())
	if testing.Short() {
		profiles = []workload.Profile{workload.MiniProfile()}
	}
	for _, p := range profiles {
		t.Run(p.Name, func(t *testing.T) {
			src := workload.Generate(p).Source
			dir := t.TempDir()
			c := checker.New(fsm.Builtins(), checker.Options{WorkDir: dir})
			prep, err := c.PrepareSource(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.CheckPrepared(context.Background(), prep); err != nil {
				t.Fatal(err)
			}
			ic, aliasG := prep.JoinInputs()
			// The two phases' vertex and label spaces are unrelated, and so
			// are their dedupe indexes.
			for _, phase := range []struct {
				dir string
				g   *grammar.Grammar
			}{{"alias", aliasG}, {"dataflow", grammar.NewDataflow().G}} {
				x := &exactIndex{byKey: map[uint64]string{}}
				auditPhase(t, x, filepath.Join(dir, phase.dir), ic, phase.g)
				t.Logf("%s: %d distinct identities, %d collisions", phase.dir, x.identities, len(x.collisions))
				if len(x.collisions) > 0 {
					t.Fatalf("%s: %d key collisions, first: %q", phase.dir, len(x.collisions), x.collisions[0])
				}
			}
		})
	}
}
