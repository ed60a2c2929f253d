package cfet

import (
	"math/rand"
	"testing"
)

// mergeReference is Merge as it was before AppendMerge: a fresh result
// slice, reduce's tail copied aside before every elimination, compaction
// into new slices. It never writes to anything it did not allocate, which
// is what makes it the oracle for the in-place version.
func (ic *ICFET) mergeReference(e1, e2 Enc) (Enc, bool) {
	if len(e1) == 0 {
		return e2.Clone(), true
	}
	if len(e2) == 0 {
		return e1.Clone(), true
	}
	out := make(Enc, 0, len(e1)+len(e2))
	out = append(out, e1...)
	first, rest := e2[0], e2[1:]
	last := &out[len(out)-1]
	if last.Kind == KInterval && first.Kind == KInterval && last.Method == first.Method {
		j, ok, conflict := joinIntervals(*last, first)
		if conflict {
			return nil, false
		}
		if ok {
			*last = j
			return ic.reduceReference(append(out, rest...))
		}
	}
	return ic.reduceReference(append(out, e2...))
}

func (ic *ICFET) reduceReference(e Enc) (Enc, bool) {
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(e); i++ {
			if e[i].Kind != KRet {
				continue
			}
			j, depth := i-1, 0
			for ; j >= 0; j-- {
				if e[j].Kind == KRet {
					depth++
				} else if e[j].Kind == KCall {
					if depth == 0 {
						break
					}
					depth--
				}
			}
			if j < 0 {
				continue
			}
			if e[j].Call != e[i].Call {
				if ic.sameCallee(e[j].Call, e[i].Call) {
					return nil, false
				}
				continue
			}
			if !ic.eliminable(e[j : i+1]) {
				continue
			}
			tail := append(Enc{}, e[i+1:]...)
			e = append(e[:j], tail...)
			if j > 0 && j < len(e) &&
				e[j-1].Kind == KInterval && e[j].Kind == KInterval &&
				e[j-1].Method == e[j].Method {
				if joined, ok, conflict := joinIntervals(e[j-1], e[j]); conflict {
					return nil, false
				} else if ok {
					e[j-1] = joined
					e = append(e[:j], e[j+1:]...)
				}
			}
			changed = true
			break
		}
	}
	if len(e) > ic.MaxEncLen {
		e = compactReference(e, ic.MaxEncLen)
	}
	return e, true
}

func compactReference(e Enc, max int) Enc {
	out := make(Enc, 0, len(e))
	over := len(e) - max
	for _, el := range e {
		if over > 0 && el.Kind == KInterval && el.Start == el.End {
			over--
			continue
		}
		out = append(out, el)
	}
	if len(out) > max {
		kept := make(Enc, 0, max)
		for _, el := range out {
			if el.Kind != KInterval || len(kept) < max/2 {
				kept = append(kept, el)
			}
		}
		out = kept
	}
	return out
}

// randomEnc draws from a universe small enough that junction joins, sibling
// conflicts, matched call/return pairs (eliminable and not), same-callee
// mismatches and over-long results all occur often.
func randomEnc(rng *rand.Rand) Enc {
	var e Enc
	for n := rng.Intn(7); n > 0; n-- {
		switch rng.Intn(4) {
		case 0:
			e = append(e, CallElem(int32(rng.Intn(6))))
		case 1:
			e = append(e, RetElem(int32(rng.Intn(6))))
		default:
			path := randomTreePath(rng, 4)
			a, b := rng.Intn(len(path)), rng.Intn(len(path))
			if a > b {
				a, b = b, a
			}
			e = append(e, Interval(MethodID(rng.Intn(2)), path[a], path[b]))
		}
	}
	return e
}

// TestPropertyAppendMergeMatchesReference: AppendMerge into a dirty,
// reused buffer behind a prefix produces exactly the reference merge after
// the prefix, leaves the prefix and both inputs untouched, and on a
// conflict hands the buffer back at its original length.
func TestPropertyAppendMergeMatchesReference(t *testing.T) {
	ic := &ICFET{
		MaxEncLen: 6, // low enough that both compaction passes run
		Methods:   []*CFET{{}, nil},
		CallEdges: []*CallEdge{
			{ID: 0, Callee: 0}, {ID: 1, Callee: 0}, // same callee: mismatched pairs conflict
			{ID: 2, Callee: 1, ParamEqs: []Equation{{}}}, // binds a parameter: never eliminable
			{ID: 3, Callee: 1, RetSym: -1}, nil,
			// ID 5 is out of range: a foreign call edge.
		},
	}
	rng := rand.New(rand.NewSource(7))
	var buf Enc
	var oks, conflicts, compacted int
	for trial := 0; trial < 20000; trial++ {
		e1, e2 := randomEnc(rng), randomEnc(rng)
		in1, in2 := e1.Clone(), e2.Clone()
		want, wantOK := ic.mergeReference(e1.Clone(), e2.Clone())

		prefix := randomEnc(rng)
		buf = append(buf[:0], prefix...)
		for i := len(buf); i < cap(buf); i++ {
			buf[:cap(buf)][i] = Elem{Kind: 9, Start: ^uint64(0)} // garbage past len
		}
		got, ok := ic.AppendMerge(buf, e1, e2)
		if ok != wantOK {
			t.Fatalf("trial %d: ok=%v, reference %v for %v + %v", trial, ok, wantOK, in1, in2)
		}
		if !e1.Equal(in1) || !e2.Equal(in2) {
			t.Fatalf("trial %d: AppendMerge modified an input", trial)
		}
		if len(got) < len(prefix) || !got[:len(prefix)].Equal(prefix) {
			t.Fatalf("trial %d: prefix damaged: %v, want %v first", trial, got, prefix)
		}
		if !ok {
			conflicts++
			if len(got) != len(prefix) {
				t.Fatalf("trial %d: conflict returned %d elements past the prefix", trial, len(got)-len(prefix))
			}
		} else {
			oks++
			if !got[len(prefix):].Equal(want) {
				t.Fatalf("trial %d: %v + %v\n  got  %v\n  want %v", trial, in1, in2, got[len(prefix):], want)
			}
			if len(in1)+len(in2) > ic.MaxEncLen+2 && len(want) <= ic.MaxEncLen {
				compacted++
			}
		}
		if fresh, freshOK := ic.Merge(e1, e2); freshOK != wantOK || (freshOK && !fresh.Equal(want)) {
			t.Fatalf("trial %d: Merge %v,%v differs from reference %v,%v", trial, fresh, freshOK, want, wantOK)
		}
		buf = got[:0]
	}
	if oks < 1000 || conflicts < 1000 || compacted < 100 {
		t.Fatalf("generator lost coverage: %d merges, %d conflicts, %d over-long results", oks, conflicts, compacted)
	}
}
