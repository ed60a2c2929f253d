package cfet

import (
	"fmt"
	"slices"
	"strings"
)

// ElemKind distinguishes encoding elements.
type ElemKind uint8

// Encoding element kinds: an interval within one method's CFET, a call edge
// "(i", or a return edge ")i" (§3.2).
const (
	KInterval ElemKind = iota
	KCall
	KRet
)

// Elem is one element of a path encoding.
type Elem struct {
	Kind   ElemKind
	Method MethodID // interval only
	Start  uint64   // interval only
	End    uint64   // interval only
	Call   int32    // call/ret: ICFET call-edge ID
}

// Interval builds an interval element.
func Interval(m MethodID, start, end uint64) Elem {
	return Elem{Kind: KInterval, Method: m, Start: start, End: end}
}

// CallElem builds a "(i" element.
func CallElem(id int32) Elem { return Elem{Kind: KCall, Call: id} }

// RetElem builds a ")i" element.
func RetElem(id int32) Elem { return Elem{Kind: KRet, Call: id} }

// Enc is a path encoding: a sequence of intervals connected by call/return
// edge IDs. The paper's §4.2 case-3 elimination keeps encodings compact; an
// Enc may also contain non-connecting fragments (e.g. the two flowsTo legs
// of an alias edge), whose decoded constraints are simply conjoined.
type Enc []Elem

// String renders the encoding against an ICFET (nil prints raw method IDs).
func (e Enc) String(ic *ICFET) string {
	if len(e) == 0 {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, el := range e {
		if i > 0 {
			b.WriteString(", ")
		}
		switch el.Kind {
		case KInterval:
			name := fmt.Sprintf("m%d", el.Method)
			if ic != nil {
				name = ic.Methods[el.Method].Name
			}
			fmt.Fprintf(&b, "[%s%d, %s%d]", name, el.Start, name, el.End)
		case KCall:
			fmt.Fprintf(&b, "(%d", el.Call)
		case KRet:
			fmt.Fprintf(&b, ")%d", el.Call)
		}
	}
	b.WriteByte('}')
	return b.String()
}

// Equal reports element-wise equality.
func (e Enc) Equal(o Enc) bool {
	if len(e) != len(o) {
		return false
	}
	for i := range e {
		if e[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone copies the encoding.
func (e Enc) Clone() Enc {
	out := make(Enc, len(e))
	copy(out, e)
	return out
}

// Arena backs many encodings with few allocations: it carves them out of
// shared chunks and never recycles a chunk, so each chunk lives exactly as
// long as some encoding handed out of it. The zero value is ready to use.
type Arena struct {
	chunk []Elem
}

// Alloc returns an n-element encoding carved from the current chunk,
// starting a fresh chunk of chunkElems (or n, if larger) when the current
// one cannot hold n more. The three-index slice caps the result, so an
// append through it copies out instead of clobbering its neighbor.
func (a *Arena) Alloc(n, chunkElems int) Enc {
	if n > cap(a.chunk)-len(a.chunk) {
		a.chunk = make([]Elem, 0, max(n, chunkElems))
	}
	lo := len(a.chunk)
	a.chunk = a.chunk[:lo+n]
	return a.chunk[lo : lo+n : lo+n]
}

// Skeleton returns just the call/return elements of the encoding. Widening
// an edge to its skeleton discards interval (branch) precision while
// preserving frame balance: a skeletonized path still cannot enter a callee
// through one call-edge instance and leave through another.
func (e Enc) Skeleton() Enc {
	var out Enc
	for _, el := range e {
		if el.Kind == KCall || el.Kind == KRet {
			out = append(out, el)
		}
	}
	return out
}

// Merge combines the encodings of two consecutive edges x->y (e1) and y->z
// (e2) into the encoding of the induced edge x->z, implementing the four
// cases of §4.2:
//
//  1. {[a,b]} + {[b,c]}            -> {[a,c]}        (same method, connects)
//  2. {[a,b]} + {(i}               -> {[a,b], (i, [0,0]}
//  3. {[a,b], (i, [0,d]} + {[0,d'], )i, [b,c]} -> {[a,c]}  (matched pair)
//  4. unmatched calls              -> concatenation (extended call string)
//
// Merge additionally reports ok=false when the two paths provably lie on
// conflicting branches of the same CFET (sibling subtrees), which lets the
// engine reject the edge without a solver call — that is path sensitivity
// acting structurally. If the merged encoding would exceed ic.MaxEncLen the
// merge degrades by dropping *interval* precision least recently used —
// never call/return structure — keeping soundness (constraints only get
// weaker, so feasible paths are never lost).
func (ic *ICFET) Merge(e1, e2 Enc) (Enc, bool) {
	return ic.AppendMerge(nil, e1, e2)
}

// AppendMerge is Merge writing into the caller's buffer: the merged encoding
// is appended to dst and the extended slice returned, so a caller that
// discards most results (the engine's join) merges into one reused scratch
// buffer and copies out only what it keeps. On ok=false the returned slice
// is dst at its original length. dst must not alias e1 or e2.
func (ic *ICFET) AppendMerge(dst, e1, e2 Enc) (Enc, bool) {
	base := len(dst)
	dst = slices.Grow(dst, len(e1)+len(e2)) // at most one allocation per merge
	dst = append(dst, e1...)
	if len(e1) == 0 || len(e2) == 0 {
		return append(dst, e2...), true
	}

	// Join at the junction: last of e1 vs first of e2.
	last, first := &dst[len(dst)-1], e2[0]
	if last.Kind == KInterval && first.Kind == KInterval && last.Method == first.Method {
		j, ok, conflict := joinIntervals(*last, first)
		if conflict {
			return dst[:base], false
		}
		if ok {
			*last = j
			e2 = e2[1:]
		}
	}
	dst = append(dst, e2...)
	merged, ok := ic.reduce(dst[base:])
	if !ok {
		return dst[:base], false
	}
	return dst[:base+len(merged)], true
}

// joinIntervals attempts to connect [a,b] and [c,d] in the same method.
// It succeeds when the tree path a..b extends to c (b ancestor-or-equal of
// c), or when one interval's path contains the other's. conflict=true means
// the two intervals lie in disjoint sibling subtrees, so no single
// control-flow path covers both.
func joinIntervals(x, y Elem) (Elem, bool, bool) {
	switch {
	case x.End == y.Start || IsAncestorOrEqual(x.End, y.Start):
		return Interval(x.Method, x.Start, y.End), true, false
	case IsAncestorOrEqual(x.Start, y.Start) && IsAncestorOrEqual(y.End, x.End):
		// y's fragment lies on x's path: x subsumes y.
		return x, true, false
	case IsAncestorOrEqual(y.Start, x.Start) && IsAncestorOrEqual(x.End, y.End):
		return y, true, false
	case IsAncestorOrEqual(y.End, x.Start):
		// y precedes x on the same path (reverse-direction composition, as
		// produced by bar edges in the alias grammar): cover both.
		return Interval(x.Method, y.Start, x.End), true, false
	case onOnePath(x, y):
		// Overlapping fragments of one path not covered above.
		lo, hi := x.Start, x.End
		if IsAncestorOrEqual(y.Start, lo) {
			lo = y.Start
		}
		if IsAncestorOrEqual(hi, y.End) {
			hi = y.End
		}
		return Interval(x.Method, lo, hi), true, false
	default:
		return Elem{}, false, disjointSiblings(x, y)
	}
}

// onOnePath reports whether all four endpoints lie on one root-to-leaf path.
func onOnePath(x, y Elem) bool {
	ends := [2]uint64{x.End, y.End}
	deepest := ends[0]
	if IsAncestorOrEqual(deepest, ends[1]) {
		deepest = ends[1]
	} else if !IsAncestorOrEqual(ends[1], deepest) {
		return false
	}
	return IsAncestorOrEqual(x.Start, deepest) && IsAncestorOrEqual(y.Start, deepest) &&
		IsAncestorOrEqual(x.End, deepest) && IsAncestorOrEqual(y.End, deepest)
}

// disjointSiblings reports whether the two fragments provably lie in
// sibling subtrees (no single path covers both).
func disjointSiblings(x, y Elem) bool {
	// If neither endpoint-pair is ancestor-related, the fragments diverge.
	return !IsAncestorOrEqual(x.End, y.End) && !IsAncestorOrEqual(y.End, x.End)
}

// reduce performs §4.2 case-3 matched call/return elimination and enforces
// the length cap, in place: the result is a prefix of e's backing array.
func (ic *ICFET) reduce(e Enc) (Enc, bool) {
	changed := true
	for changed {
		changed = false
		for i := 0; i < len(e); i++ {
			if e[i].Kind != KRet {
				continue
			}
			// Find the matching KCall scanning left, skipping completed
			// pairs is unnecessary once inner pairs are already reduced:
			// the nearest KCall to the left with the same ID and no
			// intervening unmatched call is the match.
			j := i - 1
			depth := 0
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
				// The fragment between j and i is balanced, so e[j] opens
				// the very frame e[i] closes. A frame returns through the
				// call-edge instance that entered it, so differing IDs on
				// the same callee describe a path no single execution can
				// take (enter helper via one caller node, leave toward
				// another). Cross-callee mismatches stay: alias-grammar
				// splices (flowsToBar·flowsTo through store/load) join
				// legs of different frames legitimately.
				if ic.sameCallee(e[j].Call, e[i].Call) {
					return nil, false
				}
				continue
			}
			if !ic.eliminable(e[j : i+1]) {
				continue
			}
			// Remove e[j..i] inclusive; then try to join the now adjacent
			// caller intervals.
			e = append(e[:j], e[i+1:]...)
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
		e = compactEnc(e, ic.MaxEncLen)
	}
	return e, true
}

// eliminable reports whether a completed (i ... )i fragment contributes no
// constraint and may be dropped (§4.2 case 3). The paper eliminates every
// completed pair for compactness; this implementation keeps pairs whose
// call edge binds parameters or a return value, or whose enclosed intervals
// span branch conditionals — otherwise the "y = bar(2*x)" correlation of
// §3.2 would be lost the moment the call completes. Pairs referencing
// unknown call edges (foreign encodings) are eliminated as in the paper.
// sameCallee reports whether two call-edge IDs target the same callee
// method. Unknown IDs (foreign encodings, hand-built tests) report false so
// the mismatch falls through to plain concatenation.
func (ic *ICFET) sameCallee(a, b int32) bool {
	if a < 0 || b < 0 || int(a) >= len(ic.CallEdges) || int(b) >= len(ic.CallEdges) {
		return false
	}
	ea, eb := ic.CallEdges[a], ic.CallEdges[b]
	return ea != nil && eb != nil && ea.Callee == eb.Callee
}

func (ic *ICFET) eliminable(frag Enc) bool {
	call := frag[0]
	if int(call.Call) < len(ic.CallEdges) {
		ce := ic.CallEdges[call.Call]
		if ce != nil && (len(ce.ParamEqs) > 0 || ce.RetSym >= 0) {
			return false
		}
	}
	for _, el := range frag[1 : len(frag)-1] {
		if el.Kind != KInterval {
			// A nested unmatched call/ret inside: keep (shouldn't occur,
			// matched inner pairs were already reduced).
			return false
		}
		if el.Start != el.End {
			// The fragment spans branch conditionals in the callee.
			if int(el.Method) < len(ic.Methods) && ic.Methods[el.Method] != nil {
				return false
			}
		}
	}
	return true
}

// compactEnc drops redundant intervals (widest first) to honor the cap while
// preserving call/return structure. Losing an interval only weakens the
// decoded constraint, which is sound for bug finding. It filters e in place
// (each pass writes at or behind where it reads).
func compactEnc(e Enc, max int) Enc {
	out := e[:0]
	over := len(e) - max
	for _, el := range e {
		if over > 0 && el.Kind == KInterval && el.Start == el.End {
			over--
			continue
		}
		out = append(out, el)
	}
	if len(out) > max {
		// Still too long: keep call/ret plus the first intervals.
		kept := out[:0]
		for _, el := range out {
			if el.Kind != KInterval || len(kept) < max/2 {
				kept = append(kept, el)
			}
		}
		out = kept
	}
	return out
}
