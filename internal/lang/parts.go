package lang

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// minPart is the least source, in bytes, a part of a unit spans when
// ParseParallel cuts it. On wide-sim at 40×50 (5.96 MB, two goroutines)
// parse, resolve and lowering took the same time, within the host's noise,
// at every least part size from 16 KiB (334 parts) to 512 KiB (11 parts),
// against 1.5 × that on one goroutine; 128 KiB cuts it into 44 parts and
// leaves every unit under 256 KiB, every closure subject (26–115 KB)
// included, one part, so that resolve and lowering start no goroutine for
// them either.
const minPart = 128 << 10

// cut is where a part after the first starts: its byte offset in the unit
// and the line of that offset.
type cut struct {
	off, line int
}

// ParseParallel is Parse on up to workers goroutines, and also returns the
// number of lines (newline bytes) in src; the count is valid only when err
// is nil. A unit of at least twice minPart bytes is cut into parts at lines
// that begin a top-level declaration, each part is parsed by its own parser
// with its own lexer and slabs, and the parts' Types and Funs are joined in
// order. The result is Parse's, position for position, and so is every
// error: if any part fails to parse, the unit is parsed again as one part.
// Program.Parts records the cut for ResolveParallel and lowering.
func ParseParallel(src string, workers int) (*Program, int, error) {
	return parseParts(src, workers, minPart)
}

func parseParts(src string, workers, least int) (*Program, int, error) {
	if workers > 1 && len(src) >= 2*least {
		if cuts, lines := cutUnit(src, least); len(cuts) > 0 {
			if parts := parseEach(src, cuts, workers); parts != nil {
				prog, err := join(parts)
				return prog, lines, err
			}
		}
	}
	lex := NewLexer(src)
	prog, err := parse(lex, src)
	// A parse that succeeded lexed src to its end, past every newline.
	return prog, lex.line - 1, err
}

// parseEach parses the parts of src that cuts start on up to workers
// goroutines, each with its own lexer, seeded with its part's offset,
// line and line start (a part starts a line), and its own parser. It returns nil if any part fails.
func parseEach(src string, cuts []cut, workers int) []*Program {
	parts := make([]*Program, len(cuts)+1)
	var failed atomic.Bool
	forEach(len(parts), workers, func(_, i int) {
		lex := NewLexer(src)
		if i > 0 {
			lex.off, lex.line, lex.lineStart = cuts[i-1].off, cuts[i-1].line, cuts[i-1].off
		}
		if i < len(cuts) {
			lex.src = src[:cuts[i].off]
		}
		prog, err := parse(lex, src)
		if err != nil {
			failed.Store(true)
			return
		}
		parts[i] = prog
	})
	if failed.Load() {
		return nil
	}
	return parts
}

// cutUnit is ParseParallel's prescan. It returns where each part after the
// first starts — at the start of a line that begins with the keyword fun or
// type outside every comment, once the part before it spans at least
// `least` bytes and as many remain — and the number of newlines in src.
//
// Those two keywords begin top-level declarations only, so in a unit that
// parses such a line is outside every brace; the prescan tracks comments,
// as the lexer reads them, and not braces. It reads src with the runtime's
// vectorized byte searches: newlines counted, each '/' found and the
// comment it opens skipped, and from every least-th byte on only the lines
// up to the next declaration looked at (one byte-at-a-time pass that also
// tracked braces cost 2 ns a byte, 12 ms on wide-sim at 40×50).
//
// The prescan only proposes cuts. A cut at the start of a line splits no
// token, so a part that parses on its own parses as it would in the whole
// unit; a cut the prescan misjudged (in text that does not parse) makes
// some part fail, and the unit is then parsed whole.
func cutUnit(src string, least int) (cuts []cut, lines int) {
	line, at := 1, 0 // the line of offset at
	com := 0         // the comments that start before com are skipped
	for from := least; from <= len(src)-least; {
		c := declLine(src, from)
		if c < 0 || len(src)-c < least {
			break
		}
		for com < c {
			j := strings.IndexByte(src[com:c], '/')
			if j < 0 {
				com = c
				break
			}
			com = commentEnd(src, com+j)
		}
		if com > c { // c is inside a comment
			from = com
			continue
		}
		line += strings.Count(src[at:c], "\n")
		at = c
		cuts = append(cuts, cut{c, line})
		from = c + least
	}
	return cuts, line - 1 + strings.Count(src[at:], "\n")
}

// declLine returns the first line start at or after from that begins a
// declaration, or -1. from must be positive.
func declLine(src string, from int) int {
	for i := from - 1; ; {
		j := strings.IndexByte(src[i:], '\n')
		if j < 0 {
			return -1
		}
		i += j + 1
		if startsDecl(src[i:]) {
			return i
		}
	}
}

// commentEnd returns the end of the comment the '/' at src[j] opens, as the
// lexer skips it: the newline that ends a line comment, the byte after the
// */ that closes a block comment, the end of src for one left open. A '/'
// that opens no comment ends at j+1.
func commentEnd(src string, j int) int {
	if j+1 < len(src) {
		switch src[j+1] {
		case '/':
			if k := strings.IndexByte(src[j:], '\n'); k >= 0 {
				return j + k
			}
			return len(src)
		case '*':
			if k := strings.Index(src[j+2:], "*/"); k >= 0 {
				return j + 2 + k + 2
			}
			return len(src)
		}
	}
	return j + 1
}

// startsDecl reports whether s starts with the keyword fun or type.
func startsDecl(s string) bool {
	for _, kw := range [...]string{"fun", "type"} {
		if len(s) > len(kw) && s[:len(kw)] == kw && !isIdentCont(s[len(kw)]) {
			return true
		}
	}
	return false
}

// join concatenates the parts of a unit in order into one Program and
// checks, in order, that no function is declared twice across parts (each
// part's parser checked its own).
func join(parts []*Program) (*Program, error) {
	nt, nf := 0, 0
	for _, p := range parts {
		nt += len(p.Types)
		nf += len(p.Funs)
	}
	prog := &Program{Parts: make([]int, 0, len(parts))}
	// Empty lists stay nil, as one parser leaves them.
	if nt > 0 {
		prog.Types = make([]*TypeDecl, 0, nt)
	}
	if nf > 0 {
		prog.Funs = make([]*FunDecl, 0, nf)
	}
	seen := make(map[string]Pos, nf)
	for _, p := range parts {
		prog.Types = append(prog.Types, p.Types...)
		prog.Parts = append(prog.Parts, len(prog.Funs))
		for _, f := range p.Funs {
			if prev, dup := seen[f.Name]; dup {
				return nil, fmt.Errorf("%s: function %q redeclared (first at %s)", f.Pos, f.Name, prev)
			}
			seen[f.Name] = f.Pos
		}
		prog.Funs = append(prog.Funs, p.Funs...)
	}
	return prog, nil
}

// NumParts returns how many parts Parts cuts Funs into (1 when it is nil).
func (p *Program) NumParts() int { return max(len(p.Parts), 1) }

// ForEachPart calls do for each part of Funs, Funs[lo:hi], on up to
// workers goroutines, which claim parts in order; w (in [0, workers))
// names the goroutine, so do can keep per-goroutine state in a slice of
// workers entries. It returns when every call has returned. With one part,
// or one worker, the calls run in order on the caller's goroutine.
func (p *Program) ForEachPart(workers int, do func(w, part, lo, hi int)) {
	forEach(p.NumParts(), workers, func(w, i int) {
		lo, hi := 0, len(p.Funs)
		if len(p.Parts) > 0 {
			lo = p.Parts[i]
			if i+1 < len(p.Parts) {
				hi = p.Parts[i+1]
			}
		}
		do(w, i, lo, hi)
	})
}

// forEach calls do(w, i) for each i in [0, n) on up to workers goroutines.
func forEach(n, workers int, do func(w, i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := range n {
			do(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				do(w, i)
			}
		}()
	}
	wg.Wait()
}
