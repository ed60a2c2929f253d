package lang

import (
	"fmt"
	"math"
	"strings"
)

// Lexer tokenizes MiniLang source text.
//
// The parser has it scan each token in place into its lookahead (scan):
// a kind, a position and the byte range of the token's text in src, no
// string, so handing a token over copies no pointer. A column is counted
// from the start of its line, so only a newline updates the line state and
// the loops over blanks, words, digits and comments index src directly.
type Lexer struct {
	src       string
	off       int
	line      int
	lineStart int // the offset of the current line's first byte
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1}
}

// lexeme is a token as the parser's lookahead holds it: its kind, its
// position and where its text lies in the unit, n bytes from lo. It holds
// no pointer, and the parser takes the text out of the unit only where it
// keeps it. It is 32 bytes in four fields, so the compiler copies it field
// by field, each load as wide as the store that wrote it: with an int end
// instead of n (40 bytes) a copy moved whole words, and the word that holds
// Kind stalled on the lexer's one-byte store.
type lexeme struct {
	Pos  Pos
	lo   int
	n    uint32
	Kind Kind
}

// punct maps each byte that starts punctuation or an operator to its
// tokens: one is the token the byte makes alone (EOF for '&' and '|',
// which make none), two the token it makes followed by next. A byte that
// starts no token maps to the zero entry.
var punct = [256]struct {
	one, two Kind
	next     byte
}{
	'(': {one: LParen}, ')': {one: RParen}, '{': {one: LBrace}, '}': {one: RBrace},
	';': {one: Semi}, ':': {one: Colon}, ',': {one: Comma}, '.': {one: Dot},
	'+': {one: Plus}, '-': {one: Minus}, '*': {one: Star},
	'=': {Assign, EqEq, '='}, '!': {Not, NotEq, '='},
	'<': {Lt, LtEq, '='}, '>': {Gt, GtEq, '='},
	'&': {EOF, AndAnd, '&'}, '|': {EOF, OrOr, '|'},
}

// Byte classes of identCont.
const (
	identStart = 1 << iota
	digit
)

// identCont classes every byte an identifier may hold: a letter or '_'
// (identStart) or a decimal digit (digit).
var identCont = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		switch {
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			t[c] = identStart
		case c >= '0' && c <= '9':
			t[c] = digit
		}
	}
	return t
}()

func isIdentCont(c byte) bool { return identCont[c] != 0 }

// scan writes the next token into t. At the end of src that is EOF, at
// the end's position, on every call. Each other call consumes at least one
// byte, a bad one included, so no input can keep it in place. A lexical
// error leaves t as it was.
func (l *Lexer) scan(t *lexeme) error {
	src := l.src
	i, line, lineStart := l.off, l.line, l.lineStart
	// Blanks and comments.
	for i < len(src) {
		c := src[i]
		if c == ' ' || c == '\t' || c == '\r' {
			i++
			continue
		}
		if c == '\n' {
			i++
			line, lineStart = line+1, i
			continue
		}
		if c != '/' || i+1 == len(src) {
			break
		}
		if src[i+1] == '/' { // to the newline, which ends the line
			if j := strings.IndexByte(src[i+2:], '\n'); j >= 0 {
				i += 2 + j
			} else {
				i = len(src)
			}
			continue
		}
		if src[i+1] != '*' {
			break
		}
		start := Pos{line, i - lineStart + 1}
		j := strings.Index(src[i+2:], "*/")
		if j < 0 {
			l.off, l.line, l.lineStart = len(src), line, lineStart
			return fmt.Errorf("%s: unterminated block comment", start)
		}
		body := src[i+2 : i+2+j]
		if n := strings.Count(body, "\n"); n > 0 {
			line += n
			lineStart = i + 2 + strings.LastIndexByte(body, '\n') + 1
		}
		i += 2 + j + 2
	}
	l.line, l.lineStart = line, lineStart
	pos := Pos{line, i - lineStart + 1}
	var kind Kind // EOF, at the end of src
	j := i
	if i < len(src) {
		c := src[i]
		j++
		switch cls := identCont[c]; {
		case cls == identStart:
			for j < len(src) && identCont[src[j]] != 0 {
				j++
			}
			kind = keyword(src[i:j])
		case cls == digit:
			for j < len(src) && identCont[src[j]] == digit {
				j++
			}
			kind = INT
		default:
			p := &punct[c]
			if p.two != EOF && j < len(src) && src[j] == p.next {
				kind = p.two
				j++
			} else if kind = p.one; kind == EOF {
				l.off = j
				return fmt.Errorf("%s: unexpected character %q", pos, string(c))
			}
		}
	}
	l.off = j
	if uint64(j-i) > math.MaxUint32 {
		return fmt.Errorf("%s: token longer than %d bytes", pos, uint64(math.MaxUint32))
	}
	*t = lexeme{Pos: pos, lo: i, n: uint32(j - i), Kind: kind}
	return nil
}

// Next returns the next token, its text included. The parser does not
// call it: it scans each token in place.
func (l *Lexer) Next() (Token, error) {
	var t lexeme
	if err := l.scan(&t); err != nil {
		return Token{}, err
	}
	return Token{Kind: t.Kind, Text: l.src[t.lo : t.lo+int(t.n)], Pos: t.Pos}, nil
}
