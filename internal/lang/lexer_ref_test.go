package lang

import "fmt"

// refLexer is the lexer as it was before it scanned in place: it steps
// one byte at a time, counting the line and column of every byte, and
// returns each token by value, its text included. It is the oracle the
// lexer is held to (TestLexerMatchesReference, FuzzLex) and the token
// source of referenceParse. start, the offset of the last token's first
// byte, is its one addition: the slice replay needs it.
type refLexer struct {
	src   string
	off   int
	line  int
	col   int
	start int
}

func newRefLexer(src string) *refLexer {
	return &refLexer{src: src, line: 1, col: 1}
}

func (l *refLexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *refLexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *refLexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *refLexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := Pos{l.line, l.col}
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return fmt.Errorf("%s: unterminated block comment", start)
			}
		default:
			return nil
		}
	}
	return nil
}

func refIsIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func refIsIdentCont(c byte) bool { return refIsIdentStart(c) || (c >= '0' && c <= '9') }

func (l *refLexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := Pos{l.line, l.col}
	l.start = l.off
	if l.off >= len(l.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}
	c := l.peek()
	switch {
	case refIsIdentStart(c):
		start := l.off
		for l.off < len(l.src) && refIsIdentCont(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.off]
		return Token{Kind: keyword(text), Text: text, Pos: pos}, nil
	case c >= '0' && c <= '9':
		start := l.off
		for l.off < len(l.src) && l.peek() >= '0' && l.peek() <= '9' {
			l.advance()
		}
		return Token{Kind: INT, Text: l.src[start:l.off], Pos: pos}, nil
	}
	l.advance()
	two := func(k Kind) (Token, error) {
		l.advance()
		return Token{Kind: k, Text: kindNames[k], Pos: pos}, nil
	}
	one := func(k Kind) (Token, error) {
		return Token{Kind: k, Text: kindNames[k], Pos: pos}, nil
	}
	switch c {
	case '(':
		return one(LParen)
	case ')':
		return one(RParen)
	case '{':
		return one(LBrace)
	case '}':
		return one(RBrace)
	case ';':
		return one(Semi)
	case ':':
		return one(Colon)
	case ',':
		return one(Comma)
	case '.':
		return one(Dot)
	case '+':
		return one(Plus)
	case '-':
		return one(Minus)
	case '*':
		return one(Star)
	case '=':
		if l.peek() == '=' {
			return two(EqEq)
		}
		return one(Assign)
	case '!':
		if l.peek() == '=' {
			return two(NotEq)
		}
		return one(Not)
	case '<':
		if l.peek() == '=' {
			return two(LtEq)
		}
		return one(Lt)
	case '>':
		if l.peek() == '=' {
			return two(GtEq)
		}
		return one(Gt)
	case '&':
		if l.peek() == '&' {
			return two(AndAnd)
		}
	case '|':
		if l.peek() == '|' {
			return two(OrOr)
		}
	}
	return Token{}, fmt.Errorf("%s: unexpected character %q", pos, string(c))
}

// refToken is a token of the reference stream and the offset of its first
// byte.
type refToken struct {
	Token
	off int
}

// refTokenize scans all of src with the reference lexer, as the parser
// read it before it streamed: any lexical error anywhere wins.
func refTokenize(src string) ([]refToken, error) {
	l := newRefLexer(src)
	var toks []refToken
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, refToken{t, l.start})
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

// sliceSource replays a pre-scanned token slice to the parser.
type sliceSource struct {
	toks []refToken
	pos  int
}

func (s *sliceSource) scan(t *lexeme) error {
	r := s.toks[s.pos]
	if s.pos < len(s.toks)-1 { // keep answering EOF, as the lexer does
		s.pos++
	}
	*t = lexeme{Kind: r.Kind, Pos: r.Pos, lo: r.off, n: uint32(len(r.Text))}
	return nil
}

// referenceParse is Parse as it was before the parser streamed: lex the
// whole file first with the reference lexer (any lexical error anywhere
// wins), then parse the slice.
func referenceParse(src string) (*Program, error) {
	toks, err := refTokenize(src)
	if err != nil {
		return nil, err
	}
	return parse(&sliceSource{toks: toks}, src)
}

// lexHandCases are the inputs whose line and column bookkeeping a lexer
// that counts columns from the line start could get wrong: comments that
// span lines, \r\n, tabs, bytes above 0x7f, the ends of a unit, and the
// operators whose first byte alone is no token.
var lexHandCases = []string{
	"",
	"x",
	"/* one\ntwo\nthree */ x y\n z",
	"a /* \n */ b /* */ c /**/ d /*/ */ e /***/ f /* * / */ g",
	"fun f() {\r\n  return;\r\n}\r\n",
	"\tx\t= 1;\n\t\ty",
	"x = 1; // \xc3\xa9t\xc3\xa9 \xff\n  y",
	"/* \xe2\x82\xac\n \xf0\x9f\x98\x80 */ z",
	"\xc3\xa9",
	"a\n/* open\n",
	"a // last line, no newline",
	"a & b",
	"a | b",
	"a &",
	"a |",
	"a && b || c",
	"x = 1;\n@",
	"x = y #",
	"a /",
	"a / b",
	"a == b != c <= d >= e < f > g = !h",
	"007 12ab ab12 _x x_ 9_",
	"\n\n\n   x",
	"\r\r\rx",
	"/**/",
	"/*",
	"//",
}

// compareLexers lexes src with the lexer and the reference and returns an
// error at the first token whose kind, text or position differ, or if their
// first errors differ. It also bounds the lexer's steps: each token before
// EOF must consume a byte, so the stream ends within len(src)+1 tokens.
func compareLexers(src string) error {
	l, ref := NewLexer(src), newRefLexer(src)
	for n := 0; n <= len(src); n++ {
		from := l.off
		got, err := l.Next()
		want, refErr := ref.Next()
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			return fmt.Errorf("token %d: error %v, reference error %v", n, err, refErr)
		}
		if err != nil {
			return nil
		}
		if got != want {
			return fmt.Errorf("token %d: %s %q at %s, reference %s %q at %s", n, got.Kind, got.Text, got.Pos, want.Kind, want.Text, want.Pos)
		}
		if got.Kind == EOF {
			return nil
		}
		if l.off <= from {
			return fmt.Errorf("token %d: %s %q at %s consumed no byte", n, got.Kind, got.Text, got.Pos)
		}
	}
	return fmt.Errorf("no EOF after %d tokens over %d bytes", len(src)+1, len(src))
}
