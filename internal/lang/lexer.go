package lang

import "fmt"

// Lexer tokenizes MiniLang source text.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
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

func (l *Lexer) skipSpaceAndComments() error {
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

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := Pos{l.line, l.col}
	if l.off >= len(l.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && isIdentCont(l.peek()) {
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
