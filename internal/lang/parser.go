package lang

import (
	"fmt"
	"math"
)

// tokenSource is where the parser pulls its tokens from: the *Lexer, which
// scans each one in place into the lookahead. (Tests substitute a
// pre-scanned slice as the reference for the streaming parse.)
type tokenSource interface {
	scan(t *lexeme) error
}

// Parser is a recursive-descent parser for MiniLang. It holds exactly one
// token of lookahead and has the lexer scan the next one into it as it
// consumes, so parsing never materializes the token stream.
type Parser struct {
	lex tokenSource
	src string // the unit the lookahead's byte ranges index
	tok lexeme // the lookahead token
	// lexErr is the first lexical error the lexer raised. From then on tok is
	// a synthetic EOF, so the grammar winds down without pulling further, and
	// parse reports lexErr in place of whatever that EOF made the grammar say.
	lexErr error
	nodes  nodeSlabs
}

// nodeSlabs allocates the AST of one Parse call: the node kinds a program
// is mostly made of come from typed slabs, and block statement and
// argument lists are cut to their exact length from shared chunks. The rare
// kinds (declarations, try, throw, spawn, literals other than ints) are
// allocated one by one.
type nodeSlabs struct {
	idents  Slab[Ident]
	ints    Slab[IntLit]
	binarys Slab[Binary]
	unarys  Slab[Unary]
	calls   Slab[CallExpr]
	methods Slab[MethodCall]
	fields  Slab[FieldAccess]
	assigns Slab[AssignStmt]
	decls   Slab[VarDecl]
	exprs   Slab[ExprStmt]
	ifs     Slab[IfStmt]
	returns Slab[ReturnStmt]
	stmts   ListSlab[Stmt]
	args    ListSlab[Expr]
}

// Parse parses a MiniLang compilation unit. Errors come in source order: a
// syntax error detected at a token before the first lexically invalid
// character is reported as such, and a lexical error wins from the moment
// the parser needs the offending text as its lookahead.
func Parse(src string) (*Program, error) {
	return parse(NewLexer(src), src)
}

// parse parses the tokens lex yields; src is the unit their byte ranges
// index.
func parse(lex tokenSource, src string) (*Program, error) {
	p := &Parser{lex: lex, src: src}
	p.advance()
	prog, err := p.parseProgram()
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return prog, err
}

// advance has the lexer scan its next token into the lookahead.
func (p *Parser) advance() {
	if p.lexErr != nil {
		return
	}
	if err := p.lex.scan(&p.tok); err != nil {
		p.lexErr = err
		p.tok = lexeme{Kind: EOF}
	}
}

func (p *Parser) cur() lexeme  { return p.tok }
func (p *Parser) next() lexeme { t := p.tok; p.advance(); return t }

// text returns t's text, a substring of the unit.
func (p *Parser) text(t lexeme) string { return p.src[t.lo : t.lo+int(t.n)] }

func (p *Parser) expect(k Kind) (lexeme, error) {
	t := p.tok
	if t.Kind != k {
		return t, fmt.Errorf("%s: expected %s, found %s %q", t.Pos, k, t.Kind, p.text(t))
	}
	p.advance()
	return t, nil
}

func (p *Parser) accept(k Kind) bool {
	if p.tok.Kind == k {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) parseProgram() (*Program, error) {
	prog := &Program{}
	seen := map[string]Pos{}
	for p.cur().Kind != EOF {
		switch p.cur().Kind {
		case KwType:
			pos := p.next().Pos
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(Semi); err != nil {
				return nil, err
			}
			prog.Types = append(prog.Types, &TypeDecl{Name: p.text(name), Pos: pos})
		case KwFun:
			f, err := p.parseFun()
			if err != nil {
				return nil, err
			}
			if prev, dup := seen[f.Name]; dup {
				return nil, fmt.Errorf("%s: function %q redeclared (first at %s)", f.Pos, f.Name, prev)
			}
			seen[f.Name] = f.Pos
			prog.Funs = append(prog.Funs, f)
		default:
			t := p.cur()
			return nil, fmt.Errorf("%s: expected 'fun' or 'type' at top level, found %s %q", t.Pos, t.Kind, p.text(t))
		}
	}
	return prog, nil
}

func (p *Parser) parseFun() (*FunDecl, error) {
	pos := p.next().Pos // fun
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	f := &FunDecl{Name: p.text(name), Pos: pos}
	for p.cur().Kind != RParen {
		if len(f.Params) > 0 {
			if _, err := p.expect(Comma); err != nil {
				return nil, err
			}
		}
		pn, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Colon); err != nil {
			return nil, err
		}
		pt, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		f.Params = append(f.Params, Param{Name: p.text(pn), Type: p.text(pt)})
	}
	p.next() // RParen
	if p.accept(Colon) {
		rt, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		f.RetType = p.text(rt)
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

func (p *Parser) parseBlock() ([]Stmt, error) {
	if _, err := p.expect(LBrace); err != nil {
		return nil, err
	}
	mark := p.nodes.stmts.Mark()
	for p.cur().Kind != RBrace {
		if p.cur().Kind == EOF {
			return nil, fmt.Errorf("%s: unexpected end of file in block", p.cur().Pos)
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.nodes.stmts.Push(s)
	}
	p.next() // RBrace
	return p.nodes.stmts.Cut(mark), nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch t.Kind {
	case KwVar:
		p.next()
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Colon); err != nil {
			return nil, err
		}
		typ, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		var init Expr
		if p.accept(Assign) {
			init, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return p.nodes.decls.New(VarDecl{Name: p.text(name), Type: p.text(typ), Init: init, Pos: t.Pos}), nil

	case KwIf:
		p.next()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		then, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		var els []Stmt
		if p.accept(KwElse) {
			if p.cur().Kind == KwIf {
				s, err := p.parseStmt()
				if err != nil {
					return nil, err
				}
				mark := p.nodes.stmts.Mark()
				p.nodes.stmts.Push(s)
				els = p.nodes.stmts.Cut(mark)
			} else {
				els, err = p.parseBlock()
				if err != nil {
					return nil, err
				}
			}
		}
		return p.nodes.ifs.New(IfStmt{Cond: cond, Then: then, Else: els, Pos: t.Pos}), nil

	case KwWhile:
		p.next()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body, Pos: t.Pos}, nil

	case KwReturn:
		p.next()
		var x Expr
		var err error
		if p.cur().Kind != Semi {
			x, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return p.nodes.returns.New(ReturnStmt{X: x, Pos: t.Pos}), nil

	case KwThrow:
		p.next()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &ThrowStmt{X: x, Pos: t.Pos}, nil

	case KwTry:
		p.next()
		try, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(KwCatch); err != nil {
			return nil, err
		}
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		cv, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		catchType := ""
		if p.accept(Colon) {
			ct, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			catchType = p.text(ct)
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		catch, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &TryStmt{Try: try, CatchVar: p.text(cv), CatchType: catchType, Catch: catch, Pos: t.Pos}, nil

	case KwSpawn:
		p.next()
		x, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		call, ok := x.(*CallExpr)
		if !ok {
			return nil, fmt.Errorf("%s: spawn requires a function call", t.Pos)
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &SpawnStmt{Call: call, Pos: t.Pos}, nil

	case IDENT:
		// assignment or expression statement
		x, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		if p.accept(Assign) {
			switch x.(type) {
			case *Ident, *FieldAccess:
			default:
				return nil, fmt.Errorf("%s: invalid assignment target", t.Pos)
			}
			rhs, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(Semi); err != nil {
				return nil, err
			}
			return p.nodes.assigns.New(AssignStmt{LHS: x, RHS: rhs, Pos: t.Pos}), nil
		}
		switch x.(type) {
		case *CallExpr, *MethodCall:
		default:
			return nil, fmt.Errorf("%s: expression statement must be a call", t.Pos)
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return p.nodes.exprs.New(ExprStmt{X: x, Pos: t.Pos}), nil
	}
	return nil, fmt.Errorf("%s: unexpected token %s %q at start of statement", t.Pos, t.Kind, p.text(t))
}

// Expression parsing with precedence climbing:
// or < and < comparison < additive < multiplicative < unary < primary.

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == OrOr {
		pos := p.next().Pos
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = p.nodes.binarys.New(Binary{Op: OpOr, L: l, R: r, Pos: pos})
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == AndAnd {
		pos := p.next().Pos
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = p.nodes.binarys.New(Binary{Op: OpAnd, L: l, R: r, Pos: pos})
	}
	return l, nil
}

// cmpOp maps a comparison token to its operator; ok is false for any other
// token.
func cmpOp(k Kind) (op BinOp, ok bool) {
	switch k {
	case EqEq:
		return OpEq, true
	case NotEq:
		return OpNe, true
	case Lt:
		return OpLt, true
	case LtEq:
		return OpLe, true
	case Gt:
		return OpGt, true
	case GtEq:
		return OpGe, true
	}
	return 0, false
}

func (p *Parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if op, ok := cmpOp(p.cur().Kind); ok {
		pos := p.next().Pos
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return p.nodes.binarys.New(Binary{Op: op, L: l, R: r, Pos: pos}), nil
	}
	return l, nil
}

func (p *Parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == Plus || p.cur().Kind == Minus {
		op := OpAdd
		if p.cur().Kind == Minus {
			op = OpSub
		}
		pos := p.next().Pos
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = p.nodes.binarys.New(Binary{Op: op, L: l, R: r, Pos: pos})
	}
	return l, nil
}

func (p *Parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == Star {
		pos := p.next().Pos
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = p.nodes.binarys.New(Binary{Op: OpMul, L: l, R: r, Pos: pos})
	}
	return l, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	switch p.cur().Kind {
	case Not:
		pos := p.next().Pos
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return p.nodes.unarys.New(Unary{Op: '!', X: x, Pos: pos}), nil
	case Minus:
		pos := p.next().Pos
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return p.nodes.unarys.New(Unary{Op: '-', X: x, Pos: pos}), nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case INT:
		p.next()
		v, ok := decimal(p.text(t))
		if !ok {
			return nil, fmt.Errorf("%s: bad integer literal %q", t.Pos, p.text(t))
		}
		return p.nodes.ints.New(IntLit{Value: v, Pos: t.Pos}), nil
	case KwTrue:
		p.next()
		return &BoolLit{Value: true, Pos: t.Pos}, nil
	case KwFalse:
		p.next()
		return &BoolLit{Value: false, Pos: t.Pos}, nil
	case KwNull:
		p.next()
		return &NullLit{Pos: t.Pos}, nil
	case KwInput:
		p.next()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return &InputExpr{Pos: t.Pos}, nil
	case KwNew:
		p.next()
		typ, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return &NewExpr{Type: p.text(typ), Pos: t.Pos}, nil
	case LParen:
		p.next()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return x, nil
	case IDENT:
		p.next()
		if p.accept(Dot) {
			member, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			recv := p.nodes.idents.New(Ident{Name: p.text(t), Pos: t.Pos})
			if p.cur().Kind == LParen {
				args, err := p.parseArgs()
				if err != nil {
					return nil, err
				}
				return p.nodes.methods.New(MethodCall{Recv: recv, Method: p.text(member), Args: args, Pos: t.Pos}), nil
			}
			return p.nodes.fields.New(FieldAccess{Recv: recv, Field: p.text(member), Pos: t.Pos}), nil
		}
		if p.cur().Kind == LParen {
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return p.nodes.calls.New(CallExpr{Name: p.text(t), Args: args, Pos: t.Pos}), nil
		}
		return p.nodes.idents.New(Ident{Name: p.text(t), Pos: t.Pos}), nil
	}
	return nil, fmt.Errorf("%s: unexpected token %s %q in expression", t.Pos, t.Kind, p.text(t))
}

func (p *Parser) parseArgs() ([]Expr, error) {
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	mark := p.nodes.args.Mark()
	for p.cur().Kind != RParen {
		if p.nodes.args.Mark() > mark {
			if _, err := p.expect(Comma); err != nil {
				return nil, err
			}
		}
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.nodes.args.Push(a)
	}
	p.next() // RParen
	return p.nodes.args.Cut(mark), nil
}

// decimal returns the value of s, a run of decimal digits as the lexer
// scans an int literal, and whether it fits in an int64 (strconv.ParseInt's
// answer, without its sign, base and error handling).
func decimal(s string) (int64, bool) {
	var v int64
	for i := 0; i < len(s); i++ {
		d := int64(s[i] - '0')
		if v > (math.MaxInt64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}
