// Package lang implements the MiniLang frontend: a Java-like imperative
// mini-language that stands in for the paper's Soot-based Java frontend
// (DESIGN.md §1). MiniLang provides exactly the constructs the Grapple
// analyses consume: object allocation, assignment, field stores/loads,
// calls, integer/boolean expressions, structured control flow, and
// exceptions.
package lang

import "fmt"

// Kind classifies a token.
type Kind uint8

// Token kinds.
const (
	EOF Kind = iota
	IDENT
	INT
	// keywords
	KwFun
	KwVar
	KwIf
	KwElse
	KwWhile
	KwReturn
	KwNew
	KwNull
	KwTrue
	KwFalse
	KwTry
	KwCatch
	KwThrow
	KwType
	KwInput
	KwSpawn
	// punctuation & operators
	LParen
	RParen
	LBrace
	RBrace
	Semi
	Colon
	Comma
	Dot
	Assign
	Plus
	Minus
	Star
	Not
	AndAnd
	OrOr
	EqEq
	NotEq
	Lt
	LtEq
	Gt
	GtEq
)

var kindNames = [...]string{
	EOF: "eof", IDENT: "identifier", INT: "int literal",
	KwFun: "fun", KwVar: "var", KwIf: "if", KwElse: "else", KwWhile: "while",
	KwReturn: "return", KwNew: "new", KwNull: "null", KwTrue: "true",
	KwFalse: "false", KwTry: "try", KwCatch: "catch", KwThrow: "throw",
	KwType: "type", KwInput: "input", KwSpawn: "spawn",
	LParen: "(", RParen: ")", LBrace: "{", RBrace: "}", Semi: ";",
	Colon: ":", Comma: ",", Dot: ".", Assign: "=", Plus: "+", Minus: "-",
	Star: "*", Not: "!", AndAnd: "&&", OrOr: "||", EqEq: "==", NotEq: "!=",
	Lt: "<", LtEq: "<=", Gt: ">", GtEq: ">=",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// keyword returns the keyword kind an identifier-shaped word spells, or
// IDENT. It runs for every identifier the lexer scans, so it is a switch
// (compiled to compares on length and bytes), not a map probe.
func keyword(word string) Kind {
	switch word {
	case "fun":
		return KwFun
	case "var":
		return KwVar
	case "if":
		return KwIf
	case "else":
		return KwElse
	case "while":
		return KwWhile
	case "return":
		return KwReturn
	case "new":
		return KwNew
	case "null":
		return KwNull
	case "true":
		return KwTrue
	case "false":
		return KwFalse
	case "try":
		return KwTry
	case "catch":
		return KwCatch
	case "throw":
		return KwThrow
	case "type":
		return KwType
	case "input":
		return KwInput
	case "spawn":
		return KwSpawn
	}
	return IDENT
}

// Pos is a source position (1-based line and column).
type Pos struct {
	Line int
	Col  int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexical token.
type Token struct {
	Kind Kind
	Text string // identifier name or literal text
	Pos  Pos
}
