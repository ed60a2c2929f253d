package lang

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParse exercises the lexer/parser/resolver on arbitrary input: no
// panics, the streaming parser rejects exactly what the tokenize-then-parse
// reference rejects (the two may disagree on which error comes first, never
// on whether there is one), the unit cut into parts at every top-level
// declaration parses to the same AST, every Pos included, or fails with the
// same error, and anything that parses must format and re-parse cleanly.
// Run with: go test -fuzz=FuzzParse ./internal/lang
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"fun main() { return; }",
		"type T;\nfun f(x: int): int { return x + 1; }",
		`fun f() { var w: W = new W(); w.close(); }`,
		`fun f(n: int) { while (n > 0) { n = n - 1; } return; }`,
		`fun f() { try { throw new E(); } catch (e: E) { return; } }`,
		`fun f(a: int) { if (a > 0 && a < 10 || !(a == 5)) { a = 0; } }`,
		"fun f( {",
		"type ;;;",
		"fun f() { var x: int = 999999999999999999999999; }",
		"/* unterminated",
		"fun f() { x.y.z(); }",
		"fun f( { } @",
		"fun f() { spawn x @; }",
		"fun f() { return; } /* open",
		// Parts: braces inside comments, a stray brace, a comment left
		// open after a cut, a type declaration the next line's fun ends.
		"fun f() { // }\n}\nfun g() { /* { */ }\n/* } */\nfun h() { }\n",
		"fun f() { }\n}\nfun g() { }\n",
		"fun f() { }\nfun g() { }\n/* open\nfun h() { }\n",
		"type T\nfun f() { }\n",
		"fun f() { }\nfun f() { }\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if _, refErr := referenceParse(src); (err == nil) != (refErr == nil) {
			t.Fatalf("streaming parse: %v, reference parse: %v", err, refErr)
		}
		cut, lines, cutErr := parseTinyParts(src)
		if (err == nil) != (cutErr == nil) || err != nil && err.Error() != cutErr.Error() {
			t.Fatalf("parse: %v, parse in parts: %v", err, cutErr)
		}
		if err != nil {
			return // rejection is fine; panics are not
		}
		if want := strings.Count(src, "\n"); lines != want {
			t.Fatalf("parse in parts counted %d lines, want %d", lines, want)
		}
		cut.Parts = nil
		if !reflect.DeepEqual(cut, prog) {
			t.Fatalf("parse in parts differs from parse:\n%s\nvs\n%s", Format(cut), Format(prog))
		}
		if _, err := Resolve(prog); err != nil {
			return
		}
		// Parsed and resolved: the formatter must produce re-parseable text.
		text := Format(prog)
		prog2, err := Parse(text)
		if err != nil {
			t.Fatalf("format broke parseability: %v\n%s", err, text)
		}
		if Format(prog2) != text {
			t.Fatalf("format not idempotent for:\n%s", src)
		}
	})
}

// FuzzLex holds the lexer to the reference lexer on arbitrary input: the
// same tokens, kind, text and position, and the same first error, with
// every token before EOF consuming a byte (compareLexers).
// Run with: go test -fuzz=FuzzLex ./internal/lang
func FuzzLex(f *testing.F) {
	for _, s := range lexHandCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if err := compareLexers(src); err != nil {
			t.Fatal(err)
		}
	})
}
