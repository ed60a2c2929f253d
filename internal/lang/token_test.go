package lang

import (
	"fmt"
	"testing"
)

// keywordsRef is the keyword table as it was before the lexer matched
// keywords with a switch: a map probed for every identifier. It is the
// oracle TestKeywordLexing holds keyword to.
var keywordsRef = map[string]Kind{
	"fun": KwFun, "var": KwVar, "if": KwIf, "else": KwElse, "while": KwWhile,
	"return": KwReturn, "new": KwNew, "null": KwNull, "true": KwTrue,
	"false": KwFalse, "try": KwTry, "catch": KwCatch, "throw": KwThrow,
	"type": KwType, "input": KwInput, "spawn": KwSpawn,
}

func lexOne(t *testing.T, src string) Token {
	t.Helper()
	tok, err := NewLexer(src).Next()
	if err != nil {
		t.Fatalf("lex %q: %v", src, err)
	}
	return tok
}

// TestKeywordLexing: every keyword lexes to its kind with its text, every
// kind in between has a name, and words that only resemble a keyword — a
// prefix, an extension, another case, a digit or underscore appended — lex
// as identifiers, as they did under the map.
func TestKeywordLexing(t *testing.T) {
	for word, kind := range keywordsRef {
		if tok := lexOne(t, word); tok.Kind != kind || tok.Text != word {
			t.Errorf("%q lexes as %s %q, want %s", word, tok.Kind, tok.Text, kind)
		}
		if kind.String() != word {
			t.Errorf("kind %d prints %q, want %q", kind, kind.String(), word)
		}
		for _, near := range []string{word[:len(word)-1], word + "s", word + "1", word + "_", "_" + word, string(word[0]-'a'+'A') + word[1:]} {
			want := keywordsRef[near]
			if want == EOF {
				want = IDENT
			}
			if tok := lexOne(t, near); tok.Kind != want || tok.Text != near {
				t.Errorf("%q lexes as %s %q, want %s", near, tok.Kind, tok.Text, want)
			}
		}
	}
	for _, near := range []string{"iff", "types", "fun1", "f", "i", "whilst", "nul", "Fun", "TRUE", "spawned", "x"} {
		if tok := lexOne(t, near); tok.Kind != IDENT {
			t.Errorf("%q lexes as %s, want identifier", near, tok.Kind)
		}
	}
	for k := EOF; k <= GtEq; k++ {
		if name := k.String(); name == "" || name == fmt.Sprintf("kind(%d)", k) {
			t.Errorf("kind %d has no name", k)
		}
	}
	for _, k := range []Kind{GtEq + 1, 255} {
		if got, want := k.String(), fmt.Sprintf("kind(%d)", k); got != want {
			t.Errorf("out-of-range kind prints %q, want %q", got, want)
		}
	}
}
