package lang_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/grapple-system/grapple/internal/lang"
	"github.com/grapple-system/grapple/internal/raceflag"
	"github.com/grapple-system/grapple/internal/workload"
)

// exampleProgram extracts the MiniLang program embedded in an example's
// main.go (the `const program` raw string).
func exampleProgram(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const open = "const program = `"
	text := string(data)
	i := strings.Index(text, open)
	if i < 0 {
		t.Fatalf("%s: no embedded program", path)
	}
	text = text[i+len(open):]
	return text[:strings.IndexByte(text, '`')]
}

// sourceCorpus is every shipped example plus every generated subject (the
// golden profiles, the mini and the concurrency profile); the repository
// has no MiniLang files under testdata/.
func sourceCorpus(t *testing.T) map[string]string {
	t.Helper()
	corpus := map[string]string{}
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "main.go"))
	if err != nil || len(examples) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	for _, path := range examples {
		corpus[path] = exampleProgram(t, path)
	}
	profiles := append(workload.Profiles(), workload.MiniProfile(), workload.ConcurrencyProfile())
	for _, p := range profiles {
		corpus[p.Name] = workload.Generate(p).Source
	}
	return corpus
}

// TestStreamingParseMatchesReference: parsing straight off the lexer builds
// the same AST, position for position, as parsing a token slice the
// reference lexer pre-scanned, over sourceCorpus.
func TestStreamingParseMatchesReference(t *testing.T) {
	for name, src := range sourceCorpus(t) {
		got, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := lang.ReferenceParse(src)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: streaming AST differs from the token-slice AST", name)
		}
	}
}

// TestLexerMatchesReference: the lexer yields the reference lexer's
// tokens, kind, text and position, and its first error, on sourceCorpus,
// wide-sim at 10×10 and the hand cases, each of which also ends within one
// token per byte.
func TestLexerMatchesReference(t *testing.T) {
	corpus := sourceCorpus(t)
	corpus["wide-sim 10×10"] = workload.Generate(workload.WideProfile(10, 10)).Source
	for i, src := range lang.LexHandCases {
		corpus[fmt.Sprintf("hand case %d %q", i, src)] = src
	}
	for name, src := range corpus {
		if err := lang.CompareLexers(src); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestLexerAllocatesNothing: scanning wide-sim at 10×10 to its end, each
// token in place into one lookahead as the parser does, allocates nothing.
func TestLexerAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime inflates allocation")
	}
	src := workload.Generate(workload.WideProfile(10, 10)).Source
	var n int
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		if n, err = lang.ScanAll(src); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d tokens in %d bytes", n, len(src))
	if allocs != 0 {
		t.Errorf("scanning to EOF allocates %.0f times, want 0", allocs)
	}
}

// TestParseErrorsInSourceOrder: the error reported is the first one in the
// text, lexical or syntactic. (The reference lexes the whole file first, so
// there a lexical error anywhere pre-empts an earlier syntax error.)
func TestParseErrorsInSourceOrder(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"lex error before syntax error",
			"fun f() { x = @; }\nfun ( {", `1:15: unexpected character "@"`},
		{"syntax error before lex error",
			"fun f( { }\nfun g() { x = @; }", `1:8: expected identifier, found { "{"`},
		{"lex error in the lookahead wins over the statement it would end",
			"fun f() { spawn x @; }", `1:19: unexpected character "@"`},
		{"unterminated block comment at EOF",
			"fun f() { return; }\n/* open", "2:1: unterminated block comment"},
		{"syntax error before an unterminated block comment",
			"fun f() { return }\n/* open", `1:18: unexpected token } "}" in expression`},
		{"lex error as the very first token",
			"#", `1:1: unexpected character "#"`},
		{"syntax error on the last line, no trailing newline",
			"fun f() {\n  return 1", `2:11: expected ;, found eof ""`},
		{"end of file inside a block, trailing newline",
			"fun f() {\n  return;\n", "3:1: unexpected end of file in block"},
	}
	for _, c := range cases {
		_, err := lang.Parse(c.src)
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s: got %q, want %q", c.name, err, c.want)
		}
		if _, refErr := lang.ReferenceParse(c.src); refErr == nil {
			t.Errorf("%s: reference parse accepted the input", c.name)
		}
	}
}

// TestParseAllocBudget pins what the parser allocates per byte of source on
// wide-sim at 10×10: the AST and nothing that grows with the token count
// (a materialized token slice alone cost ~60 B per source byte).
func TestParseAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime inflates allocation")
	}
	src := workload.Generate(workload.WideProfile(10, 10)).Source
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	prog, err := lang.Parse(src)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(src))
	t.Logf("%d functions, %d source bytes: %.1f B allocated per source byte", len(prog.Funs), len(src), perByte)
	const budget = 10.8 // 9.4 measured, + 15 % (9.8 before the parse's slabs)
	if perByte > budget {
		t.Errorf("Parse allocates %.1f B per source byte, budget %.1f", perByte, budget)
	}
}
