package lang

// ReferenceParse exposes the tokenize-then-parse reference to the external
// tests that need the workload generator (which imports this package's
// dependents) for their corpus.
var ReferenceParse = referenceParse

// parseTinyParts is ParseParallel with the least part size forced down to
// one byte: the unit is cut at every line that begins a top-level
// declaration and parsed on four goroutines. It is the seam the tests hold
// the cut parse to Parse with; production parts are never smaller than
// minPart.
func parseTinyParts(src string) (*Program, int, error) { return parseParts(src, 4, 1) }

// ParseTinyParts exposes parseTinyParts to the external tests.
var ParseTinyParts = parseTinyParts

// CompareLexers and LexHandCases expose the lexer's reference comparison
// and its hand-written inputs to TestLexerMatchesReference, whose corpus
// needs the workload generator.
var (
	CompareLexers = compareLexers
	LexHandCases  = lexHandCases
)

// ScanAll scans src to its end as the parser does, each token in place
// into one lookahead, and returns the number of tokens and the first
// lexical error.
func ScanAll(src string) (int, error) {
	l := NewLexer(src)
	var t lexeme
	for n := 1; ; n++ {
		if err := l.scan(&t); err != nil {
			return n, err
		}
		if t.Kind == EOF {
			return n, nil
		}
	}
}
