package lang

// ReferenceParse exposes the tokenize-then-parse reference to the external
// tests that need the workload generator (which imports this package's
// dependents) for their corpus.
var ReferenceParse = referenceParse
