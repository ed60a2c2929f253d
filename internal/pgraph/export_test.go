package pgraph

// BuildDataflowRef is the builder BuildDataflow replaced, kept as its oracle
// (dataflow_ref_test.go).
var BuildDataflowRef = buildDataflowRef

// DoublingChain is pgraph_test.go's doubling call chain of n levels.
func DoublingChain(n int) string { return doublingChain(n) }
