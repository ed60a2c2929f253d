package cfet

// BuildCloneReference exposes the reference cloning walker to the external
// property test, which needs the workload generator (an importer of this
// package) for its subjects.
var BuildCloneReference = buildCloneReference
