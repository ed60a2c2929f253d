package cfet

import "github.com/grapple-system/grapple/internal/constraint"

// BuildCloneReference exposes the reference cloning walker to the external
// property test, which needs the workload generator (an importer of this
// package) for its subjects.
var BuildCloneReference = buildCloneReference

// RefDecode exposes the reference decoder to the external differential test,
// which needs the checker (an importer of this package) for its subjects.
func (ic *ICFET) RefDecode(e Enc) (constraint.Conj, error) { return ic.refDecode(e) }
