package checker

import (
	"github.com/grapple-system/grapple/internal/cfet"
	"github.com/grapple-system/grapple/internal/grammar"
)

// JoinInputs exposes what an external test needs to replay the engine's
// join over a prepared subject's closed graphs: the ICFET its encodings
// index into and the alias-phase grammar.
func (p *Prepared) JoinInputs() (*cfet.ICFET, *grammar.Grammar) {
	return p.ic, p.ag.Ptr.G
}
