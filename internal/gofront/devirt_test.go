package gofront_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/grapple-system/grapple/internal/gofront"
)

// TestDevirtStats pins the three devirtualization outcomes on the interface
// corpus snippet: Flush has one live implementer (direct call), Put has two
// (path-split dispatch), and Vanish's only implementer is never allocated
// (open, so the call havocs exactly as before the pass existed).
func TestDevirtStats(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(corpusDir, "ifaces.go"))
	if err != nil {
		t.Fatal(err)
	}
	rules := allRules(t)
	res, err := gofront.LowerSource(string(data), rules)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.IfaceCalls != 3 || st.IfaceDirect != 1 || st.IfaceSplit != 1 || st.IfaceOpen != 1 {
		t.Fatalf("iface stats = calls %d direct %d split %d open %d, want 3/1/1/1",
			st.IfaceCalls, st.IfaceDirect, st.IfaceSplit, st.IfaceOpen)
	}
	// The split dispatch must name both live Put implementations; the dead
	// Ghost type must not appear anywhere in the lowered program.
	src := res.Source()
	for _, want := range []string{"DiskSink_Put", "NullSink_Put", "DiskSink_Flush"} {
		if !strings.Contains(src, want) {
			t.Errorf("lowered program is missing a call to %s:\n%s", want, src)
		}
	}
	// Its lowered definition is still emitted; no call site may reach it.
	if strings.Count(src, "Ghost_Vanish(") != strings.Count(src, "fun Ghost_Vanish(") {
		t.Errorf("dead implementer is called in the lowered program:\n%s", src)
	}

	// Ablated, every interface call havocs: the examined-site counters stay
	// zero and the havoc count strictly grows.
	abl, err := gofront.LowerSourceWith(string(data), rules, gofront.Options{NoDevirt: true})
	if err != nil {
		t.Fatal(err)
	}
	if abl.Stats.IfaceCalls != 0 {
		t.Errorf("NoDevirt still examined %d interface calls", abl.Stats.IfaceCalls)
	}
	if abl.Stats.Havocs <= st.Havocs {
		t.Errorf("devirt must reduce havocs: with pass %d, ablated %d", st.Havocs, abl.Stats.Havocs)
	}
}
