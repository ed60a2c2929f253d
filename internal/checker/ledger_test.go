package checker_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/raceflag"
	"github.com/grapple-system/grapple/internal/workload"
)

// updateLedger rewrites the work ledger. Regenerate with:
//
//	go test ./internal/checker/ -run TestWorkLedger -update
var updateLedger = flag.Bool("update", false, "rewrite testdata/work_ledger.json")

const ledgerPath = "../../testdata/work_ledger.json"

// phaseWork is what one closure phase did, in counts that on one join worker
// are a function of the input alone: no time, no host.
type phaseWork struct {
	EdgesBefore     int64 `json:"edges_before"`
	EdgesAfter      int64 `json:"edges_after"`
	Candidates      int64 `json:"candidates"`
	Induced         int64 `json:"induced"`
	Supersteps      int64 `json:"supersteps"`
	Widened         int64 `json:"widened"`
	Solves          int64 `json:"solves"`
	Lookups         int64 `json:"lookups"`
	Hits            int64 `json:"hits"`
	Loads           int64 `json:"loads"`
	Evictions       int64 `json:"evictions"`
	BytesRead       int64 `json:"bytes_read"`
	BytesWritten    int64 `json:"bytes_written"`
	SlicedFunctions int   `json:"sliced_functions"`
}

func workOf(s checker.PhaseStats) phaseWork {
	return phaseWork{
		EdgesBefore: s.EdgesBefore, EdgesAfter: s.EdgesAfter,
		// Every merged edge pair either conflicts structurally or probes
		// the constraint memo, as the benchmark counts candidates.
		Candidates: s.CacheLookups + s.RejectedConflict,
		Induced:    s.EdgesAfter - s.EdgesBefore,
		Supersteps: s.Iterations, Widened: s.Widened,
		Solves: s.ConstraintsSolved, Lookups: s.CacheLookups, Hits: s.CacheHits,
		Loads: s.IO.Loads, Evictions: s.IO.Evictions,
		BytesRead: s.IO.BytesRead, BytesWritten: s.IO.BytesWritten,
		SlicedFunctions: s.SlicedFunctions,
	}
}

// ledgerSubject is one check the ledger records.
type ledgerSubject struct {
	name    string
	profile workload.Profile
	fsms    []*fsm.FSM
	budget  int64 // 0: the engine's default, one partition per phase
}

func ledgerSubjects() []ledgerSubject {
	var out []ledgerSubject
	for _, p := range workload.Profiles() {
		out = append(out, ledgerSubject{p.Name + "/all", p, fsm.Builtins(), 0})
	}
	return append(out,
		ledgerSubject{"deep-sim/all", deepSimProfile(), fsm.Builtins(), 0},
		ledgerSubject{"wide-sim-10x10/lock", workload.WideProfile(10, 10), []*fsm.FSM{fsm.BuiltinLock()}, 0},
		ledgerSubject{"hdfs-half/all/3MiB", hdfsHalfProfile(), fsm.Builtins(), 3 << 20},
	)
}

// TestWorkLedger is the work ledger: on one join worker a check's work is a
// function of its input, so every count testdata/work_ledger.json holds —
// per subject and phase: edges before and after, candidates, induced edges,
// supersteps, widenings, solves, memo lookups and hits, partition loads,
// evictions and bytes read and written, and sliced functions — must equal
// the file exactly. A change that moves a count rewrites the file with
// -update and says in its description which counts moved, and why each one
// that rose had to.
func TestWorkLedger(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the counts do not depend on scheduling; the race run has nothing to find here")
	}
	got := map[string]map[string]phaseWork{}
	for _, s := range ledgerSubjects() {
		c := checker.New(s.fsms, checker.Options{Workers: 1, MemoryBudget: s.budget})
		res, err := c.CheckSource(workload.Generate(s.profile).Source)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		got[s.name] = map[string]phaseWork{"alias": workOf(res.Alias), "dataflow": workOf(res.Dataflow)}
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *updateLedger {
		if err := os.WriteFile(ledgerPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", ledgerPath)
		return
	}
	wantData, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatalf("missing work ledger (run with -update): %v", err)
	}
	if bytes.Equal(data, wantData) {
		return
	}
	var want map[string]map[string]phaseWork
	if err := json.Unmarshal(wantData, &want); err != nil {
		t.Fatalf("%s: %v", ledgerPath, err)
	}
	for name, phases := range got {
		for ph, w := range phases {
			if w != want[name][ph] {
				t.Errorf("%s %s:\n  got  %+v\n  want %+v", name, ph, w, want[name][ph])
			}
		}
	}
	if len(want) != len(got) {
		t.Errorf("the ledger holds %d subjects, the test checks %d", len(want), len(got))
	}
	if !t.Failed() {
		t.Errorf("%s is not byte-identical to what the test would write (run with -update)", ledgerPath)
	}
}
