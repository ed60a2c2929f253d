package checker_test

import (
	"context"
	"slices"
	"testing"

	"github.com/grapple-system/grapple/internal/checker"
	"github.com/grapple-system/grapple/internal/fsm"
	"github.com/grapple-system/grapple/internal/smt"
	"github.com/grapple-system/grapple/internal/workload"
)

// TestOneMemoPerCompilationUnit: a compilation unit has one constraint memo,
// created by PrepareIR and carried on the Prepared, and both closure phases
// probe it. With one join worker every miss inserts a key no earlier probe
// put, and the memo evicts nothing at this size, so the two phases' misses
// together must be exactly the keys it holds; a dataflow phase with a memo of
// its own would leave the unit's holding the alias phase's keys alone. A
// second CheckPrepared on the same Prepared — the next instance of a batch
// subject — probes the same memo and misses nothing. Under
// DisableConstraintCache neither phase probes at all, and a caller-set
// Cache is the unit's memo unless DisableConstraintCache is set too.
func TestOneMemoPerCompilationUnit(t *testing.T) {
	ctx := context.Background()
	src := workload.Generate(hdfsHalfProfile()).Source
	prepare := func(opts checker.Options) (*checker.Checker, *checker.Prepared, *checker.Result) {
		t.Helper()
		opts.Workers = 1
		c := checker.New(fsm.Builtins(), opts)
		prep, err := c.PrepareSource(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.CheckPrepared(ctx, prep)
		if err != nil {
			t.Fatal(err)
		}
		return c, prep, res
	}

	c, prep, res := prepare(checker.Options{})
	a, d := res.Alias.Stats, res.Dataflow.Stats
	aliasMisses, dataflowMisses := a.CacheLookups-a.CacheHits, d.CacheLookups-d.CacheHits
	memo := prep.Memo()
	if memo == nil || aliasMisses == 0 || dataflowMisses == 0 {
		t.Fatalf("memo %v, %d alias and %d dataflow misses: the fixture does not exercise the memo", memo, aliasMisses, dataflowMisses)
	}
	t.Logf("alias %d/%d, dataflow %d/%d lookups/hits; the memo holds %d keys",
		a.CacheLookups, a.CacheHits, d.CacheLookups, d.CacheHits, memo.Len())
	if held := int64(memo.Len()); aliasMisses+dataflowMisses != held {
		t.Fatalf("%d alias + %d dataflow misses, but the unit's memo holds %d keys", aliasMisses, dataflowMisses, held)
	}

	again, err := c.CheckPrepared(ctx, prep)
	if err != nil {
		t.Fatal(err)
	}
	if d2 := again.Dataflow.Stats; d2.CacheLookups != d.CacheLookups || d2.CacheHits != d2.CacheLookups {
		t.Fatalf("second check of the same Prepared: %d/%d dataflow lookups/hits, want all %d to hit", d2.CacheLookups, d2.CacheHits, d.CacheLookups)
	}
	if !slices.EqualFunc(again.Reports, res.Reports, func(x, y checker.Report) bool { return x.String() == y.String() }) {
		t.Fatal("a warm memo changed the reports")
	}

	_, prep, off := prepare(checker.Options{DisableConstraintCache: true})
	if prep.Memo() != nil || off.Alias.CacheLookups != 0 || off.Dataflow.CacheLookups != 0 {
		t.Fatalf("DisableConstraintCache: memo %v, %d alias and %d dataflow lookups", prep.Memo(), off.Alias.CacheLookups, off.Dataflow.CacheLookups)
	}
	if !slices.EqualFunc(off.Reports, res.Reports, func(x, y checker.Report) bool { return x.String() == y.String() }) {
		t.Fatalf("without a memo %d reports, with one %d: %v vs %v", len(off.Reports), len(res.Reports), off.Reports, res.Reports)
	}

	own := smt.NewCache(0)
	if _, prep, _ = prepare(checker.Options{Cache: own}); prep.Memo() != own {
		t.Fatal("a caller-set Cache did not become the unit's memo")
	}
	_, prep, off = prepare(checker.Options{Cache: smt.NewCache(0), DisableConstraintCache: true})
	if prep.Memo() != nil || off.Alias.CacheLookups != 0 || off.Dataflow.CacheLookups != 0 {
		t.Fatalf("DisableConstraintCache beside a caller-set Cache: memo %v, %d alias and %d dataflow lookups",
			prep.Memo(), off.Alias.CacheLookups, off.Dataflow.CacheLookups)
	}
}
