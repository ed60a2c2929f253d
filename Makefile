GO ?= go

.PHONY: build test vet fmt-check race fuzz golden ci bench bench-e2e alloc-budget lint-self check-self unlowered-budget crash obs-smoke loc options ledger

build:
	$(GO) build ./...

# -shuffle=on randomizes test execution order, so accidental inter-test
# state dependence fails loudly instead of by timing luck.
test: build
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt -w needed on:"; echo "$$out"; exit 1; \
	fi

# Race-check the concurrent core (the engine's join workers, the storage
# layer the run goroutine streams through, the checker pipeline, the batch
# scheduler, whose determinism test exercises shared frontends, and the
# constraint memo each carries, from many workers (TestBatchMatchesSingleCheck holds every sharing
# mode to the single check's reports), plus the observability layer: the trace
# recorder and the progress tracker, which other goroutines read mid-run).
# The join workers are the only goroutines the engine starts:
# TestRunLeavesNoGoroutine ends a completed, a cancelled and a failed
# out-of-core run each with none left over.
# Counters have one writer each and no lock (docs/observability.md): the engine's
# TestObservedRunIsRaceFree watches a run with eight join workers from two
# reader goroutines, and cmd/grapple's TestProgressHeartbeatEmits drives batch +
# heartbeat + status.json end to end, the one place counters still cross
# goroutines. The second line is the decoder and the solver each join worker
# owns one of, with the scratch they reuse: their differential tests run under
# the detector at a tenth of the random corpus and on hdfs-half only. The
# third is the frontend, whose parse, resolve, lowering and exception
# expansion run one part of a unit per goroutine: FuzzParse's seeds and
# TestTinyPartsLowerLikeOneUnit cut units into one part per declaration,
# and the checker line's TestParallelFrontendMatchesSerial runs the
# frontend on 1, 2 and 4 workers.
race:
	$(GO) test -race ./internal/storage/... ./internal/engine/... ./internal/checker/... ./internal/scheduler/... ./internal/metrics/... ./internal/trace/... ./cmd/grapple/
	$(GO) test -race ./internal/symbolic/ ./internal/smt/ ./internal/cfet/
	$(GO) test -race ./internal/lang/ ./internal/ir/
	$(GO) test -race . -run TestAblationIdentity -count=1

# Short fuzzing sessions: SMT cache-keying invariants, the constraint cache
# against the LRU it replaced (identical answers while nothing is evicted,
# exact hits and the capacity bound under pressure), the solver against its
# reference (verdict identity, inputs left intact), the partition
# store's record decoder (the block cursor against the stream-decoder
# oracle), its partition readers (ReadPart, VisitPart and the resume
# prefix read held to one answer, seeded with clean, torn, appended,
# damaged and refused v2 files), and the durable-log reader, seeded with an
# engine journal and a batch log (resume must never crash or silently
# accept corrupt state), then
# the lexer against the byte-stepping reference lexer (the same tokens,
# positions and first error, and a byte consumed by every token), then
# the interprocedural points-to solver (termination bound + summary
# idempotence on arbitrary MiniLang inputs) and the devirtualization
# hierarchy (every live covering type must stay a dispatch candidate).
fuzz:
	$(GO) test ./internal/smt/ -fuzz FuzzCacheKeying -fuzztime 30s
	$(GO) test ./internal/smt/ -fuzz FuzzCacheMatchesReference -fuzztime 30s
	$(GO) test ./internal/smt/ -fuzz FuzzSolverMatchesReference -fuzztime 30s
	$(GO) test ./internal/lang/ -fuzz FuzzParse -fuzztime 20s
	$(GO) test ./internal/lang/ -fuzz FuzzLex -fuzztime 20s
	$(GO) test ./internal/storage/ -fuzz FuzzDecodeRecordV2 -fuzztime 20s
	$(GO) test ./internal/storage/ -fuzz FuzzReadPart -fuzztime 20s
	$(GO) test ./internal/storage/ -fuzz FuzzReadJournal -fuzztime 20s
	$(GO) test ./internal/analysis/ -fuzz FuzzPointsTo -fuzztime 20s
	$(GO) test ./internal/analysis/ -fuzz FuzzDevirt -fuzztime 20s
	$(GO) test ./internal/gofront/ -fuzz FuzzLowerGo -fuzztime 20s

# Crash-injection harness: kill the engine at EVERY superstep boundary (and
# mid-journal-write for torn-record coverage, and mid-partition-append at
# every partition frame a run appends for torn-frame coverage), resume from
# the journal, and require a byte-identical final report and whole partition
# files; same at checker granularity (both closure phases) and batch
# granularity (kill between instances or tear a batch-log record, resume
# reruns only the unfinished ones). The storage package's torn-tail and
# corruption tests gate with them: engine journals, batch logs and partition
# files are one durable log, read by one frame scanner under one damage
# rule. Superstep counts are bounded by small workloads so the
# every-boundary sweep stays fast. The checker sweep
# (TestCheckerResumeAtEveryBoundary) runs at two multi-partition budgets: one
# whose partitions hold whole per-object subgraphs and are never paired, and
# one that splits a subgraph at its median source, so that passes over two
# connected partitions — and the destination ranges a resumed engine must
# rebuild to schedule them — cross every kill point. A second sweep
# (TestCheckerResumeJournalWithoutSelfStamps, matched by "Resume") resumes
# from journals stripped of their self stamps, as an engine that kept one
# stamp per pass wrote them.
crash: build
	$(GO) test ./internal/storage/ ./internal/engine/ ./internal/checker/ ./internal/scheduler/ ./cmd/grapple/ -run 'Resume|Torn|Journal' -count=1

# Self-lint: every shipped example's embedded MiniLang program must pass
# `grapple lint` (all rules, including the interprocedural ones) with no
# findings — the linter's zero-false-positive bias, checked against our
# own code.
lint-self: build
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for d in examples/*/main.go; do \
		name=$$(basename $$(dirname $$d)); \
		awk '/^const program = `$$/{flag=1;next} flag && /^`$$/{exit} flag' $$d > "$$tmp/$$name.ml"; \
		echo "lint-self: $$name"; \
		$(GO) run ./cmd/grapple lint "$$tmp/$$name.ml"; \
	done

# Regenerate the golden-report regression corpus (testdata/golden/):
# the synthetic workload profiles plus the real-Go self-check subjects
# (storage with the resource packs, engine and trace with the sync packs).
golden:
	$(GO) test -run 'TestGolden' -update .

# Self-check: run the full typestate pipeline — gofront lowering, alias and
# dataflow closure phases, disk engine, SMT feasibility — over our own
# storage layer with the file-handle and use-after-release packs, and over
# the engine and trace packages with the concurrency packs (mutex,
# context-cancel), requiring clean reports. The sync-pack subjects are also
# pinned as goldens so a report conjured by a frontend change fails even if
# it would still exit zero. Grapple checks grapple.
check-self: build
	@echo "check-self: internal/storage (file-handle, use-after-release)"
	$(GO) run ./cmd/grapple run -pack file-handle -pack use-after-release ./internal/storage
	@echo "check-self: internal/engine (mutex, context-cancel)"
	$(GO) run ./cmd/grapple run -pack mutex -pack context-cancel ./internal/engine
	@echo "check-self: internal/trace (mutex, context-cancel)"
	$(GO) run ./cmd/grapple run -pack mutex -pack context-cancel ./internal/trace
	$(GO) test -run TestGoldenSelfCheckPacks -count=1 .

# Observability smoke: tracing and progress are observation-only — CLI
# stdout must be byte-identical with the full stack on or off, and the
# emitted trace/status artifacts must be well-formed JSON.
obs-smoke: build
	$(GO) test ./cmd/grapple/ -run 'TestTraceGoldenIdentity|TestStatsJSON|TestBatchStatsJSON' -count=1
	$(GO) test ./internal/checker/ -run TestTracingPreservesReports -count=1
	$(GO) vet ./internal/trace/...

# Lowering-coverage budget: corpus-wide Unlowered (havoc) counts — every
# gofront corpus snippet plus the self-check packages — are pinned in
# testdata/unlowered_budget.json. A frontend change that loses (or gains)
# coverage must bank it explicitly:
# go test ./internal/gofront/ -run TestUnloweredBudget -update
unlowered-budget: build
	$(GO) test ./internal/gofront/ -run TestUnloweredBudget -count=1

# Work ledger: on one join worker a check's work is a function of its input,
# so the per-phase counts of the four paper subjects, deep-sim, wide-sim 10×10
# (lock) and hdfs-half at 3 MiB — edges, candidates, induced edges,
# supersteps, widenings, solves, memo lookups and hits, loads, evictions,
# bytes moved, sliced functions — must equal testdata/work_ledger.json. A
# change that moves a count banks it and says why in CHANGES.md:
# go test ./internal/checker/ -run TestWorkLedger -update
ledger: build
	$(GO) test ./internal/checker/ -run TestWorkLedger -count=1

bench:
	$(GO) run ./cmd/grapple-bench -all

# One driver run of the time-to-verdict benchmark (BENCHMARK.json's command)
# on one workload: make bench-e2e W=closure-inmem
bench-e2e:
	@test -n "$(W)" || { echo "usage: make bench-e2e W=<workload>"; exit 2; }
	bash benchmark/run.sh --workload $(W)

# Allocation-budget regression gates: the zero-copy read path must stay
# near zero allocs/record (and under half of the stream-decoder oracle), the
# dedupe key, a warm SMT-cache probe and a warm variant-count probe and
# increment (insert's per-endpoint cap) must not allocate at all, nor may what
# follows a probe that misses — decoding the path and solving it, in a warm
# Decoder and Solver — and the cache insert after it only when a shard's
# table or key arena grows (10 000 inserts, <= 64 allocations), the join as a
# whole must stay within its pinned allocations and bytes per candidate, a
# loaded partition's edges must live in fixed-size blocks that hold the edges
# a flat slice would, in its order, and that growing never moves (one
# allocation per block of adds), written to files byte-identical to the flat
# writer's however the blocks split the edges, a
# check in a temp dir whose graph fits the budget must do no partition I/O at
# all (loads, writes, appends, bytes, evictions: all 0) and, out of
# core, merge exactly the edge pairs the in-memory join merges, with exactly
# its rejection counts, the in-memory join itself within its pinned merged
# pairs per induced edge (the join-amplification guard, against joining a
# pair twice and against deriving an edge twice: like the scaling guard it
# gates deterministic counts, not time), an out-of-core dataflow phase must
# load each partition once (loads <= partitions + splits, bytes read — the
# loads' and the one scan of what the run left on disk — <= twice the closed
# graph, supersteps within 10 % of their pinned counts: the pass
# guard, against scheduling partition pairs that no edge connects), building
# the dataflow graph from real alias flows must stay within its allocations
# per emitted edge on deep-sim, hdfs-half and wide-sim (each method's facts
# scanned once a build, not once per object and context), and the
# frontend must stay within
# its bytes per source byte (Parse: no token slice; the lexer scanning to
# EOF, TestLexerAllocatesNothing: nothing at all) and per encoded path
# (cfet.Build: no environment copy per split), within its heap objects per
# source line from parse to cfet.Build (TestFrontendAllocBudget: nodes,
# lists, SCCP states and names come from slabs and arrays owned by each
# build, not one allocation apiece), a sliced-away method must allocate no
# map of its own (TestStubAllocBudget: its stub, node and symbol lists come
# from the build's slabs), and its allocation per added
# function must not depend on the program's size (the scaling guard, which
# also counts one verdict lookup per If walked), the pre-analysis must
# visit exactly the functions the relevance slice keeps, or every function
# when nothing slices (the pre-analysis work guard, which reads the count
# off the pre-analysis span), and lowering must lower the bodies of exactly
# the functions the pre-slice keeps, at most a tenth of wide-sim 20×20, or
# every function when nothing slices (the lowering work guard, which reads
# the count off the lower span).
# Run without -race: the race runtime inflates allocation counts, so these
# tests skip themselves under it.
alloc-budget: build
	$(GO) test ./internal/storage/ -run 'TestDecodeAllocBudget|TestKeyZeroAlloc|TestFramesAcrossBlocksMatchFlat' -count=1
	$(GO) test ./internal/smt/ -run TestCachePutAllocs -count=1
	$(GO) test ./internal/engine/ -run 'TestCacheProbeZeroAlloc|TestEndpointCountZeroAlloc|TestJoinAllocBudget|TestEdgeBlocksMatchSlice|TestPartitionAddNeverMovesEdges' -count=1
	$(GO) test ./internal/lang/ -run 'TestParseAllocBudget|TestLexerAllocatesNothing' -count=1
	$(GO) test ./internal/cfet/ -run 'TestBuildAllocBudget|TestStubAllocBudget' -count=1
	$(GO) test ./internal/checker/ -run 'TestFrontendAllocBudget|TestFrontendScalesLinearly|TestPreAnalysisVisitsKeptFunctionsOnly|TestLowerVisitsPreKeptOnly|TestCrossPassJoinsEachPairOnce|TestOutOfCorePassesPerPartition|TestScratchRunDoesNoPartitionIO|TestMissPathZeroAlloc|TestDataflowBuildAllocBudget' -count=1

# The size figure CHANGES.md and ROADMAP.md quote: lines of non-test Go
# outside benchmark/ (and outside what the benchmark builds), counted the
# same way every time.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | wc -l

# The settable-value count CHANGES.md and ROADMAP.md quote next to `make loc`:
# one line per exported field of every options struct, as TestOptionSurface
# pins them.
options:
	@wc -l < testdata/option_surface.txt

ci: vet fmt-check race test crash lint-self check-self unlowered-budget obs-smoke alloc-budget ledger
