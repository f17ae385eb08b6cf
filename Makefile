# CI entry points for the CORUSCANT reproduction. `make ci` is the gate:
# lint (go vet + coruscantvet + gofmt) + build + race-enabled tests +
# short fuzz smoke + the DBC-engine benchmarks + a compile-and-test
# pass over the end-to-end benchmark module (bench/).

GO ?= go
BIN := bin

.PHONY: ci vet lint audit build test race race-obs fuzz alloc-budget bench bench-obs bench-profile bench-parallel bench-resilient bench-compile bench-pipeline bench-serve bench-smoke loc

ci: lint build race race-obs fuzz alloc-budget bench bench-obs bench-profile bench-parallel bench-resilient bench-compile bench-pipeline bench-serve bench-smoke

vet:
	$(GO) vet ./...

# bin/coruscantvet rebuilds only when the checker's inputs change: the
# command itself, the analyzers under internal/analysis, and the
# vendored x/tools analysis framework they build on.
VET_SRCS := $(shell find cmd/coruscantvet internal/analysis third_party -name '*.go' -not -path '*/testdata/*')

$(BIN)/coruscantvet: $(VET_SRCS) go.mod
	$(GO) build -o $@ ./cmd/coruscantvet

# lint runs the stock vet analyzers, then the repository's own
# coruscantvet suite (internal/analysis: rowalias, scratchescape,
# masktail, seededrand, panicmsg, facadeerr, and the CFG-based
# spanbalance — see DESIGN.md "Invariants & static analysis"), then
# checks formatting, then runs the pimasm IR verifier
# over every .pimasm program in the tree (the examples and the
# bench-compile corpus). The ./... sweep covers every package including
# the pimc compiler (internal/isa/compile). third_party/ carries
# vendored upstream code and is exempt from gofmt drift.
lint: vet $(BIN)/coruscantvet
	$(GO) vet -vettool=$(BIN)/coruscantvet ./...
	@fmt_out=$$(gofmt -l . | grep -v '^third_party/' || true); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi
	$(GO) run ./cmd/pimasm vet $(shell find . -name '*.pimasm' ! -path './third_party/*' | sort)

# audit is advisory, not a gate: it runs govulncheck when the tool is
# installed and succeeds with a notice otherwise (the build environment
# is offline).
audit:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || true; \
	else \
		echo "audit: govulncheck not installed; skipping (non-blocking)"; \
	fi

build:
	$(GO) build ./...

# loc prints the non-test Go lines of every package directory and their
# total: wc -l over the .go files that are not _test.go, with the
# vendored third_party/ tree and testdata/ fixtures excluded. Changes
# that aim at less code report their before/after numbers from it.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './third_party/*' ! -path '*/testdata/*' \
		-exec wc -l {} + | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\//, "", d); \
		n[d] += $$1; t += $$1 } END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; \
		close("sort -k2"); printf "%7d total\n", t }'

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-obs re-runs the concurrency-bearing packages under the race
# detector with -count=2: the recorder is shared mutable state threaded
# through memory, pim and dbc; memory's one lock is hammered by
# concurrent callers next to running batches, quarantining ones
# included (the memory stress tests), coruscantd runs one goroutine per
# share-nothing shard behind
# concurrent HTTP handlers, and a compiled pimc plan is shared
# read-only by every memory it runs on (TestPlanRunShared runs one plan
# on two memories at once). A second pass catches ordering flakes the
# single ./... sweep can miss.
race-obs:
	$(GO) test -race -count=2 ./internal/memory ./internal/telemetry \
		./internal/telemetry/profile ./internal/service ./cmd/coruscantd \
		./internal/isa/compile

# fuzz gives each native fuzz target a short deterministic smoke run;
# longer sessions are manual (`go test -fuzz <name> -fuzztime 5m`).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzRowRoundTrip -fuzztime 5s ./internal/dbc
	$(GO) test -run '^$$' -fuzz FuzzDivMod -fuzztime 5s ./internal/pim
	$(GO) test -run '^$$' -fuzz FuzzAddMultiNMR -fuzztime 5s ./internal/pim
	$(GO) test -run '^$$' -fuzz FuzzMultiplyFMA -fuzztime 5s ./internal/pim
	$(GO) test -run '^$$' -fuzz FuzzKernelEntry -fuzztime 5s ./internal/memory
	$(GO) test -run '^$$' -fuzz FuzzEncodeDecode -fuzztime 5s ./internal/isa
	$(GO) test -run '^$$' -fuzz FuzzAsmRoundTrip -fuzztime 5s ./internal/isa
	$(GO) test -run '^$$' -fuzz FuzzParseInstruction -fuzztime 5s ./internal/isa
	$(GO) test -run '^$$' -fuzz FuzzParseProgram -fuzztime 5s ./internal/isa/compile
	$(GO) test -run '^$$' -fuzz FuzzParseMatchesReference -fuzztime 5s ./internal/isa/compile
	$(GO) test -run '^$$' -fuzz FuzzCompileDifferential -fuzztime 5s ./internal/isa/compile
	$(GO) test -run '^$$' -fuzz FuzzRowDataJSON -fuzztime 5s ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzLanesJSON -fuzztime 5s ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzDecodeRequest -fuzztime 5s ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzRequestEnvelopeJSON -fuzztime 5s ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzReplyEnvelopeJSON -fuzztime 5s ./internal/service

# Benchmarks of the word-packed bit-plane engine: DBC primitives, the
# bulk/multi-operand PIM operations built on them, the add carry chain,
# the multiplier, the TW tournament, the two-candidate max and the
# divider. Reference numbers are recorded in BENCH_plane.json and
# BENCH_lint.json.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkDBC|BenchmarkBulk|BenchmarkPIM|BenchmarkAdd|BenchmarkMultiply|BenchmarkMaxTR|BenchmarkMaxSelect|BenchmarkDivMod' -benchmem ./...

# alloc-budget runs the exact-count gates together. TestAllocBudget
# (alloc_budget_test.go) pins every hot kernel's allocs/op to the number
# recorded in BENCH_plane.json / BENCH_parallel.json / BENCH_compile.json,
# so a change that makes any kernel allocate more per call fails ci even
# when the wall-clock columns are too noisy to notice.
# TestBenchDeviceCounts (bench_counts_test.go) re-measures the compiled
# example corpus and requires the row copies, shift steps, cycles and
# makespan BENCH_compile.json and BENCH_pipeline.json record.
alloc-budget:
	$(GO) test -run 'TestAllocBudget|TestBenchDeviceCounts' -count=1 -v .

# bench-parallel measures the bank-parallel batch path: one ExecuteBatch
# of independent adds across banks/subarrays against the
# request-at-a-time serial loop. Reference numbers, and the retired
# worker-pool rows that motivated running batches serially on the host,
# are recorded in BENCH_parallel.json.
bench-parallel:
	$(GO) test -run '^$$' -bench 'BenchmarkBatch' -benchmem .

# bench-resilient measures the recovery layer: the per-policy cost of
# recovered Execute (off/dup/nmr3/nmr5) with and without fault
# injection. Reference numbers and the disabled-path budget are
# recorded in BENCH_resilient.json.
bench-resilient:
	$(GO) test -run '^$$' -bench 'BenchmarkResilient' -benchmem .

# bench-obs measures the telemetry overhead guard: the hot PIM ops with
# telemetry disabled (nil recorder — must match the un-instrumented
# baseline), with a recorder that has no sink (the ledger only), and
# with a ring sink.
# Reference numbers and the <2% disabled-path budget are recorded in
# BENCH_obs.json.
bench-obs:
	$(GO) test -run '^$$' -bench 'BenchmarkTelemetry' -benchmem .

# bench-profile measures the hardware-profiler overhead guard: the same
# hot ops with no recorder (the disabled path must stay within noise of
# the bench-obs disabled numbers — the profiler is a sink, the hooks
# did not grow) and with the spatial profiler attached. Reference
# numbers are recorded in BENCH_profile.json.
bench-profile:
	$(GO) test -run '^$$' -bench 'BenchmarkProfile' -benchmem .

# bench-pipeline measures the pipelined -O2 schedule against -O1 over
# the example corpus: makespan (critical-path cycles) and cycles (serial
# sum) as custom metrics. Reference numbers (and the >=10% corpus
# makespan reduction, also pinned by compile's TestPipelinedCorpus) are
# recorded in BENCH_pipeline.json.
bench-pipeline:
	$(GO) test -run '^$$' -bench 'BenchmarkPipeline' -benchmem .

# bench-serve measures the coruscantd serving path end-to-end: the
# mixed RunLoad workload over real HTTP against an in-process 2-shard
# server, every read bit-checked against serial mirrors. req/s and
# client-observed p50/p95 come out as custom metrics. Reference numbers
# (and the retired worker-count rows) are recorded in BENCH_serve.json.
bench-serve:
	$(GO) test -run '^$$' -bench 'BenchmarkServe' -benchmem .

# bench-compile measures the pimc compiler on a fixed three-program
# corpus: compile latency per optimization level, and the measured cost
# of running the compiled plans — row-buffer moves, racetrack shift
# steps and device cycles as custom metrics, -O1 vs the naive -O0
# layout. Reference numbers (and the -O1 fewer-moves/fewer-cycles
# acceptance deltas) are recorded in BENCH_compile.json.
bench-compile:
	$(GO) test -run '^$$' -bench 'BenchmarkCompile' -benchmem .

# bench-smoke compiles and tests the end-to-end benchmark program
# (bench/, run by bench/run.sh). It is a separate module, so the root
# `go test ./...` never builds it; this catches API changes that would
# break it.
bench-smoke:
	cd bench && $(GO) test ./...
