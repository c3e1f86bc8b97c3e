# Standard entry points; everything is pure Go with no external dependencies.

.PHONY: all build test test-shuffle test-race race cover cover-check test-prop test-chaos test-backend test-incremental fuzz-smoke bench bench-pass bench-json bench-check bench-build experiments verify fmt fmt-check vet lint lint-json ci examples

all: build test

build:
	go build ./...

test:
	go test ./...

# Order-shuffled pass (mirrors the CI test matrix's second step): catches
# inter-test coupling that the fixed order hides.
test-shuffle:
	go test -shuffle=on -count=1 ./...

# Tier-1 gate for the concurrency work: the whole suite under the race
# detector, including the 100+-goroutine stress tests.
test-race:
	go test -race ./...

race: test-race

cover:
	go test -cover ./...

# Coverage gate: total statement coverage must not fall below the baseline
# measured when the robustness suites landed. Raise the baseline when
# coverage genuinely improves; never lower it to make a PR pass.
COVER_BASELINE ?= 84.8

cover-check:
	@go test -coverprofile=cover.out ./... > /dev/null
	@total=$$(go tool cover -func=cover.out | awk '/^total:/ { sub("%","",$$3); print $$3 }'); \
	rm -f cover.out; \
	echo "total coverage: $$total% (baseline $(COVER_BASELINE)%)"; \
	awk -v t="$$total" -v b="$(COVER_BASELINE)" 'BEGIN { exit !(t+0 >= b+0) }' || \
		{ echo "coverage $$total% fell below the $(COVER_BASELINE)% baseline" >&2; exit 1; }

# Deep sweep of the property-based differential harness: many random
# database instances per property, engine answers checked against the
# brute-force oracle (see internal/proptest).
test-prop:
	go test -count=1 ./internal/proptest/ -proptest.deep

# Chaos suite under the race detector: fault-injection semantics per
# injection point, workload replays under a 10% injector, partial-answer
# HTTP contract, and the goroutine-leak checks.
test-chaos:
	go test -race -count=1 -run 'Chaos|Leak|Partial|Timeout|Cancel' . ./internal/chaos/ ./internal/core/ ./internal/server/ ./internal/qcache/

# Backend seam under the race detector: the dialect renderer, the sqlite3
# CLI driver, the exporter and the SQLite differential oracle (every dataset
# workload interpretation on both engines). Skips the live halves cleanly
# when no sqlite3 binary is on PATH; the CI step checks for the binary first
# so the oracle cannot skip there.
test-backend:
	go test -race -count=1 ./internal/backend/... ./internal/sqlast/render/

# Incremental-commit differential under the race detector: the relation
# delta-builder suite (ExtendFrozen vs full Freeze, index patching vs
# BuildIndex, the database's cached index under concurrent first use), the
# core Live incremental-vs-direct-Open equivalence, and the top-level replay
# of every dataset workload (engine and SQAK baseline) on an engine built via
# K incremental commits against one full core.Open — byte-identical answers
# required throughout, including under chaos injection mid-query — plus the
# one-index-per-epoch identity check and the matcher differential (every
# workload term's tags and object counts against a row-scan reference, on
# the frozen database and after each of 3 incremental commits) — and the
# executor's semi-join soundness suite, including key sets pushed across the
# delta-layer dictionaries an incremental commit leaves.
test-incremental:
	go test -race -count=1 -run 'Incremental|ExtendFrozen|AppendRows|DatabaseIndex|OneIndexPerEpoch|DictExtend|RemapCache|LiveCommit|LiveIngest|LiveEpoch|MatcherDifferential|SemiJoin' . ./internal/relation/ ./internal/core/ ./internal/match/ ./internal/sqldb/

# Short fuzzing pass over every fuzz target (~6 minutes total); the nightly
# workflow runs this, and `go test ./...` always replays the committed seed
# corpora in testdata/fuzz/. FuzzRender skips without a sqlite3 binary, so
# the target checks for it first and fails instead of passing silently.
fuzz-smoke:
	go test -fuzz=FuzzParse -fuzztime=75s ./internal/keyword/
	go test -fuzz=FuzzParse -fuzztime=75s ./internal/sqldb/
	go test -fuzz=FuzzPretty -fuzztime=75s ./internal/sqldb/
	go test -fuzz=FuzzExec -fuzztime=75s ./internal/sqldb/
	sqlite3 -version
	go test -fuzz=FuzzRender -fuzztime=75s ./internal/backend/

bench:
	go test -bench=. -benchmem ./...

# Bytes, allocations and time per paper-cold pass: BenchmarkPaperColdPass
# (root bench_test.go) answers kwbench's 32 paper-cold pairs once per
# iteration with the memo off. Five counts show the spread.
bench-pass:
	go test -run '^$$' -bench PaperColdPass -benchmem -count 5 .

# Machine-readable record of the executor-kernel, memo and epoch-commit
# benchmarks. BENCH.json is the rolling record the bench-regression gate
# compares against; the nightly workflow regenerates it as an artifact.
# BENCH_PR4.json, BENCH_PR6.json, BENCH_PR7.json and BENCH_PR9.json stay as
# earlier PRs' records. -cpu 1,4 covers both the single-threaded kernels and
# the shard-parallel scaling; the epoch benches run -cpu 1 with a fixed 20x
# iteration count so the database grows identically run to run.
KERNEL_BENCHES = Kernel|HashJoin3Way|GroupByAggregate|DistinctProjection|EqualityFilter|MemoSharedSubplans
KERNEL_BENCH_RUN = go test -run '^$$' -bench '$(KERNEL_BENCHES)' -benchmem -cpu 1,4 ./internal/sqldb/
EPOCH_BENCH_RUN = go test -run '^$$' -bench 'EpochCommit' -benchmem -benchtime 20x -cpu 1 ./internal/core/

bench-json:
	{ $(KERNEL_BENCH_RUN); $(EPOCH_BENCH_RUN); } | go run ./cmd/benchjson > BENCH.json
	@echo "wrote BENCH.json"

# Bench-regression gate: rerun the kernel and epoch-commit benchmarks and
# fail when any rows/s-bearing benchmark falls more than 25% below the
# committed BENCH.json baseline (or disappears from the run). Because the
# baseline holds both modes of BenchmarkEpochCommit, this gate also pins the
# incremental-vs-full commit speedup: the incremental rows/s entries sit an
# order of magnitude above full's, so losing the delta path fails the
# comparison outright. The fresh run is written to BENCH_CURRENT.json for the
# CI artifact either way.
bench-check:
	{ $(KERNEL_BENCH_RUN); $(EPOCH_BENCH_RUN); } | go run ./cmd/benchjson -compare BENCH.json -tolerance 0.25 > BENCH_CURRENT.json
	@echo "wrote BENCH_CURRENT.json"

# Compile and vet the end-to-end benchmark (kwbench/, its own module built
# against this one through a replace directive), so an API change that
# breaks it fails here rather than only when the benchmark runs.
bench-build:
	cd kwbench && go vet ./...

# Regenerate every table and figure of the paper's evaluation.
experiments:
	go run ./cmd/experiments -all

# CI gate: fails when any reproduced shape diverges from the paper.
verify:
	go run ./cmd/experiments -all -verify > /dev/null

fmt:
	gofmt -l -w .

# Fails (with the offending files listed) when anything is unformatted;
# mirrors the CI gofmt gate without rewriting the tree.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	go vet ./...

# Two-level static analysis (see docs/STATIC_ANALYSIS.md): the repo-specific
# code analyzers over every package — test files included, for the
# determinism analyzers — then the plan-invariant verifier over every
# statement the bundled dataset workloads generate.
lint:
	go run ./cmd/kwlint -tests ./...
	go run ./cmd/kwlint -plans

# Machine-readable lint record; the CI and nightly workflows upload it as an
# artifact next to BENCH.json.
lint-json:
	go run ./cmd/kwlint -json -tests ./... > KWLINT.json || true
	go run ./cmd/kwlint -json -plans > KWLINT_PLANS.json || true
	@echo "wrote KWLINT.json KWLINT_PLANS.json"

# Mirrors .github/workflows/ci.yml exactly, so contributors can run the
# whole push gate locally before opening a PR (the PR-only jobs are the fuzz
# smoke — `go test -fuzz=FuzzExec -fuzztime=30s ./internal/sqldb/` and
# `go test -fuzz=FuzzRender -fuzztime=30s ./internal/backend/` — and
# `make bench-check`).
ci: build vet fmt-check bench-build lint test test-shuffle test-race test-chaos test-prop test-backend test-incremental cover-check

# Run every example end to end.
examples:
	go run ./examples/quickstart
	go run ./examples/tpch
	go run ./examples/acmdl
	go run ./examples/unnormalized
	go run ./examples/relatedwork
