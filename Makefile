# Convenience targets for the SUPReMM reproduction.
GO ?= go

.PHONY: all build test test-race vet fmt-check lint lint-fast fuzz-smoke test-serve test-store test-bench bench bench-e2e bench-compare bench-gate bench-ingest bench-serve bench-store figures dashboard pipeline clean

all: build vet lint test test-race test-serve test-store test-bench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific invariants enforced by the nine-analyzer supremmlint
# suite — counter deltas, determinism, hot-path allocations, dropped
# writer errors, plus the flow-sensitive passes (lock release, snapshot
# immutability after publish, untrusted decode lengths, resource
# close-on-every-path) and the stale-allow sweep. The summary line
# prints the wall-clock the suite took; CI records it per push. See
# DESIGN.md "Static analysis" and "Flow-sensitive analysis".
lint: fmt-check
	$(GO) run ./cmd/supremmlint ./...

# gofmt drift fails the build. The analyzers' testdata is exempt: some
# of it is deliberately odd (lockcheck's b.go).
fmt-check:
	@out=$$(gofmt -l . | grep -v '/testdata/'); \
	if [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

# Fast pre-push loop: lint only the packages whose .go files changed
# since the origin/main merge base (committed or not). Falls back to
# the full suite when the merge base is unavailable (fresh clone, no
# origin remote). CI always runs the full `make lint`.
lint-fast:
	@base=$$(git merge-base origin/main HEAD 2>/dev/null); \
	if [ -z "$$base" ]; then \
		echo "lint-fast: no origin/main merge base, running full lint"; \
		$(GO) run ./cmd/supremmlint ./...; exit $$?; \
	fi; \
	dirs=""; \
	for d in $$(git diff --name-only $$base -- '*.go' | xargs -r -n1 dirname | sort -u); do \
		case $$d in *testdata*) continue ;; esac; \
		[ -d "$$d" ] && dirs="$$dirs ./$$d"; \
	done; \
	if [ -z "$$dirs" ]; then \
		echo "lint-fast: no Go packages changed since origin/main"; exit 0; \
	fi; \
	echo "lint-fast:$$dirs"; \
	$(GO) run ./cmd/supremmlint $$dirs

# Quick fuzz regression pass: replays the committed seed corpora plus a
# short budget of new inputs against the raw-format parsers, the
# columnar binary snapshot decoder, the daemon's corrupt-snapshot
# reload path (served generation must never change on a failed decode),
# its request path (malformed input is always a 4xx, never a panic or
# 5xx) and its answers (a well-formed request over HTTP gets the
# reference's body, byte for byte).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseFile -fuzztime 10s ./internal/taccstats
	$(GO) test -run '^$$' -fuzz FuzzColumnsDecode -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzManifestDecode -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzReloadCorrupt -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzQueryParams -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzServeDifferential -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzQuarantineRecord -fuzztime 10s ./internal/store

# Query-daemon suite: race-detector HTTP tests (concurrent queries vs
# hot reload), the simulate→ingest→supremmd golden harness, the chaos
# soak and the overload/breaker/drain suite (DESIGN.md §13), the
# shard-fault, incremental-reload and self-heal suites (§14, §15), the
# reload-sequence model (TestReloadModel and its racing variant, §13.2),
# the fuzz seed corpus replay, and the speedup floors. Run at one, two and
# four cores: the reload path's check-then-act race
# (TestConcurrentMaybeReload) never showed at GOMAXPROCS=1. The explicit
# timeout: one pass at three core counts is already 4½ of go's default
# 10 minutes.
test-serve:
	$(GO) test -race -cpu 1,2,4 -timeout 30m ./internal/serve ./cmd/supremmd

# Columnar store suite under the race detector: row-vs-columnar
# bit-equivalence, the binary and manifest codec round-trip/rejection
# matrices, the shard differential suite, scrub/quarantine/repair, the
# fuzz seed replay, and the columnar speedup floors (DESIGN.md §11, §14,
# §15), at one, two and four cores (the shard loader fans out over
# GOMAXPROCS, and concurrent first touches of a shard's memo race).
test-store:
	$(GO) test -race -cpu 1,2,4 -timeout 30m ./internal/store

# The benchmark (BENCHMARK.json) is its own module, supremm/bench, which
# the root `go build ./...` never sees: vet it and run its self-tests
# here so a rename of anything bench/adapter.go names fails the build,
# not the next benchmark run.
test-bench:
	$(GO) vet -C bench ./... && $(GO) test -C bench -short ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Full benchmark pass: regenerates every table/figure headline metric.
bench:
	$(GO) test -bench=. -benchmem ./...

# The end-to-end benchmark of BENCHMARK.json: every workload, end-to-end
# and per-layer metrics (bench/README.md). The microbenchmark targets
# below only print; the recorded trajectory is bench/results/*.json.
bench-e2e:
	$(GO) run -C bench .

# Before/after table from two recorded results:
#   make bench-compare A=results/0011-baseline.json B=results/mine.json
# (paths relative to bench/; record one with `go run -C bench . record`).
bench-compare:
	$(GO) run -C bench . compare $(A) $(B)

# Regression gate over the committed trajectory: each PR commits its
# `go run -C bench . record -out ../BENCH_<pr>.json` at the repository
# root; this compares the two newest and fails on a "worse" row or a
# larger share of failed operations. It times nothing, so CI can run it.
bench-gate:
	@set -- $$(ls BENCH_*.json 2>/dev/null | sort | tail -n 2); \
	if [ $$# -lt 2 ]; then echo "bench-gate: need two BENCH_*.json records, found $$#"; exit 1; fi; \
	echo "bench-gate: $$1 -> $$2"; \
	$(GO) run -C bench . compare ../$$1 ../$$2

# Ingest hot-path benchmarks only (parse + raw ETL), recorded for the
# before/after table in EXPERIMENTS.md.
bench-ingest:
	$(GO) test -run '^$$' -bench 'BenchmarkParse|BenchmarkIngestRaw' -benchmem \
		./internal/taccstats ./internal/ingest

# Query-daemon aggregation benchmarks: a selective and a broad store
# aggregate, HTTP cold vs cached, and a shard's posting-list walk vs its
# columnar scan of one compiled filter; recorded in EXPERIMENTS.md. The
# walk/scan ratio is what TestIndexedSpeedupFloor holds at >=5x.
bench-serve:
	$(GO) test -run '^$$' -bench 'BenchmarkServeAggregate|BenchmarkStoreSelect' -benchmem \
		./internal/serve ./internal/store

# Columnar store benchmarks: the aggregation, group-by and values
# kernels on a one-shard set next to internal/reference, the tests'
# naive oracle (the product has no row path), the binary codec (encode, decode, and the
# same rows decoded from JSON lines), the write path at 200k rows over
# 120 days (in-memory encode, streamed SaveBinary, a one-day
# WriteShardDir append), the incremental shard reload vs a full load,
# and the whole-shard time-prune win; recorded in EXPERIMENTS.md. The
# decode / decode-jsonl ratio backs the >=5x decode and the kernel /
# reference broad-scan ratio the >=3x acceptance criteria; the
# incremental reload is pinned by bytes read, not by this ratio
# (TestIncrementalReloadOpensOneShard).
bench-store:
	$(GO) test -run '^$$' -bench 'BenchmarkAggregateColumnar|BenchmarkColumnsCodec|BenchmarkEncodeColumns|BenchmarkSaveBinary|BenchmarkWriteShardDirAppend|BenchmarkIncrementalReload|BenchmarkShardPrune|BenchmarkShardMemo' -benchmem \
		./internal/store ./internal/serve

# Render every paper figure as text plus vector/HTML artifacts.
figures:
	$(GO) run ./cmd/supremm -days 30 -nodes 128 -svg out/figs -html out/dashboard.html | tee out/figures.txt

# The full-fidelity pipeline end to end into ./out/pipeline.
pipeline:
	$(GO) run ./cmd/simulate -cluster ranger -nodes 16 -days 3 -out out/pipeline -raw
	$(GO) run ./cmd/ingest -raw out/pipeline/raw -acct out/pipeline/accounting.log -out out/pipeline
	$(GO) run ./cmd/xdmod -data out/pipeline -report system

clean:
	rm -rf out
