GO ?= go

# Committed coverage floor for `make cover` (percent of statements across
# ./..., including the uncovered cmd/ and examples/ mains). Raise it as
# coverage grows; never lower it to make a PR pass.
COVER_MIN ?= 71.0
COVER_PROFILE ?= coverage.out

# Per-target budget for the fuzz smoke in `make fuzz-smoke`. CI runs the
# default; raise it locally for deeper exploration.
FUZZTIME ?= 10s

# Campaign worker goroutines for the sweep targets (0 = GOMAXPROCS). The report
# bytes are identical at any value — only wall-clock time changes.
CAMPAIGN_WORKERS ?= 0

.PHONY: build test vet fmt-check race check cover bench bench-digest bench-pairs identity fuzz-smoke test-slabdebug campaign-smoke campaign-nightly

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packet-lifecycle diagnostic build: -tags slabdebug arms the slab
# registry (use-after-release and double-release panics name their Get and
# Release call sites). The whole tree must pass under the tag — the registry
# may change allocation counts but never simulation results.
test-slabdebug:
	$(GO) test -tags slabdebug ./...

vet:
	$(GO) vet ./...

# Hygiene gate: fails (and lists the offenders) if any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Race-check the concurrency-bearing packages (the parallel engine, the
# partitioned cluster, and the kernel, whose tests switch Spawn coroutines).
# The engine runs at 1, 2 and 4 Ps: one P clamps it to a single worker, two
# let the barrier's spin succeed, four on a smaller host make waiters park.
# Much faster than racing the whole tree; `make check` still races everything.
race:
	$(GO) test -race -cpu 1,2,4 ./internal/sim
	$(GO) test -race ./internal/core ./internal/kernel

# Short fuzz pass over the hardened input surfaces: the CLI fault-spec
# grammar, the campaign shape grammar, the Chrome-trace encoder, campaign spec
# decoding and cell enumeration, and the artifact validator. Go fuzzes one
# target per invocation, so each runs separately.
fuzz-smoke:
	$(GO) test ./internal/fault -run '^$$' -fuzz FuzzParseSpec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/topology -run '^$$' -fuzz FuzzParseShape -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs -run '^$$' -fuzz FuzzChromeTraceJSON -fuzztime $(FUZZTIME)
	$(GO) test ./internal/campaign -run '^$$' -fuzz FuzzCampaignSpec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/campaign -run '^$$' -fuzz FuzzValidateArtifact -fuzztime $(FUZZTIME)

# The full gate: vet + race-enabled tests + fuzz smoke across every package.
# The determinism rules are a test (internal/analysis), so they run here too.
check:
	$(GO) vet ./...
	$(GO) test -race ./...
	$(MAKE) fuzz-smoke

# Coverage gate: writes $(COVER_PROFILE) (uploaded by CI as an artifact) and fails if total statement coverage drops below the
# committed COVER_MIN floor.
cover:
	$(GO) test -coverprofile=$(COVER_PROFILE) ./...
	@total="$$($(GO) tool cover -func=$(COVER_PROFILE) | awk '/^total:/ {sub(/%/, "", $$3); print $$3}')"; \
	echo "total coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit !(t+0 < min+0) }' && \
		{ echo "COVERAGE REGRESSION: $$total% < $(COVER_MIN)%"; exit 1; } || true

# CI campaign gate: the 8-cell smoke sweep (topology × kernel × fault draw),
# written as CAMPAIGN_results.json and schema-validated by the Go validator.
# Byte-identical at any CAMPAIGN_WORKERS value — the determinism contract
# internal/campaign tests at workers 1/2/NumCPU.
campaign-smoke:
	$(GO) run ./cmd/campaign run -preset smoke -workers $(CAMPAIGN_WORKERS) -q -o CAMPAIGN_results.json
	$(GO) run ./cmd/diablo validate CAMPAIGN_results.json

# Full-scale nightly sweep: 240 cells of 248–496 nodes each.
campaign-nightly:
	$(GO) run ./cmd/campaign run -preset nightly -workers $(CAMPAIGN_WORKERS) -q -o CAMPAIGN_results.json
	$(GO) run ./cmd/diablo validate CAMPAIGN_results.json

# Benchmark smoke, one iteration each: the partitioned engine's speed-up
# (BenchmarkParallelClusterSpeedup), the four ablations of DESIGN.md §4 and
# the internal/sim microbenchmarks. The paper's figures are pinned by
# TestFigureGoldens, not benchmarked.
bench:
	$(GO) test -run xxx -bench . -benchtime 1x -benchmem . ./internal/sim

# The behaviour oracle: one repetition of every whole-model workload of the
# repository benchmark (bench/, BENCHMARK.json). Fails on any failed
# repetition and on any digest that differs from bench/golden.json; the
# timings in BENCH_digest.json are one sample each, not a measurement.
bench-digest:
	$(GO) run ./bench -reps 1 -json BENCH_digest.json

# The paired protocol behind a performance claim: PARENT (a revision) against
# the working tree on each WORKLOAD (one name or a comma-separated list) of the
# repository benchmark, PAIRS runs of each in alternating order, medians,
# quartiles and wins for every end-to-end metric; logs stay in
# .bench_build/pairs/<workload>/. Ten 20 s pairs take about ten minutes.
# PARENT=HEAD on a clean tree is an A/A noise-floor run, and is labelled so.
PAIRS ?= 10
SEED ?= 1
bench-pairs:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-pairs PARENT=<rev> WORKLOAD=<name>[,<name>...] [PAIRS=10] [SEED=1]"; exit 2; }
	bash scripts/bench-pairs.sh "$(PARENT)" "$(WORKLOAD)" "$(PAIRS)" "$(SEED)"

# Byte-identity of every simulated output against PARENT (a revision): the
# figures, the fault experiments, two campaigns, the quickstart example and
# the traces and manifests of three observed single runs (campaign replay of
# the one-cell specs in testdata/runs), run on both sides in the same
# directory; names every differing file and fails at the end if any did.
# Outputs stay in .identity_build/<side>/<name>. About 35 s per side.
identity:
	@test -n "$(PARENT)" || { echo "usage: make identity PARENT=<rev>"; exit 2; }
	bash scripts/identity.sh "$(PARENT)"
