GO ?= go
SHA := $(shell git rev-parse --short=12 HEAD 2>/dev/null || echo nosha)

.PHONY: all build fmt vet lint lint-det lint-hot vulncheck test race bench bench-test bench-json bench-baseline bench-check check golden loadtest

all: check

build:
	$(GO) build ./...

# fmt fails (and lists the offenders) when any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# STATICCHECK_MOD pins the staticcheck version: `go run` resolves it
# without touching go.mod, so every environment with network access
# runs the same release instead of whatever binary happens to be on
# PATH. Bump deliberately, alongside toolchain bumps.
STATICCHECK_MOD := honnef.co/go/tools/cmd/staticcheck@2025.1.1

# GOVULNCHECK_MOD pins the vulnerability scanner the same way. The CI
# lint lane runs it warn-only.
GOVULNCHECK_MOD := golang.org/x/vuln/cmd/govulncheck@v1.1.4

# lint is vet plus the pinned staticcheck. Offline environments (no
# module proxy, e.g. the hermetic build container) skip the staticcheck
# half LOUDLY — the probe failing means the tool could not be fetched,
# whereas a staticcheck finding fails the target.
lint: vet
	@if $(GO) run $(STATICCHECK_MOD) -version >/dev/null 2>&1; then \
		$(GO) run $(STATICCHECK_MOD) ./...; \
	else \
		echo "SKIPPED staticcheck: $(STATICCHECK_MOD) not fetchable (offline?) — CI runs it"; \
	fi

# lint-det runs the in-tree determinism and concurrency linter
# (cmd/detlint): the custom go/analysis suite enforcing rules D1-D5,
# P1 and C1-C3 from CONTRIBUTING.md. No network needed — it builds
# from this module alone.
lint-det:
	$(GO) run ./cmd/detlint ./...

# lint-hot audits only the hot-path allocation rule (P1) — the quick
# local loop while optimizing: annotate a root with //perf:hot, run
# `make lint-hot`, fix or justify what it finds.
lint-hot:
	$(GO) run ./cmd/detlint -only hotpathalloc ./...

# vulncheck scans for known vulnerabilities in the toolchain/stdlib
# (the module has no external deps). Warn-only in CI; loud skip when
# the pinned tool cannot be fetched.
vulncheck:
	@if $(GO) run $(GOVULNCHECK_MOD) -version >/dev/null 2>&1; then \
		$(GO) run $(GOVULNCHECK_MOD) ./...; \
	else \
		echo "SKIPPED govulncheck: $(GOVULNCHECK_MOD) not fetchable (offline?) — CI runs it"; \
	fi

test:
	$(GO) test ./...

# race runs the whole suite under the race detector — the scenario
# runner's serial-vs-pool equivalence tests and the sweep engine only
# count as passing when they are also data-race-free.
race:
	$(GO) test -race ./...

# bench is a smoke run: every benchmark once, no timing statistics —
# it exists to prove the experiment harnesses still execute end-to-end.
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# bench-test runs the bench module's own tests (bench/ is a separate
# module, so ./... above does not reach it). They compare the evolve,
# stream, grid and serve outputs with the committed per-op digests in
# bench/testdata/digests.json — a byte-identity check on the paths the
# benchmark drives.
bench-test:
	cd bench && $(GO) test ./...

# BENCH_RUN is the one shared measurement methodology: every benchmark
# 5 times at -benchtime=1x with -benchmem (the artifacts record
# allocs/op medians alongside ns/op). bench-json and bench-baseline
# must measure identically or the >20% regression gate compares apples
# to oranges.
BENCH_RUN = $(GO) test -run=NONE -bench=. -benchtime=1x -count=5 -benchmem ./... > bench.out

# ALLOC_GUARD names the hot-path benchmarks whose allocs/op growth
# beyond 30% fails the bench lane like a time regression: allocation
# counts are deterministic, so drift there is a real change, not noise.
# BenchmarkSchedulerHetero covers the scheduler's mixed-type probe path,
# which the homogeneous BenchmarkSchedulerOnly never reaches;
# BenchmarkSimStreamBacklog covers sim.Graph.Run alone on one streaming
# window, without the per-call Prepare of BenchmarkDiscreteEventSim.
ALLOC_GUARD = BenchmarkSchedulerOnly,BenchmarkSchedulerHetero,BenchmarkDiscreteEventSim,BenchmarkSimStreamBacklog

# REQUIRE_BENCH is the worker-scaling ladder the bench lane must keep
# measuring: if a rung disappears from either artifact the gate fails
# instead of silently skipping it (the ROADMAP's parallel-scaling work
# is graded on these three benchmarks).
REQUIRE_BENCH = BenchmarkSweepGridParallel2,BenchmarkSweepGridParallel4,BenchmarkSweepGridParallel8

# SCALING_GATE is the committed parallel-speedup contract: the current
# artifact's Serial/Parallel median ratio per ladder must clear the
# threshold or the bench lane fails. benchdiff skips a gate (loudly)
# when the artifact was measured at fewer cores than the required
# ratio needs — a single-core dev box cannot express a 4x speedup, so
# the Parallel8 gates bind only on a runner with at least as many
# cores as the ratio. The grid's Parallel2 rung (>=1.4x) needs two
# cores, so a 2-core host enforces at least one gate locally.
SCALING_GATE = BenchmarkSweepGridSerial/BenchmarkSweepGridParallel2>=1.4,BenchmarkSweepGridSerial/BenchmarkSweepGridParallel8>=4,BenchmarkFrontierSweepSerial/BenchmarkFrontierSweepParallel8>=2.5,BenchmarkParetoExploreSerial/BenchmarkParetoExploreParallel8>=2.5,BenchmarkParetoEvolveSerial/BenchmarkParetoEvolveParallel8>=2.5

# bench-json measures the working tree and distills the median ns/op
# per benchmark into BENCH_<sha>.json via cmd/benchdiff.
bench-json:
	$(BENCH_RUN)
	$(GO) run ./cmd/benchdiff -parse bench.out -out BENCH_$(SHA).json -force
	@echo wrote BENCH_$(SHA).json

# bench-baseline refreshes the committed regression baseline. Run it
# after an intentional performance change — on the machine class that
# enforces the gate — and commit the diff.
bench-baseline:
	$(BENCH_RUN)
	$(GO) run ./cmd/benchdiff -parse bench.out -out BENCH_baseline.json -force
	@echo refreshed BENCH_baseline.json

# bench-check is the CI bench-regression lane: measure the working tree
# and fail on any >20% median regression against the committed baseline
# (above the max(2 ms, 5% of baseline) noise floor), >30% allocs/op
# growth on the guarded scheduler/simulator benchmarks, or a parallel
# scaling ratio below the committed SCALING_GATE thresholds.
bench-check: bench-json
	$(GO) run ./cmd/benchdiff -baseline BENCH_baseline.json -current BENCH_$(SHA).json \
		-threshold 20 -allocthreshold 30 -allocguard $(ALLOC_GUARD) -require $(REQUIRE_BENCH) \
		-scaling '$(SCALING_GATE)'

# loadtest is the serving smoke: build cmd/serve and cmd/loadtest,
# boot the daemon on a free port, drive concurrent cold/warm phases
# through it, and shut it down gracefully. Any failed request (or an
# unclean drain) fails the target — the CI serving lane's gate.
loadtest:
	./scripts/loadtest.sh

# golden regenerates the snapshot files after an intentional change to
# the analytic stack; review the diff before committing.
golden:
	$(GO) test ./internal/experiments -run TestGolden -update
	$(GO) test ./internal/scenario -run TestListTableGolden -update
	$(GO) test ./cmd/pareto -run TestTopTableGolden -update
	$(GO) test ./internal/api -run TestRequestKeyGolden -update
	$(GO) test ./internal/sched -run TestScheduleGolden -update
	$(GO) test ./internal/sim -run TestTemplateGolden -update

# check is the tier-1 gate, mirrored by .github/workflows/ci.yml:
# build + format + vet + determinism lint + race-enabled tests + bench
# smoke + the bench module's digest tests.
check: build fmt vet lint-det race bench bench-test
