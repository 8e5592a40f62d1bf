# Targets mirror .github/workflows/ci.yml step for step: every workflow
# step that exercises the module runs `make <target>`, and
# scripts/check_ci_sync.sh (run by `lint`) fails the build when the
# workflow's target set and the `ci` aggregate below drift apart.

GO ?= go

# Pinned staticcheck (2025.1.1); CI installs exactly this version.
STATICCHECK_VERSION ?= v0.6.1

.PHONY: all build test test-386 stress bench bench-bits bench-compare bench-module staticcheck staticcheck-install lint smoke-serve smoke-cluster fuzz-smoke vuln ci

all: ci

# staticcheck-install fetches the pinned linter; CI runs it before the
# staticcheck step so the version is pinned in exactly one place (above).
# Needs network, so it is deliberately NOT part of the `ci` aggregate.
staticcheck-install:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

lint:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) vet ./examples/...
	./scripts/check_ci_sync.sh

# staticcheck runs the pinned linter when the tool is available
# (CI installs it; offline dev machines skip with a notice).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# test-386 vets and tests the module with a 32-bit int: trial budgets
# (mc.TrialLimit) and the compiled engine's sign-mask arithmetic must hold
# where int is 32 bits wide.
test-386:
	GOARCH=386 $(GO) vet ./...
	GOARCH=386 $(GO) test ./...

# stress reruns the concurrency tests under the race detector, so an
# interleaving that fails once in hundreds of runs shows up here rather
# than as a flaky `test`: internal/lru's compute-once, waited and panic
# paths, memserved's N-identical-requests-compute-once test and its
# shutdown under load, and the cluster's worker-killed-mid-sweep retry
# and queue takeover from a stalled worker.
stress:
	$(GO) test -race -count=200 -run '^(TestGetComputesOnce|TestGetWaitsForInFlightCompute|TestPanicDoesNotWedgeKey)$$' ./internal/lru
	$(GO) test -race -count=20 -run '^(TestEstimateSingleflight|TestGracefulShutdownUnderLoad)$$' ./internal/serve
	$(GO) test -race -count=100 -run '^(TestWorkerKilledMidSweepRetries|TestIdleWorkerTakesQueuedCells)$$' ./internal/cluster

# bench runs every root benchmark once, the AdaptivePrecision
# fixed-vs-adaptive comparison included: both sides meet the same
# interval target, and the adaptive side reports the trials it actually
# consumed.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$'

# bench-bits is the bit-parallel zero-alloc gate: run just the steady-state
# chunk scenarios with membench's unconditional zero-alloc check (no
# baseline needed) — fast enough to run on every hot-path change.
bench-bits:
	$(GO) run ./cmd/membench -rev bits -o BENCH_bits.json -only '^(bits-kernel|core-nobug-bits|compiled-kernel|rng-bulkfill|mc-mean-batch|mc-instrumented|obs-metrics)/'

# bench-compare is the perf-regression gate: run the canonical
# cmd/membench suite, emit BENCH_new.json, and compare it against the
# committed BENCH_baseline.json with the CI tolerances — fail on >2x
# ns/op growth, or on ANY allocs/op growth on zero-alloc scenarios.
bench-compare:
	$(GO) run ./cmd/membench -rev new -o BENCH_new.json -baseline BENCH_baseline.json

# bench-module vets and race-tests bench/, the end-to-end workload
# benchmark. It is a Go module of its own (replace memreliability => ../),
# so the root build, vet and test targets never compile it; this target
# keeps an internal API change from breaking bench/run.sh unnoticed.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test -race ./...

smoke-serve:
	./scripts/smoke_serve.sh

# smoke-cluster boots a 2-worker + coordinator fleet with a shared
# persistent store and checks the distributed artifact is byte-identical
# to single-process memsweep -o.
smoke-cluster:
	./scripts/smoke_cluster.sh

# fuzz-smoke replays the committed fuzz corpora under plain `go test`,
# runs the seeded differential sweep (`memdiff -duration 10s -seed 1`:
# randomized queries cross-checked across the compiled engine, the
# table-driven kernel, and the reference oracle, any divergence failing
# with a deterministic repro), then runs each native fuzz target
# (FuzzParseLitmus, FuzzDifferentialEstimate) for a bounded FUZZTIME
# (default 30s each). Crashers land in the packages' testdata/fuzz/
# directories; CI uploads them as artifacts on failure.
fuzz-smoke:
	./scripts/fuzz_smoke.sh

# vuln scans the module with govulncheck when the tool is available
# (CI installs it; offline dev machines skip with a notice).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

ci: lint staticcheck build test test-386 stress bench bench-bits bench-compare bench-module smoke-serve smoke-cluster fuzz-smoke vuln
