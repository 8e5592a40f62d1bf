#!/bin/sh
# fuzz_smoke.sh — the bounded-time fuzz and differential gate.
#
# Three phases, all deterministic-friendly:
#
#   1. Corpus replay: plain `go test` natively executes every committed
#      seed under internal/**/testdata/fuzz/ (plus the corpus guard
#      tests), so a regression against a previously found input fails
#      fast, without the fuzzing engine.
#   2. Seeded differential sweep: `memdiff -seed 1` cross-checks 10s of
#      generated scenarios through the same diffcheck core as
#      FuzzDifferentialEstimate; a divergence replays with the same
#      flags.
#   3. Bounded native fuzzing: each fuzz target runs for FUZZTIME
#      (default 30s). A discovered crasher is written by `go test` into
#      the package's testdata/fuzz/ directory in the source tree — CI
#      uploads exactly those files as artifacts on failure.
#
# Total budget: corpus replay (seconds) + 10s + 2 × FUZZTIME ≈ well
# under the 3-minute ceiling at the default setting.
set -eu
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-30s}"

fail() {
	echo "fuzz-smoke: FAILED in $1" >&2
	echo "fuzz-smoke: new crashers (untracked corpus files), if any:" >&2
	git ls-files --others --exclude-standard -- 'internal/*/testdata/fuzz/*' 'internal/*/*/testdata/fuzz/*' >&2 || true
	echo "fuzz-smoke: replay a crasher with:" >&2
	echo "  go test ./internal/litmus/text/ -run 'FuzzParseLitmus/<crasher-file>'" >&2
	echo "  go test ./internal/diffcheck/    -run 'FuzzDifferentialEstimate/<crasher-file>'" >&2
	echo "fuzz-smoke: differential divergences replay through the seeded sweep:" >&2
	echo "  go run ./cmd/memdiff -duration 10s -seed 1" >&2
	exit 1
}

echo "fuzz-smoke: corpus replay"
go test ./internal/litmus/text/ ./internal/diffcheck/ -run 'Fuzz|Corpus' -count=1 \
	|| fail "corpus replay"

echo "fuzz-smoke: memdiff seeded differential sweep (10s, seed 1)"
go run ./cmd/memdiff -duration 10s -seed 1 \
	|| fail "memdiff"

echo "fuzz-smoke: FuzzParseLitmus ($FUZZTIME)"
go test ./internal/litmus/text/ -fuzz='^FuzzParseLitmus$' -fuzztime="$FUZZTIME" -run '^$' \
	|| fail "FuzzParseLitmus"

echo "fuzz-smoke: FuzzDifferentialEstimate ($FUZZTIME)"
go test ./internal/diffcheck/ -fuzz='^FuzzDifferentialEstimate$' -fuzztime="$FUZZTIME" -run '^$' \
	|| fail "FuzzDifferentialEstimate"

echo "fuzz-smoke: corpus replay + memdiff sweep + ${FUZZTIME}/target bounded fuzzing green"
