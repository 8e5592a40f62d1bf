#!/bin/sh
# Smoke-test the memserved daemon over real HTTP: liveness, one estimate,
# byte-identical repeat with a cache hit counted on /metrics/prom (the
# only metrics surface; GET /metrics is 404), an 8-chunk estimate that is
# byte-identical on a 2-slot and a 1-slot server (the 2-slot one lending
# its idle slot to the estimate's chunks), a window distribution answered
# at its requested prefix length, a 400 for an oversized trial budget and
# for 2^62 threads on a sweep and on an estimate, and for prefix_len 4,097
# on the exact routes, from a daemon that keeps serving, and a clean
# shutdown.
# Run by both `make smoke-serve` and the CI smoke-serve job.
set -eu

ADDR="127.0.0.1:18377"
BASE="http://$ADDR"
ADDR1="127.0.0.1:18378"
BASE1="http://$ADDR1"
WORKDIR="$(mktemp -d)"
PID=""
PID1=""

cleanup() {
    for p in $PID $PID1; do
        kill "$p" 2>/dev/null || true
        wait "$p" 2>/dev/null || true
    done
    rm -rf "$WORKDIR"
}
trap cleanup EXIT INT TERM

go build -o "$WORKDIR/memserved" ./cmd/memserved
"$WORKDIR/memserved" -addr "$ADDR" -estimate-workers 2 &
PID=$!
"$WORKDIR/memserved" -addr "$ADDR1" -estimate-workers 1 -log-requests=false &
PID1=$!

# Wait for liveness of both servers.
for base in "$BASE" "$BASE1"; do
    i=0
    until curl -sf "$base/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 50 ]; then
            echo "smoke-serve: memserved at $base never became healthy" >&2
            exit 1
        fi
        sleep 0.2
    done
done
echo "smoke-serve: healthz ok"

REQ='{"model":"TSO","threads":2,"estimator":"exact","seed":7}'
curl -sf -D "$WORKDIR/h1" -o "$WORKDIR/b1" -H 'Content-Type: application/json' -d "$REQ" "$BASE/v1/estimate"
curl -sf -D "$WORKDIR/h2" -o "$WORKDIR/b2" -H 'Content-Type: application/json' -d "$REQ" "$BASE/v1/estimate"

# Identical requests must return byte-identical bodies...
if ! cmp -s "$WORKDIR/b1" "$WORKDIR/b2"; then
    echo "smoke-serve: estimate bodies differ" >&2
    diff "$WORKDIR/b1" "$WORKDIR/b2" >&2 || true
    exit 1
fi
echo "smoke-serve: repeated estimate is byte-identical"

# ...with the second served from the cache.
if ! grep -qi '^x-cache: hit' "$WORKDIR/h2"; then
    echo "smoke-serve: second request was not a cache hit" >&2
    cat "$WORKDIR/h2" >&2
    exit 1
fi
curl -sf "$BASE/metrics/prom" >"$WORKDIR/prom"
if ! grep -qE '^serve_cache_events_total\{route="POST /v1/estimate",state="hit"\} [1-9]' "$WORKDIR/prom"; then
    echo "smoke-serve: /metrics/prom reports no estimate cache hit" >&2
    grep '^serve_cache_events_total' "$WORKDIR/prom" >&2 || true
    exit 1
fi
echo "smoke-serve: second request hit the cache"

# /metrics/prom is the only metrics surface.
STATUS=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/metrics")
if [ "$STATUS" != 404 ]; then
    echo "smoke-serve: GET /metrics answered $STATUS, want 404" >&2
    exit 1
fi

# The Prometheus exposition must be well-formed: HELP/TYPE headers, the
# per-kind estimator counter raised by the estimates above, and
# monotone (cumulative) histogram buckets.
for want in '# HELP serve_requests_total' '# TYPE serve_requests_total counter' \
            '# TYPE serve_request_seconds histogram' '# TYPE estimator_queries_total counter' \
            '# TYPE serve_computations_total counter' '# TYPE serve_computations_inflight gauge' \
            '# TYPE serve_jobs_accepted_total counter'; do
    if ! grep -qF "$want" "$WORKDIR/prom"; then
        echo "smoke-serve: /metrics/prom missing \"$want\"" >&2
        cat "$WORKDIR/prom" >&2
        exit 1
    fi
done
if ! grep -qE '^estimator_queries_total\{kind="exact"\} [1-9]' "$WORKDIR/prom"; then
    echo "smoke-serve: estimate did not raise estimator_queries_total{kind=\"exact\"}" >&2
    grep '^estimator_queries_total' "$WORKDIR/prom" >&2 || true
    exit 1
fi
# Cumulative bucket counts must never decrease within one series.
if ! awk -F'[ }]' '
    /_bucket\{/ {
        split($0, kv, "le=\"")
        series = substr($0, 1, index($0, "le=\"") - 1)
        count = $NF + 0
        if (series in last && count < last[series]) {
            print "non-monotone bucket: " $0
            exit 1
        }
        last[series] = count
        buckets++
    }
    END { if (buckets == 0) { print "no histogram buckets"; exit 1 } }
' "$WORKDIR/prom"; then
    echo "smoke-serve: /metrics/prom histogram buckets are broken" >&2
    exit 1
fi
echo "smoke-serve: /metrics/prom exposition ok"

# Every response must carry an X-Request-ID.
if ! grep -qi '^x-request-id: ' "$WORKDIR/h1"; then
    echo "smoke-serve: estimate response missing X-Request-ID" >&2
    cat "$WORKDIR/h1" >&2
    exit 1
fi
echo "smoke-serve: X-Request-ID present"

# A 65,536-trial mc estimate is 8 chunks. The 2-slot server's leader
# holds one slot and borrows the idle one for chunks; the 1-slot server
# has none to lend. The bodies must be byte-identical all the same.
BIG='{"model":"TSO","threads":2,"estimator":"mc","trials":65536,"seed":11}'
curl -sf -o "$WORKDIR/big2" -H 'Content-Type: application/json' -d "$BIG" "$BASE/v1/estimate"
curl -sf -o "$WORKDIR/big1" -H 'Content-Type: application/json' -d "$BIG" "$BASE1/v1/estimate"
if ! cmp -s "$WORKDIR/big2" "$WORKDIR/big1"; then
    echo "smoke-serve: 8-chunk estimate differs between the 2-slot and 1-slot servers" >&2
    diff "$WORKDIR/big2" "$WORKDIR/big1" >&2 || true
    exit 1
fi
echo "smoke-serve: 8-chunk estimate is byte-identical on 2 slots and 1 slot"
curl -sf "$BASE/metrics/prom" >"$WORKDIR/prom2"
if ! grep -qE '^mc_helper_chunks_total [1-9]' "$WORKDIR/prom2"; then
    echo "smoke-serve: the 2-slot server ran no chunk on a borrowed slot" >&2
    grep '^mc_helper_chunks_total' "$WORKDIR/prom2" >&2 || true
    exit 1
fi
echo "smoke-serve: the 2-slot server lent its idle slot ($(grep '^mc_helper_chunks_total' "$WORKDIR/prom2"))"

# windowdist answers at the requested prefix length: effective_m is
# prefix_len and no note is attached.
curl -sf -o "$WORKDIR/wd48" -H 'Content-Type: application/json' \
    -d '{"model":"WO","prefix_len":48}' "$BASE/v1/windowdist"
if ! grep -q '"effective_m": 48,' "$WORKDIR/wd48" || grep -q '"note"' "$WORKDIR/wd48"; then
    echo "smoke-serve: windowdist at prefix_len 48 did not answer at m = 48 without a note" >&2
    cat "$WORKDIR/wd48" >&2
    exit 1
fi
echo "smoke-serve: windowdist at prefix_len 48 answered at effective_m 48"

# A trial budget over mc.TrialLimit (2^30), threads over
# estimator.ThreadLimit, or a prefix_len over estimator.PrefixLimit
# (4,096, on the exact routes too) is refused with 400 before any
# compute: a sweep cell's chunk plan for 2^63-1 trials cannot be
# allocated, nor can a trial's scratch for 2^62 threads, and a panic on
# a job's or a chunk's goroutine would end the daemon. The same process
# must still answer /healthz.
HUGE=9223372036854775807
WIDE=4611686018427387904
refused() {
    STATUS=$(curl -s -o "$WORKDIR/huge" -w '%{http_code}' -H 'Content-Type: application/json' -d "$2" "$BASE/$1")
    if [ "$STATUS" != 400 ]; then
        echo "smoke-serve: POST /$1 with $2 answered $STATUS, want 400" >&2
        cat "$WORKDIR/huge" >&2
        exit 1
    fi
}
refused v1/sweeps "{\"models\":[\"SC\"],\"estimators\":[\"mc\"],\"trials\":$HUGE}"
refused v1/estimate "{\"model\":\"SC\",\"estimator\":\"mc\",\"trials\":$HUGE}"
refused v1/sweeps "{\"models\":[\"SC\"],\"estimators\":[\"mc-compiled\"],\"threads\":[$WIDE],\"trials\":64}"
refused v1/estimate "{\"model\":\"SC\",\"estimator\":\"mc-compiled\",\"threads\":$WIDE,\"trials\":64}"
refused v1/estimate '{"model":"SC","estimator":"exact","prefix_len":4097}'
refused v1/windowdist '{"model":"SC","prefix_len":4097}'
STATUS=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/healthz")
if [ "$STATUS" != 200 ] || ! kill -0 "$PID" 2>/dev/null; then
    echo "smoke-serve: memserved stopped serving after the oversized requests (healthz $STATUS)" >&2
    exit 1
fi
echo "smoke-serve: oversized trial budgets, thread counts and prefix lengths answered 400 and the daemon kept serving"

# SIGTERM must shut both daemons down cleanly.
for p in $PID $PID1; do
    kill "$p"
    STATUS=0
    wait "$p" || STATUS=$?
    if [ "$STATUS" -ne 0 ]; then
        echo "smoke-serve: memserved exited with status $STATUS" >&2
        exit 1
    fi
done
PID=""
PID1=""
echo "smoke-serve: clean shutdown"
