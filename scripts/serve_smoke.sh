#!/usr/bin/env sh
# End-to-end network smoke test: boot rsserve on a fresh durable file
# store with request tracing and the metrics endpoint live, drive a
# verified mixed workload with rsload (client-stamping TRACE envelopes),
# scrape /metrics and validate the Prometheus exposition, SIGTERM the
# server, and assert (a) zero protocol/consistency errors, (b) the drain
# exits clean, (c) an independent rsinspect pass finds every checksum
# valid and zero leaked pages, and (d) the span log is readable and
# non-empty. CI runs this; `make serve-smoke` runs it locally.
set -eu

WORKDIR=$(mktemp -d /tmp/rsserve-smoke.XXXXXX)
trap 'rm -rf "$WORKDIR"' EXIT
. "$(dirname "$0")/lib.sh"

STORE="$WORKDIR/smoke.db"
ADDR=${ADDR:-127.0.0.1:9135}
METRICS_ADDR=${METRICS_ADDR:-127.0.0.1:9136}
DURATION=${DURATION:-3s}
WORKERS=${WORKERS:-6}
JSON_OUT=${JSON_OUT:-$WORKDIR/load.json}
SPANS="$WORKDIR/spans.jsonl"

build ./cmd/rsserve ./cmd/rsload ./cmd/rsinspect

echo "== boot rsserve ($STORE, traced, metrics on $METRICS_ADDR) =="
"$WORKDIR/bin/rsserve" -store "$STORE" -addr "$ADDR" \
    -metrics "$METRICS_ADDR" -trace-sample 0.05 -slowlog 250ms \
    -spans "$SPANS" >"$WORKDIR/server.log" 2>&1 &
SERVER_PID=$!

wait_up "$ADDR" "$WORKDIR/server.log"

echo "== rsload ($WORKERS workers, $DURATION, verified, traced) =="
"$WORKDIR/bin/rsload" -addr "$ADDR" -workers "$WORKERS" -duration "$DURATION" \
    -pipeline 8 -batch-every 50 -verify -trace-sample 0.05 -json "$JSON_OUT"

echo "== scrape /metrics and validate the exposition =="
"$WORKDIR/bin/rsinspect" prom -url "http://$METRICS_ADDR/metrics" -o "$WORKDIR/metrics.prom"
grep -q '^rangesearch_server_main' "$WORKDIR/metrics.prom" || {
    echo "/metrics carries no rangesearch_server_main samples" >&2
    exit 1
}
grep -q '^rangesearch_pool_tx' "$WORKDIR/metrics.prom" || {
    echo "/metrics carries no rangesearch_pool_tx samples (the durable stack's page cache)" >&2
    exit 1
}

echo "== drain (SIGTERM) =="
drain "$SERVER_PID" "$WORKDIR/server.log" rsserve
cat "$WORKDIR/server.log"

echo "== independent post-mortem: checksums + leak scrub =="
verify_scrub "$STORE" "$WORKDIR/scrub.json"
cat "$WORKDIR/scrub.json"

echo "== span log readable and non-empty =="
[ -s "$SPANS" ] || { echo "span log $SPANS is empty" >&2; exit 1; }
"$WORKDIR/bin/rsinspect" spans -f "$SPANS" -top 3

# Keep the latency report, span log, and scraped exposition where CI can
# pick them up as artifacts.
if [ -n "${ARTIFACT_DIR:-}" ]; then
    mkdir -p "$ARTIFACT_DIR"
    cp "$JSON_OUT" "$ARTIFACT_DIR/load.json"
    cp "$SPANS" "$ARTIFACT_DIR/spans.jsonl"
    cp "$WORKDIR/metrics.prom" "$ARTIFACT_DIR/metrics.prom"
fi

echo "== serve smoke OK =="
