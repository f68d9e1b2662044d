#!/usr/bin/env sh
# Write-optimized mode smoke test, end to end over the network: boot
# rsserve -write-buffer on a fresh durable store, drive a verified
# write-heavy zipfian burst (flush thresholds set high so every ack
# lives only in the delta buffer + sidecar journal), SIGKILL the server
# mid-state, and assert the restart recovers every acknowledged write by
# journal replay. A second verified burst runs against the recovered
# server, /metrics must carry the rangesearch_wbuf_* series, the SIGTERM
# drain must fold the buffer and exit clean, the journal must end
# truncated, and an independent rsinspect pass must find clean checksums
# and zero leaked pages. CI runs this; `make writeopt-smoke` runs it
# locally.
set -eu

WORKDIR=$(mktemp -d /tmp/rsserve-writeopt.XXXXXX)
trap 'rm -rf "$WORKDIR"' EXIT
. "$(dirname "$0")/lib.sh"

STORE="$WORKDIR/writeopt.db"
JOURNAL="$STORE.wbuf"
ADDR=${ADDR:-127.0.0.1:9155}
METRICS_ADDR=${METRICS_ADDR:-127.0.0.1:9156}
DURATION=${DURATION:-2s}
WORKERS=${WORKERS:-6}
# Thresholds far above what the bursts write: no size/age flush may race
# the kill, so the journal is guaranteed non-empty when SIGKILL lands.
BUF_OPS=${BUF_OPS:-200000}
BUF_AGE=${BUF_AGE:-10m}

build ./cmd/rsserve ./cmd/rsload ./cmd/rsinspect

boot() {
    "$WORKDIR/bin/rsserve" -store "$STORE" -addr "$ADDR" \
        -metrics "$METRICS_ADDR" \
        -write-buffer -write-buffer-ops "$BUF_OPS" -write-buffer-age "$BUF_AGE" \
        >"$1" 2>&1 &
    SERVER_PID=$!
    wait_up "$ADDR" "$1"
}

echo "== boot rsserve -write-buffer ($STORE, flush at $BUF_OPS ops / $BUF_AGE) =="
boot "$WORKDIR/server1.log"

echo "== burst 1: verified write-heavy zipfian load =="
"$WORKDIR/bin/rsload" -addr "$ADDR" -workers "$WORKERS" -duration "$DURATION" \
    -pipeline 8 -read-frac 0.3 -dist zipf -theta 0.99 -seed 11 -verify \
    -json "$WORKDIR/load1.json"

# Every acked write of that burst is in the buffer, not the tree: the
# journal must be non-empty, and killing now erases the in-memory state.
[ -s "$JOURNAL" ] || { echo "journal $JOURNAL is empty before the kill" >&2; exit 1; }
echo "== SIGKILL with $(wc -c <"$JOURNAL") journal bytes outstanding =="
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true

echo "== reboot: journal replay must recover the acked writes =="
boot "$WORKDIR/server2.log"
grep -q 'write buffer: replayed' "$WORKDIR/server2.log" || {
    echo "restart did not replay the journal:" >&2
    cat "$WORKDIR/server2.log" >&2
    exit 1
}
grep 'write buffer: replayed' "$WORKDIR/server2.log"

echo "== burst 2: verified load against the recovered server =="
"$WORKDIR/bin/rsload" -addr "$ADDR" -workers "$WORKERS" -duration "$DURATION" \
    -pipeline 8 -read-frac 0.5 -dist zipf -theta 0.99 -seed 23 -verify \
    -json "$WORKDIR/load2.json"

echo "== scrape /metrics: write-buffer series must be live =="
"$WORKDIR/bin/rsinspect" prom -url "http://$METRICS_ADDR/metrics" -o "$WORKDIR/metrics.prom"
grep -q '^rangesearch_wbuf_serve' "$WORKDIR/metrics.prom" || {
    echo "/metrics carries no rangesearch_wbuf_serve samples" >&2
    exit 1
}

echo "== drain (SIGTERM): buffer folds into the base, journal truncates =="
drain "$SERVER_PID" "$WORKDIR/server2.log" rsserve
cat "$WORKDIR/server2.log"
if [ -s "$JOURNAL" ]; then
    echo "journal still holds $(wc -c <"$JOURNAL") bytes after a clean drain" >&2
    exit 1
fi

echo "== independent post-mortem: checksums + leak scrub =="
verify_scrub "$STORE" "$WORKDIR/scrub.json"
cat "$WORKDIR/scrub.json"

if [ -n "${ARTIFACT_DIR:-}" ]; then
    mkdir -p "$ARTIFACT_DIR"
    cp "$WORKDIR/load1.json" "$ARTIFACT_DIR/load1.json"
    cp "$WORKDIR/load2.json" "$ARTIFACT_DIR/load2.json"
    cp "$WORKDIR/server1.log" "$ARTIFACT_DIR/server1.log"
    cp "$WORKDIR/server2.log" "$ARTIFACT_DIR/server2.log"
    cp "$WORKDIR/metrics.prom" "$ARTIFACT_DIR/metrics.prom"
fi

echo "== writeopt smoke OK =="
