#!/usr/bin/env sh
# End-to-end sharded-cluster smoke test: boot three durable rsserve
# shards, front them with rsrouter on a static x-range shard map, drive a
# verified rsload -cluster workload through the router (which fetches the
# TOPOLOGY frame first), scrape the router's /metrics, drain the whole
# fleet with SIGTERM, and assert (a) zero protocol/consistency errors
# through the extra hop, (b) every drain exits clean, (c) each shard
# store passes an independent rsinspect checksum+scrub pass, (d) the
# shard stores' point counts sum to the fleet total the router reported,
# and (e) rsinspect splitplan re-derives a parseable shard spec from a
# populated shard store. CI runs this; `make shard-smoke` runs it
# locally.
set -eu

WORKDIR=$(mktemp -d /tmp/rsshard-smoke.XXXXXX)
trap 'rm -rf "$WORKDIR"' EXIT
. "$(dirname "$0")/lib.sh"

ROUTER_ADDR=${ROUTER_ADDR:-127.0.0.1:9140}
METRICS_ADDR=${METRICS_ADDR:-127.0.0.1:9146}
S0=${S0:-127.0.0.1:9141}
S1=${S1:-127.0.0.1:9142}
S2=${S2:-127.0.0.1:9143}
DURATION=${DURATION:-3s}
WORKERS=${WORKERS:-6}
DOMAIN=${DOMAIN:-60000}
SPEC="x<20000@$S0,x<40000@$S1,rest@$S2"
JSON_OUT=${JSON_OUT:-$WORKDIR/load.json}

build ./cmd/rsserve ./cmd/rsrouter ./cmd/rsload ./cmd/rsinspect

echo "== boot 3 shards ($SPEC) =="
SHARD_PIDS=""
n=0
for addr in "$S0" "$S1" "$S2"; do
    "$WORKDIR/bin/rsserve" -store "$WORKDIR/shard$n.db" -addr "$addr" \
        >"$WORKDIR/shard$n.log" 2>&1 &
    SHARD_PIDS="$SHARD_PIDS $!"
    n=$((n + 1))
done
wait_up "$S0" "$WORKDIR/shard0.log"
wait_up "$S1" "$WORKDIR/shard1.log"
wait_up "$S2" "$WORKDIR/shard2.log"

echo "== boot rsrouter ($ROUTER_ADDR, metrics on $METRICS_ADDR) =="
"$WORKDIR/bin/rsrouter" -addr "$ROUTER_ADDR" -shards "$SPEC" \
    -metrics "$METRICS_ADDR" >"$WORKDIR/router.log" 2>&1 &
ROUTER_PID=$!
wait_up "$ROUTER_ADDR" "$WORKDIR/router.log"

echo "== rsload -cluster ($WORKERS workers, $DURATION, verified through the router) =="
"$WORKDIR/bin/rsload" -addr "$ROUTER_ADDR" -cluster -verify \
    -workers "$WORKERS" -duration "$DURATION" -pipeline 8 \
    -domain "$DOMAIN" -batch-every 50 -json "$JSON_OUT"

# The TOPOLOGY handshake recorded the shard map in the report.
grep -q '"shards": 3' "$JSON_OUT" || {
    echo "load report carries no 3-shard cluster info" >&2
    exit 1
}
# The router's STATS snapshot (fetched by rsload) is the fleet total.
FLEET_LEN=$(sed -n '/"server_stats"/,$p' "$JSON_OUT" \
    | sed -n 's/.*"len"[[:space:]]*:[[:space:]]*\([0-9][0-9]*\).*/\1/p' | head -1)
[ -n "$FLEET_LEN" ] || { echo "no fleet len in $JSON_OUT" >&2; exit 1; }

echo "== scrape router /metrics =="
"$WORKDIR/bin/rsinspect" prom -url "http://$METRICS_ADDR/metrics" -o "$WORKDIR/metrics.prom"
grep -q '^rangesearch_router_main' "$WORKDIR/metrics.prom" || {
    echo "/metrics carries no rangesearch_router_main samples" >&2
    exit 1
}

echo "== drain fleet (SIGTERM router first, then shards) =="
drain "$ROUTER_PID" "$WORKDIR/router.log" rsrouter
cat "$WORKDIR/router.log"
n=0
for pid in $SHARD_PIDS; do
    drain "$pid" "$WORKDIR/shard$n.log" "shard$n"
    n=$((n + 1))
done

echo "== independent post-mortem: per-shard checksums + scrub + point counts =="
SUM=0
n=0
while [ "$n" -lt 3 ]; do
    STORE="$WORKDIR/shard$n.db"
    verify_scrub "$STORE" "$WORKDIR/scrub$n.json"
    # splitplan doubles as the offline point counter (and proves each
    # store's x-distribution is re-plannable).
    "$WORKDIR/bin/rsinspect" splitplan -store "$STORE" -n 2 -json >"$WORKDIR/splitplan$n.json"
    grep -q '"spec"' "$WORKDIR/splitplan$n.json" || {
        echo "splitplan on shard$n emitted no spec" >&2
        exit 1
    }
    pts=$(sed -n 's/.*"points"[[:space:]]*:[[:space:]]*\([0-9][0-9]*\).*/\1/p' "$WORKDIR/splitplan$n.json" | head -1)
    [ -n "$pts" ] || { echo "no point count in shard$n split plan" >&2; exit 1; }
    echo "shard$n: $pts points"
    SUM=$((SUM + pts))
    n=$((n + 1))
done
if [ "$SUM" -ne "$FLEET_LEN" ]; then
    echo "shard stores hold $SUM points, router reported $FLEET_LEN" >&2
    exit 1
fi
echo "fleet total: $SUM points across 3 shard stores == router len $FLEET_LEN"

# Keep the load report, scraped exposition, and split plans where CI can
# pick them up as artifacts.
if [ -n "${ARTIFACT_DIR:-}" ]; then
    mkdir -p "$ARTIFACT_DIR"
    cp "$JSON_OUT" "$ARTIFACT_DIR/shard-load.json"
    cp "$WORKDIR/metrics.prom" "$ARTIFACT_DIR/router-metrics.prom"
    cp "$WORKDIR/splitplan0.json" "$ARTIFACT_DIR/splitplan.json"
fi

echo "== shard smoke OK =="
