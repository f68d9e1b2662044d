#!/usr/bin/env sh
# Replicated serving smoke test: boot a primary with two log-shipping
# replicas, drive a verified workload whose reads fan out across the
# replicas under a (term, LSN) read barrier, then SIGKILL the primary,
# promote one replica with SIGUSR1, re-point the survivor at it, and
# re-verify under load. Asserts: both load phases finish with zero
# protocol/consistency errors and real replica reads, the surviving
# nodes drain clean, their WAL layers decode healthy, and the promoted
# store's manifest carries role=primary term=1. CI runs this; `make
# repl-smoke` runs it locally. `make chaos-repl` is the heavyweight
# kill-loop version of the same claims.
set -eu

WORKDIR=$(mktemp -d /tmp/repl-smoke.XXXXXX)
. "$(dirname "$0")/lib.sh"
P_PID=""
R1_PID=""
R2_PID=""
cleanup() {
    for pid in "$P_PID" "$R1_PID" "$R2_PID"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

DURATION=${DURATION:-3s}
WORKERS=${WORKERS:-4}
P_ADDR=127.0.0.1:19035
P_REPL=127.0.0.1:19135
R1_ADDR=127.0.0.1:19036
R1_REPL=127.0.0.1:19136
R2_ADDR=127.0.0.1:19037
R2_REPL=127.0.0.1:19137

build ./cmd/rsserve ./cmd/rsload ./cmd/rsinspect

echo "== boot primary ($P_ADDR, shipping on $P_REPL, sync=2) =="
"$WORKDIR/bin/rsserve" -store "$WORKDIR/p.db" -addr "$P_ADDR" \
    -repl-listen "$P_REPL" -repl-sync 2 >"$WORKDIR/p.log" 2>&1 &
P_PID=$!
wait_up "$P_ADDR" "$WORKDIR/p.log"

echo "== boot replicas =="
"$WORKDIR/bin/rsserve" -store "$WORKDIR/r1.db" -addr "$R1_ADDR" \
    -repl-listen "$R1_REPL" -repl-sync 1 \
    -replicate-from "$P_REPL" >"$WORKDIR/r1.log" 2>&1 &
R1_PID=$!
"$WORKDIR/bin/rsserve" -store "$WORKDIR/r2.db" -addr "$R2_ADDR" \
    -repl-listen "$R2_REPL" -repl-sync 1 \
    -replicate-from "$P_REPL" >"$WORKDIR/r2.log" 2>&1 &
R2_PID=$!
wait_up "$R1_ADDR" "$WORKDIR/r1.log"
wait_up "$R2_ADDR" "$WORKDIR/r2.log"

echo "== phase 1: verified load, reads fanned across both replicas =="
"$WORKDIR/bin/rsload" -addr "$P_ADDR" -workers "$WORKERS" -duration "$DURATION" \
    -pipeline 8 -verify -resilient \
    -read-addrs "$R1_ADDR,$R2_ADDR" \
    -failover-addrs "$R1_ADDR,$R2_ADDR" \
    -json "$WORKDIR/load1.json"
grep -q '"replica_reads": *[1-9]' "$WORKDIR/load1.json" || {
    echo "phase 1 recorded no replica reads" >&2
    exit 1
}

echo "== failover: SIGKILL primary, SIGUSR1-promote r1 =="
kill -KILL "$P_PID" 2>/dev/null || true
wait "$P_PID" 2>/dev/null || true
P_PID=""
kill -USR1 "$R1_PID"
# A liveness probe can't tell a replica from a primary (replicas shed
# writes as NOTPRIMARY without failing the probe), so wait for the
# server's own promotion log line.
i=0
until grep -q 'promote: primary at term' "$WORKDIR/r1.log"; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "r1 never promoted:" >&2
        cat "$WORKDIR/r1.log" >&2
        exit 1
    fi
    sleep 0.1
done

# Re-point the surviving replica at the new primary: drain it cleanly
# and restart it replicating from r1's shipping port (the handshake
# re-clones across the term bump and adopts term 1).
drain "$R2_PID" "$WORKDIR/r2.log" r2
"$WORKDIR/bin/rsserve" -store "$WORKDIR/r2.db" -addr "$R2_ADDR" \
    -repl-listen "$R2_REPL" -repl-sync 1 \
    -replicate-from "$R1_REPL" >>"$WORKDIR/r2.log" 2>&1 &
R2_PID=$!
wait_up "$R2_ADDR" "$WORKDIR/r2.log"

echo "== phase 2: verified load against the promoted primary =="
"$WORKDIR/bin/rsload" -addr "$R1_ADDR" -workers "$WORKERS" -duration "$DURATION" \
    -pipeline 8 -verify -resilient \
    -read-addrs "$R2_ADDR" \
    -json "$WORKDIR/load2.json"

echo "== drain survivors =="
drain "$R1_PID" "$WORKDIR/r1.log" "promoted primary"
R1_PID=""
drain "$R2_PID" "$WORKDIR/r2.log" r2
R2_PID=""

echo "== post-mortem: WAL layer + checksums on the survivors =="
# The SIGKILLed ex-primary may legitimately hold a torn record (that is
# what recovery discards), so only the cleanly drained nodes are gated.
"$WORKDIR/bin/rsinspect" wal -store "$WORKDIR/r1.db" -json | tee "$WORKDIR/wal-r1.json"
grep -q '"role": *"primary"' "$WORKDIR/wal-r1.json" || {
    echo "promoted store is not a primary" >&2
    exit 1
}
grep -q '"term": *1' "$WORKDIR/wal-r1.json" || {
    echo "promoted store did not adopt term 1" >&2
    exit 1
}
"$WORKDIR/bin/rsinspect" wal -store "$WORKDIR/r2.db" >/dev/null
"$WORKDIR/bin/rsinspect" verify -store "$WORKDIR/r1.db"
"$WORKDIR/bin/rsinspect" verify -store "$WORKDIR/r2.db"

# Keep the per-phase latency/staleness reports where CI can pick them
# up as artifacts.
if [ -n "${ARTIFACT_DIR:-}" ]; then
    mkdir -p "$ARTIFACT_DIR"
    cp "$WORKDIR/load1.json" "$ARTIFACT_DIR/repl-load1.json"
    cp "$WORKDIR/load2.json" "$ARTIFACT_DIR/repl-load2.json"
    cp "$WORKDIR/wal-r1.json" "$ARTIFACT_DIR/repl-wal-r1.json"
fi

echo "== repl smoke OK =="
