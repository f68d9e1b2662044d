#!/usr/bin/env sh
# Kill-and-recover chaos run: builds rsserve, rsrouter and rschaos, then
# runs rschaos on a fresh working directory with every argument passed
# through (see cmd/rschaos for the flags and topologies). With no
# arguments it is the single-node ≥10-cycle run; the Makefile's chaos,
# chaos-repl, chaos-shard and chaos-writeopt targets and CI's chaos job
# all come through here. Acceptance is rschaos's exit status. With
# ARTIFACT_DIR set, the JSON report is copied there as chaos.json
# (chaos-repl.json with -replicas, chaos-shard.json with -shards).
set -eu

WORKDIR=$(mktemp -d /tmp/rschaos.XXXXXX)
trap 'rm -rf "$WORKDIR"' EXIT

report=chaos
for arg in "$@"; do
    case "$arg" in
        -replicas | --replicas | -replicas=* | --replicas=*) report=chaos-repl ;;
        -shards | --shards | -shards=* | --shards=*) report=chaos-shard ;;
    esac
done

echo "== build =="
${GO:-go} build -o "$WORKDIR/bin/" ./cmd/rsserve ./cmd/rsrouter ./cmd/rschaos

echo "== chaos: ${*:-single node, harness defaults} =="
"$WORKDIR/bin/rschaos" \
    -server "$WORKDIR/bin/rsserve" -router "$WORKDIR/bin/rsrouter" \
    -dir "$WORKDIR/fleet" -json "$WORKDIR/$report.json" "$@"

# Keep the report where CI can pick it up as an artifact.
if [ -n "${ARTIFACT_DIR:-}" ]; then
    mkdir -p "$ARTIFACT_DIR"
    cp "$WORKDIR/$report.json" "$ARTIFACT_DIR/"
fi

echo "== chaos OK =="
