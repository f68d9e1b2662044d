# Shared steps of the smoke scripts (serve, writeopt, repl, shard): build the
# binaries, wait for a node to answer, SIGTERM-drain one and check its exit,
# and the independent rsinspect post-mortem. Sourced, not executed; the
# caller sets WORKDIR first. POSIX sh.

GO=${GO:-go}

# build PKG...: the commands under test, into $WORKDIR/bin.
build() {
    echo "== build =="
    $GO build -o "$WORKDIR/bin/" "$@"
}

# wait_up ADDR LOG: poll until an rsload ping-sized run against ADDR
# succeeds (the PING path is exercised by rsload itself); on timeout print
# the node's LOG and fail.
wait_up() {
    i=0
    until "$WORKDIR/bin/rsload" -addr "$1" -workers 1 -duration 100ms >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 100 ]; then
            echo "node on $1 never came up:" >&2
            cat "$2" >&2
            exit 1
        fi
        sleep 0.1
    done
}

# drain PID LOG WHAT: SIGTERM the process and require exit status 0 — a
# clean drain, which for rsserve also means no leaked pages.
drain() {
    kill -TERM "$1"
    status=0
    wait "$1" || status=$?
    if [ "$status" -ne 0 ]; then
        echo "$3 exited $status (want 0: clean drain)" >&2
        cat "$2" >&2
        exit 1
    fi
}

# verify_scrub STORE OUT: the independent post-mortem on a drained store —
# every page checksum valid (rsinspect verify) and, by the header and anchor
# ids its manifest names, zero leaked pages (rsinspect scrub -dry, report
# kept in OUT; it omits "leaked" entirely when the set is empty).
verify_scrub() {
    "$WORKDIR/bin/rsinspect" verify -store "$1"
    hdr=$(sed -n 's/.*"hdr"[[:space:]]*:[[:space:]]*\([0-9][0-9]*\).*/\1/p' "$1.manifest.json")
    anchor=$(sed -n 's/.*"anchor"[[:space:]]*:[[:space:]]*\([0-9][0-9]*\).*/\1/p' "$1.manifest.json")
    [ -n "$hdr" ] || { echo "no hdr in $1.manifest.json" >&2; exit 1; }
    "$WORKDIR/bin/rsinspect" scrub -store "$1" -kind epst -hdr "$hdr" ${anchor:+-anchor "$anchor"} \
        -dry -json >"$2"
    if grep -q '"leaked"' "$2"; then
        echo "scrub of $1 reports leaked pages" >&2
        cat "$2" >&2
        exit 1
    fi
}
