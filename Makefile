GO ?= go

.PHONY: all build test race bench bench-write cover vet fmt sweep recover-sweep fuzz-short bound experiments examples clean soak model trajectory serve load serve-smoke chaos repl-smoke chaos-repl shard-smoke chaos-shard writeopt-smoke chaos-writeopt perf-pairs

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Fault sweeps: fail every store operation of each structure's workload in
# turn and assert errors surface, nothing panics, structures stay readable.
sweep:
	$(GO) test ./internal/... -run 'FaultSweep|CrashRecovery' -v

# Recovery sweeps: crash each structure's scripted update (from a
# checkpointed image and from one with a non-empty WAL ring) and a scripted
# multi-lap commit HISTORY at EVERY mutating backing-store operation, under
# every disk model (process death, write cache dropped, arbitrary subset of
# unsynced writes survived, the same with a torn write), reopen, run WAL
# recovery, and assert the state is exactly pre-op or post-op — a prefix
# holding every acknowledged commit — with invariants intact and a clean
# file. Each sweep runs with TxStore's built-in page cache and again with a
# tiny one that steals; the cache's coherence schedule and the pins on what
# a commit writes before its ack run with them.
recover-sweep:
	$(GO) test ./internal/... -run 'TestRecoverySweep|TestTxRecoverySweepRaw|TestTxRecoverySweepHistory|TestJournalRecoverySweep|TestTxCacheCoherence|TestTxCommitForcesOnlyLog|TestTxRunWrite' -v

# Short coverage-guided fuzz of the hostile-input parsers: WAL records,
# whole WAL rings under recovery, anchors, whole store files, and the rsserve wire-protocol decoders.
# CI runs this; longer runs are manual.
fuzz-short:
	$(GO) test ./internal/eio -run '^$$' -fuzz 'FuzzWALRecord' -fuzztime 10s
	$(GO) test ./internal/eio -run '^$$' -fuzz 'FuzzWALRing' -fuzztime 10s
	$(GO) test ./internal/eio -run '^$$' -fuzz 'FuzzAnchor' -fuzztime 10s
	$(GO) test ./internal/eio -run '^$$' -fuzz 'FuzzVerifyFile' -fuzztime 10s
	$(GO) test ./internal/server -run '^$$' -fuzz 'FuzzDecodeRequest' -fuzztime 10s
	$(GO) test ./internal/server -run '^$$' -fuzz 'FuzzDecodeIdem' -fuzztime 10s
	$(GO) test ./internal/server -run '^$$' -fuzz 'FuzzDecodeTrace' -fuzztime 10s
	$(GO) test ./internal/server -run '^$$' -fuzz 'FuzzDecodeResponse' -fuzztime 10s
	$(GO) test ./internal/server -run '^$$' -fuzz 'FuzzReadFrame' -fuzztime 10s
	$(GO) test ./internal/server -run '^$$' -fuzz 'FuzzFrameSizeRejection' -fuzztime 10s
	$(GO) test ./internal/router -run '^$$' -fuzz 'FuzzDecodeTopology' -fuzztime 10s
	$(GO) test ./internal/router -run '^$$' -fuzz 'FuzzParseShards' -fuzztime 10s
	$(GO) test ./internal/wbuf -run '^$$' -fuzz 'FuzzDecodeBufJournal' -fuzztime 10s

# Concurrency soak: snapshot readers vs a group-committing writer under
# the race detector, with the single-writer linearizability checks
# (epoch-prefix reads, monotone epochs, cross-reader agreement).
soak:
	$(GO) test -race ./internal/core -run 'TestConcurrentSoak|TestConcurrentGroupCommit|TestConcurrentDurableGroupCommit' -count=1 -v

# Model-based differential harness: random op sequences replayed against a
# naive O(N) model over every structure × wrapper config and every stack
# internal/node's mode table accepts (file-backed rows in a temp dir), with
# shrinking. Set MODELTEST_ARTIFACTS=<dir> to keep shrunk failing sequences,
# one file per cell and seed.
model:
	$(GO) test ./internal/core/modeltest -run TestDifferential -count=1 -v

# Empirical bound check (e14): per-op I/O overhead vs the Theorem 6/7
# allowances; exits 3 on violation. The same check gates CI.
bound:
	$(GO) run ./cmd/rsbench -quick -bound -json -outdir trajectory

# Regenerate the committed trajectory snapshots that the I/O regression
# guard (internal/bench/regression_test.go) replays with tolerance zero.
trajectory:
	$(GO) run ./cmd/rsbench -quick -exp e7,concurrent,writeopt -json -outdir trajectory

# Boot a durable file-backed rsserve on a throwaway store (Ctrl-C drains
# and leak-checks it). STORE/ADDR are overridable.
STORE ?= /tmp/rsserve.db
ADDR  ?= 127.0.0.1:9035
serve:
	$(GO) run ./cmd/rsserve -store $(STORE) -addr $(ADDR) -metrics 127.0.0.1:9036

# Drive a verified mixed workload against a running rsserve.
load:
	$(GO) run ./cmd/rsload -addr $(ADDR) -workers 8 -duration 5s -pipeline 8 -verify

# End-to-end network smoke: boot rsserve on a temp store, run rsload with
# verification, SIGTERM-drain, and scrub the store file. CI runs this.
serve-smoke:
	./scripts/serve_smoke.sh

# Kill-and-recover chaos: SIGKILL/restart a real rsserve 10 times under
# verified resilient load through a fault-injecting proxy. Zero lost or
# duplicated writes, clean drain, scrub-clean store — or it exits nonzero.
# All four chaos targets run scripts/chaos.sh (one harness, cmd/rschaos);
# they differ only in the flags they pass.
chaos:
	./scripts/chaos.sh

# Replicated serving smoke: primary + two log-shipping replicas under
# verified load with replica read fan-out, then SIGKILL the primary,
# SIGUSR1-promote a replica, and re-verify against the new timeline.
# CI runs this too.
repl-smoke:
	./scripts/repl_smoke.sh

# Replicated kill-and-recover chaos: every cycle kills a replica,
# degrades the replication link, and SIGKILLs the primary followed by a
# promotion — ≥5 promotions total under verified resilient load. Zero
# lost or duplicated acked writes, term == promotions, converged
# replicas, scrub-clean stores — or it exits nonzero.
chaos-repl:
	./scripts/chaos.sh -replicas 2 -cycles 5

# Sharded serving smoke: three durable shards behind rsrouter on a static
# x-range shard map, verified rsload -cluster through the router, clean
# fleet drain, per-shard scrub, and sum-of-shards == router total.
# CI runs this too.
shard-smoke:
	./scripts/shard_smoke.sh

# Sharded kill-and-recover chaos: SIGKILL/restart a rotating shard 6
# times under verified load through a real rsrouter. Zero lost or
# duplicated acked writes, clean drains, leak-free stores, exact fleet
# accounting — or it exits nonzero.
chaos-shard:
	./scripts/chaos.sh -shards 3 -cycles 6

# Write-optimized serving smoke: boot rsserve -write-buffer on a temp
# store, run a verified write-heavy zipfian burst, SIGKILL mid-burst,
# reopen (journal replay), re-verify under load, drain, and scrub.
# CI runs this too.
writeopt-smoke:
	./scripts/writeopt_smoke.sh

# Buffered kill-and-recover chaos: SIGKILL/restart an rsserve running
# -write-buffer 10 times under verified resilient load. Every
# acknowledged buffered write must survive the kill via journal replay —
# zero lost or duplicated acked writes, clean drain, empty journal,
# scrub-clean store.
chaos-writeopt:
	./scripts/chaos.sh -write-buffer

# Operation-level + per-experiment benchmarks (quick instances).
bench:
	$(GO) test -bench=. -benchmem .

# The write path's two micro-benchmarks: the rebuild of the root's Θ(B²)
# structure (8 344 points, B = 256) and one durable update on the stack
# rsserve assembles (ns, allocs and logical I/Os per update). Run them on
# the parent commit too before claiming anything; CI runs them once each
# so they cannot rot.
bench-write:
	$(GO) test -run '^$$' -bench 'BenchmarkOpSmallStructRebuild|BenchmarkOpEPSTUpdateDurable' -benchmem $(BENCHFLAGS) .

# Full-size experiment tables (the numbers recorded in EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/rsbench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/indexability
	$(GO) run ./examples/timeseries
	$(GO) run ./examples/intervals
	$(GO) run ./examples/spatial

clean:
	$(GO) clean ./...

# Alternating parent/change benchmark pairs + the claim rule (benchmark/
# README.md "Claiming a gain"): make perf-pairs PARENT=<ref> WORKLOAD=<name>
# [PAIRS=10] [SEED=1]. Run once per listed workload and once more with a
# second SEED; needs an otherwise idle machine.
perf-pairs:
	scripts/perf_pairs.sh $(PARENT) $(WORKLOAD) $(or $(PAIRS),10) $(or $(SEED),1)
