// Command rsserve serves a range-search index over TCP, speaking the
// length-prefixed binary protocol of internal/server: the EPST of the
// paper's Theorem 6 behind group-committed writes, snapshot-isolated reads,
// admission control, and a SIGTERM/SIGINT drain that exits 0 only when the
// store is synced and scrub-clean. SIGUSR1 promotes a replica.
//
// The store flags (-store or -mem, -page, -durable, -wal, -pool,
// -boot-scrub, -write-buffer, -write-buffer-ops, -write-buffer-age) and the
// role the repl flags imply (-repl-listen, -replicate-from, -force-primary)
// form an internal/node Config: Config.Validate's mode table decides which
// combinations boot, and node.Build creates or reopens the stack (WAL
// recovery, boot scrub, write-buffer journal replay). DESIGN.md "Stacks and
// the mode table" lists every mode with its layers. This command wires
// replication, the server and the signals around that stack.
//
// Usage:
//
//	rsserve -addr :9035 -mem
//	rsserve -addr :9035 -store points.db
//	rsserve -addr :9035 -store points.db -metrics 127.0.0.1:6060
//	rsserve -addr :9035 -store points.db -write-buffer -write-buffer-ops 4096
//	rsserve -addr :9035 -store points.db -trace-sample 0.01 -slowlog 50ms -spans spans.jsonl
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rangesearch/internal/core"
	"rangesearch/internal/node"
	"rangesearch/internal/obs"
	"rangesearch/internal/repl"
	"rangesearch/internal/server"
	"rangesearch/internal/wbuf"
)

// publishStack exports a stack's own telemetry: a durable stack's page
// cache (hits, misses, evictions, write-backs, dirty frames) as
// "rangesearch.pool.tx", a -pool stack's cache the same way as
// "rangesearch.pool.file", and the write buffer's WriteBufferStats as
// "rangesearch.wbuf.serve". A promotion calls it again for the new stack.
func publishStack(st *node.Stack) {
	if st.Tx != nil && st.Tx.Cache() != nil {
		obs.PublishPool("tx", st.Tx.Cache())
	}
	if st.Pool != nil {
		obs.PublishPool("file", st.Pool)
	}
	if st.Buf != nil {
		obs.Publish("rangesearch.wbuf.serve", func() interface{} { return st.Buf.WriteBufferStats() })
	}
}

// logBoot reports what opening a stack did; what stands before "WAL
// recovery" names whose recovery it was.
func logBoot(b node.Boot, what string, logf func(string, ...any)) {
	if b.ForcedTerm > 0 {
		logf("-force-primary: store takes over as primary at term %d", b.ForcedTerm)
	}
	if b.Recovery.Dirty() {
		fmt.Printf("rsserve: %sWAL recovery: %s\n", what, b.Recovery)
	}
	if b.Reclaimed > 0 {
		fmt.Printf("rsserve: boot scrub: reclaimed %d pages a crash stranded\n", b.Reclaimed)
	}
	if b.Orphan != "" {
		logf("replayed leftover write-buffer journal %s into the store", b.Orphan)
	}
}

func main() {
	// The store flags are node.Config's fields, one each.
	var cfg node.Config
	flag.StringVar(&cfg.Store, "store", "", "path to a file-backed store (created on first use)")
	flag.BoolVar(&cfg.Mem, "mem", false, "serve from an in-memory store instead of a file")
	flag.IntVar(&cfg.PageSize, "page", 4096, "page size in bytes when creating a store")
	flag.BoolVar(&cfg.Durable, "durable", true, "file stores: WAL-backed atomic commits (crash-recoverable)")
	flag.IntVar(&cfg.WALPages, "wal", node.DefaultWALPages, "WAL capacity in pages for durable stores")
	flag.IntVar(&cfg.PoolPages, "pool", 0, "-durable=false file stores: buffer-pool capacity in pages (0 = none); refused with -mem or a durable store, which has TxStore's built-in page cache")
	flag.BoolVar(&cfg.BootScrub, "boot-scrub", true, "durable stores: reclaim crash-leaked pages after WAL recovery")
	flag.BoolVar(&cfg.WriteBuffer, "write-buffer", false, "write-optimized mode: buffer updates in memory (journaled next to the store), merge-on-read queries, bulk flushes")
	flag.IntVar(&cfg.WriteBufferOps, "write-buffer-ops", wbuf.DefaultMaxOps, "write buffer flush threshold in buffered operations")
	flag.DurationVar(&cfg.WriteBufferAge, "write-buffer-age", wbuf.DefaultMaxAge, "flush the write buffer when its oldest entry exceeds this age (0 = size-only)")
	flag.BoolVar(&cfg.ForcePrimary, "force-primary", false, "start a store last run as replica/fenced as a primary, bumping its term (manual failover of last resort)")
	var (
		addr        = flag.String("addr", "127.0.0.1:9035", "TCP listen address")
		maxInFlight = flag.Int("max-inflight", 64, "admission gate: max RPCs in flight before BUSY")
		maxBatch    = flag.Int("max-batch", server.DefaultMaxBatchOps, "max operations in one BATCH request")
		idleT       = flag.Duration("idle-timeout", 2*time.Minute, "close connections idle longer than this")
		writeT      = flag.Duration("write-timeout", 30*time.Second, "per-response write deadline")
		reqT        = flag.Duration("request-timeout", 10*time.Second, "per-request execution deadline; expired requests answer TIMEOUT (0 = off)")
		retryAfter  = flag.Duration("retry-after", 2*time.Millisecond, "backoff hint attached to BUSY responses (<0 = omit)")
		idemClients = flag.Int("idem-clients", 256, "idempotency dedup: max client sessions tracked (<0 = off)")
		idemWindow  = flag.Int("idem-window", 512, "idempotency dedup: completed writes remembered per session")
		metricsAddr = flag.String("metrics", "", "serve expvar+pprof+/metrics on this address (empty = off)")

		traceSample = flag.Float64("trace-sample", 0, "trace this fraction of requests end to end (0..1; 0 = only client-stamped TRACE envelopes)")
		slowLog     = flag.Duration("slowlog", 0, "log requests slower than this with their full span (0 = off; arming it traces every request)")
		spansPath   = flag.String("spans", "", "spool sampled spans to this JSONL file")
		spanRing    = flag.Int("span-ring", 256, "sampled spans retained for the /spans endpoint")

		replListen    = flag.String("repl-listen", "", "serve the replication protocol (log shipping, PROMOTE RPC) on this address")
		replicateFrom = flag.String("replicate-from", "", "run as a read replica of the primary at this replication address")
		replSync      = flag.Int("repl-sync", 0, "semi-sync: each write's OK waits until this many replicas are durable (0 = async)")
		replSyncT     = flag.Duration("repl-sync-timeout", 5*time.Second, "semi-sync gate deadline; writes missing it answer TIMEOUT")
		replBootT     = flag.Duration("repl-boot-timeout", 2*time.Minute, "replicas: give up on the initial sync after this long")
	)
	flag.Parse()
	logf := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "rsserve: "+format+"\n", args...)
	}
	die := func(code int, format string, args ...interface{}) {
		logf(format, args...)
		os.Exit(code)
	}
	switch {
	case *replicateFrom != "":
		cfg.Role = node.Replica
	case *replListen != "":
		cfg.Role = node.Primary
	}

	var (
		st      *node.Stack
		rn      *replicaNode
		rnode   *repl.Node
		shipper *repl.Shipper
		err     error
	)
	if cfg.Role == node.Replica {
		if rn, err = startReplica(cfg, *replicateFrom, *replListen, *replSync, *replSyncT, *replBootT, logf); err == nil {
			rnode, shipper = rn.rnode, rn.shipper
		}
	} else if st, err = node.Build(cfg); err == nil {
		logBoot(st.Boot, "", logf)
		publishStack(st)
	}
	if err != nil {
		code, refusal := 1, (*node.Refusal)(nil)
		if errors.As(err, &refusal) {
			code = refusal.Code
		}
		die(code, "%v", err)
	}
	var wbStats func() obs.WriteBufferStats
	if st != nil && st.Buf != nil {
		wbStats = st.Buf.WriteBufferStats
		if st.Tx != nil {
			logf("write buffer on: flush at %d ops / %s age, journal %s", cfg.WriteBufferOps, cfg.WriteBufferAge, node.JournalPath(cfg.Store))
			if r := st.Buf.WriteBufferStats().Replayed; r > 0 {
				logf("write buffer: replayed %d journaled ops into the store", r)
			}
		} else {
			logf("write buffer on (volatile): flush at %d ops / %s age", cfg.WriteBufferOps, cfg.WriteBufferAge)
		}
	}

	if cfg.Role == node.Primary {
		if rnode, shipper, err = startPrimaryRepl(cfg, st, *replListen, *replSync, *replSyncT, logf); err != nil {
			die(1, "%v", err)
		}
	}

	metrics := &server.Metrics{}
	server.PublishMetrics("main", metrics)

	// Sampled spans always land in a ring (drained by the /spans
	// endpoint and dumped on drain); -spans additionally spools them to
	// a JSONL file rsinspect can replay.
	ring := obs.NewSpanRing(*spanRing)
	obs.SetSpanRing(ring)
	spans := obs.MultiSpanRecorder{ring}
	var spanFile *obs.SpanWriter
	if *spansPath != "" {
		spanFile, err = obs.CreateSpanFile(*spansPath)
		if err != nil {
			die(1, "spans: %v", err)
		}
		spans = append(spans, spanFile)
	}

	if *metricsAddr != "" {
		ms, err := obs.ServeMetrics(*metricsAddr)
		if err != nil {
			die(1, "metrics: %v", err)
		}
		defer ms.Close()
		fmt.Printf("rsserve: metrics on http://%s/debug/vars (Prometheus: /metrics, spans: /spans)\n", ms.Addr())
	}

	// The server fronts a core.Engine: the bare engine (or the write buffer
	// in front of it) on a standalone node, the role-aware repl.Node when
	// replication is on (so a follower's writes answer NOTPRIMARY and a
	// promotion swaps the engine without restarting the server).
	var engine core.Engine
	var replInfoFn func() server.ReplInfo
	if rnode != nil {
		engine = rnode
		replInfoFn = func() server.ReplInfo { return replInfo(rnode, rn.following(), shipper) }
	} else {
		engine = st.Engine()
	}

	srv := server.New(engine, server.Config{
		MaxInFlight:    *maxInFlight,
		MaxBatchOps:    *maxBatch,
		IdleTimeout:    *idleT,
		WriteTimeout:   *writeT,
		RequestTimeout: *reqT,
		RetryAfterHint: *retryAfter,
		Idem:           server.IdemConfig{MaxClients: *idemClients, Window: *idemWindow},
		Repl:           replInfoFn,
		Metrics:        metrics,
		WriteBuffer:    wbStats,
		TraceSample:    *traceSample,
		SlowLog:        *slowLog,
		Spans:          spans,
		Logf:           logf,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		die(1, "%v", err)
	}
	var m node.Manifest
	of := ""
	if rn != nil {
		m, of = rn.manifestSnapshot(), fmt.Sprintf(" (replica of %s)", *replicateFrom)
	} else {
		m = *st.M
	}
	fmt.Printf("rsserve: listening on %s  hdr=%d anchor=%d durable=%v%s\n", ln.Addr(), m.Hdr, m.Anchor, m.Durable, of)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT, syscall.SIGUSR1)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

wait:
	for {
		select {
		case sig := <-sigc:
			if sig == syscall.SIGUSR1 {
				// Promotion signal: meaningful on a replica, a logged no-op
				// elsewhere. Runs off the signal loop so a slow promotion
				// does not mask a later SIGTERM.
				if rn != nil {
					go func() {
						if term, lsn, perr := rn.promote(); perr != nil {
							logf("SIGUSR1 promote: %v", perr)
						} else {
							logf("SIGUSR1 promote: primary at term %d lsn %d", term, lsn)
						}
					}()
				} else {
					logf("SIGUSR1: not a replica; ignoring")
				}
				continue
			}
			fmt.Printf("rsserve: %v: draining\n", sig)
			break wait
		case err := <-serveDone:
			die(1, "serve: %v", err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "rsserve: shutdown: %v\n", err)
	}
	<-serveDone

	var leaked int
	if rn != nil {
		leaked, err = rn.drain()
	} else {
		if shipper != nil {
			shipper.Close()
		}
		leaked, err = st.Drain()
	}
	if err != nil {
		die(1, "drain: %v", err)
	}
	if leaked != 0 {
		die(3, "drain left %d leaked pages", leaked)
	}
	if spanFile != nil {
		if err := spanFile.Close(); err != nil {
			logf("spans: %v", err)
		}
	}
	snap := metrics.Snapshot()
	fmt.Printf("rsserve: drained clean: %d conns accepted, busy=%d proto_errors=%d panics=%d spans=%d\n",
		snap.Accepted, snap.Busy, snap.ProtoErrors, snap.Panics, snap.Spans)
}
