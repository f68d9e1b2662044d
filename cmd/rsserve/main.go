// Command rsserve serves a range-search index over TCP, speaking the
// length-prefixed binary protocol of internal/server. It is the
// paper-to-production end of the repo: the same EPST that the analysis
// bounds at O(log_B N + t) I/Os per query answers queries from sockets,
// with group-committed durable writes, snapshot-isolated reads, admission
// control, and a graceful SIGTERM drain that leaves the store scrub-clean.
//
// Store stacks:
//
//	-mem                volatile:  SnapStore(MemStore)
//	-store X            durable:   SnapStore(TxStore(FileStore)), WAL
//	                    group commits — one fsync per commit, which forces
//	                    the log only: committed pages sit in TxStore's own
//	                    fixed write-back cache until a checkpoint, once per
//	                    lap of the -wal ring — crash-recoverable (default)
//	-store X -durable=false -pool N
//	                    volatile cache: SnapStore(ShardedPool(FileStore))
//
// A file-backed store is created on first use and reopened afterwards; the
// structure's header id and the transactional anchor are remembered in a
// JSON manifest next to the store (X.manifest.json), so a restart needs no
// flags beyond -store. A corrupt, truncated, or incomplete manifest fails
// startup with a diagnostic instead of misopening the store. Reopening a
// durable store runs WAL crash recovery first, exactly like rsinspect
// recover — every committed record since the last checkpoint is replayed,
// at most one -wal region of redo — then (unless -boot-scrub=false)
// reclaims the pages a crash stranded (frees held for the next checkpoint,
// copy-on-write in flight), so a SIGKILL/restart cycle converges back to a
// leak-free store.
//
// Write-optimized mode (-write-buffer) puts the dynamic-indexability
// buffered-update decorator (internal/wbuf) between the server and the
// engine: inserts and deletes stage in an in-memory delta buffer —
// journaled to a checksummed sidecar next to the store (X.wbuf), so an
// acknowledged write survives SIGKILL — and bulk-flush through the
// group-commit engine when the buffer crosses -write-buffer-ops entries
// or its oldest entry exceeds -write-buffer-age. Queries merge buffered
// deltas with base results, so reads are exact at all times. A journal
// left behind by a crashed (or de-flagged) buffered run is replayed on
// the next boot regardless of flags. Incompatible with replication:
// buffered writes are not in the shipped WAL.
//
// On SIGTERM/SIGINT the server drains: the listener closes, in-flight
// requests finish and flush, the write buffer (if any) folds into the
// base and truncates its journal, the last epoch commits, the WAL
// checkpoints, and the process exits 0 only if the store is verifiably
// scrub-clean (no leaked pages) and synced. `rsinspect scrub -dry` on the store afterwards must
// find nothing — the CI smoke job asserts exactly that.
//
// Usage:
//
//	rsserve -addr :9035 -mem
//	rsserve -addr :9035 -store points.db
//	rsserve -addr :9035 -store points.db -metrics 127.0.0.1:6060
//	rsserve -addr :9035 -store points.db -write-buffer -write-buffer-ops 4096
//	rsserve -addr :9035 -store points.db -trace-sample 0.01 -slowlog 50ms -spans spans.jsonl
//
// Request tracing: -trace-sample traces every Nth request end to end
// (admission, queue, leadership, execute, WAL append, sync, commit,
// reply flush, plus exact per-request block I/O); -slowlog logs any
// request slower than the threshold with its full span and its
// Theorem 6/7 I/O allowance; sampled spans are retained for the
// /spans endpoint and optionally spooled to a JSONL file `rsinspect
// spans` can replay. The /metrics endpoint on -metrics serves the
// whole expvar surface in the Prometheus text exposition format.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rangesearch/internal/core"
	"rangesearch/internal/eio"
	"rangesearch/internal/epst"
	"rangesearch/internal/obs"
	"rangesearch/internal/repl"
	"rangesearch/internal/server"
	"rangesearch/internal/wbuf"
)

// manifest remembers, next to a file-backed store, everything needed to
// reopen it: the page ids that anchor the structure and the transactional
// layer, and the geometry the store was created with.
type manifest struct {
	PageSize int        `json:"page_size"`
	Durable  bool       `json:"durable"`
	WALPages int        `json:"wal_pages,omitempty"`
	Hdr      eio.PageID `json:"hdr"`
	Anchor   eio.PageID `json:"anchor,omitempty"`
	// Term is the replication fencing term: the monotonic counter that
	// orders primary lineages. It is persisted BEFORE the store accepts
	// any write under it, so a resurrected process knows which lineage
	// its data belongs to.
	Term uint64 `json:"term,omitempty"`
	// Role is what the store last ran as: "" or "primary", "replica", or
	// "fenced" (an ex-primary that learned of a newer term and must not
	// accept writes until re-replicated or explicitly forced).
	Role string `json:"role,omitempty"`
	// WriteBuffer records that the store last ran in write-optimized
	// mode, so tooling (and the next boot) knows a sidecar write-buffer
	// journal may hold acknowledged-but-unflushed updates. The journal is
	// replayed on reopen even if -write-buffer is absent — acked writes
	// must never depend on the operator remembering a flag.
	WriteBuffer bool `json:"write_buffer,omitempty"`
	// WriteBufferOps is the flush threshold the buffer last ran with.
	WriteBufferOps int `json:"write_buffer_ops,omitempty"`
}

func manifestPath(storePath string) string { return storePath + ".manifest.json" }

// wbufJournalPath is the sidecar write-buffer journal, next to the store
// like the manifest is.
func wbufJournalPath(storePath string) string { return storePath + ".wbuf" }

func fileNonEmpty(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.Size() > 0
}

// manifestBufOps is what the manifest records as the buffer threshold:
// the configured value when buffering, zero when not.
func manifestBufOps(on bool, ops int) int {
	if on {
		return ops
	}
	return 0
}

// validate rejects manifests that parse but cannot describe a real store
// — a truncated or hand-edited file must fail here with a diagnostic, not
// downstream as a zero-value misopen of page 0.
func (m *manifest) validate(path string) error {
	switch {
	case m.PageSize <= 0:
		return fmt.Errorf("manifest %s: page_size %d is not positive", path, m.PageSize)
	case m.Hdr == eio.NilPage:
		return fmt.Errorf("manifest %s: hdr is missing or nil — no structure root to open", path)
	case m.Durable && m.Anchor == eio.NilPage:
		return fmt.Errorf("manifest %s: durable store without an anchor — cannot run WAL recovery", path)
	case m.WALPages < 0:
		return fmt.Errorf("manifest %s: negative wal_pages %d", path, m.WALPages)
	case m.WriteBufferOps < 0:
		return fmt.Errorf("manifest %s: negative write_buffer_ops %d", path, m.WriteBufferOps)
	}
	switch m.Role {
	case "", "primary", "replica", "fenced":
	default:
		return fmt.Errorf("manifest %s: unknown role %q", path, m.Role)
	}
	return nil
}

func readManifest(storePath string) (*manifest, error) {
	raw, err := os.ReadFile(manifestPath(storePath))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("manifest %s: not valid JSON (corrupt or truncated?): %w", manifestPath(storePath), err)
	}
	if err := m.validate(manifestPath(storePath)); err != nil {
		return nil, err
	}
	return &m, nil
}

func writeManifest(storePath string, m *manifest) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(manifestPath(storePath), append(raw, '\n'), 0o644)
}

// stack is the assembled storage and index pyramid rsserve serves from.
type stack struct {
	conc *core.Concurrent
	idx  *core.ThreeSided
	snap *eio.SnapStore
	tx   *eio.TxStore // nil on non-durable stacks
	m    *manifest
}

// buildMem assembles the volatile stack.
func buildMem(pageSize int) (*stack, error) {
	snap := eio.NewSnapStore(eio.NewMemStore(pageSize), 0)
	tracer := eio.NewTraceStore(snap)
	idx, err := core.NewThreeSided(tracer, epst.Options{})
	if err != nil {
		return nil, err
	}
	return finish(snap, tracer, idx, nil, &manifest{PageSize: pageSize, Hdr: idx.HeaderID()})
}

// bootScrub reclaims pages a SIGKILL stranded: SnapStore defers frees to
// the next epoch commit and TxStore holds them to the next checkpoint, so
// a crash leaks (never corrupts) the pages freed since the last one. After WAL recovery the tree is
// consistent, so anything outside its exact reachability set (plus the
// transactional metadata) is garbage — free it before serving resumes.
func bootScrub(tx *eio.TxStore, hdr eio.PageID) (*eio.ScrubReport, error) {
	tmp, err := core.OpenThreeSided(tx, hdr)
	if err != nil {
		return nil, fmt.Errorf("boot scrub: open tree: %w", err)
	}
	reachable, err := tmp.Tree().AppendAllPages(nil)
	if err != nil {
		return nil, fmt.Errorf("boot scrub: reachability walk: %w", err)
	}
	meta, err := tx.MetaPages()
	if err != nil {
		return nil, fmt.Errorf("boot scrub: tx meta pages: %w", err)
	}
	rep, err := eio.Scrub(tx, append(reachable, meta...))
	if err != nil {
		return nil, fmt.Errorf("boot scrub: %w", err)
	}
	if len(rep.Leaked) > 0 {
		if err := tx.Sync(); err != nil {
			return rep, fmt.Errorf("boot scrub: sync: %w", err)
		}
	}
	return rep, nil
}

// buildFile assembles (creating or reopening) a file-backed stack.
func buildFile(path string, pageSize int, durable bool, walPages, poolCap int, scrubOnBoot bool) (*stack, error) {
	_, statErr := os.Stat(path)
	fresh := os.IsNotExist(statErr)

	if fresh {
		fs, err := eio.CreateFileStore(path, pageSize)
		if err != nil {
			return nil, err
		}
		m := &manifest{PageSize: pageSize, Durable: durable}
		var base eio.Store = fs
		var tx *eio.TxStore
		if durable {
			tx, err = eio.NewTxStore(fs, eio.TxOptions{WALPages: walPages})
			if err != nil {
				fs.Close()
				return nil, err
			}
			m.WALPages = walPages
			m.Anchor = tx.Anchor()
			base = tx
		} else if poolCap > 0 {
			base = eio.NewShardedPool(fs, poolCap, eio.DefaultPoolShards)
		}
		snap := eio.NewSnapStore(base, 0)
		tracer := eio.NewTraceStore(snap)
		idx, err := core.NewThreeSided(tracer, epst.Options{})
		if err != nil {
			snap.Close()
			return nil, err
		}
		m.Hdr = idx.HeaderID()
		if err := writeManifest(path, m); err != nil {
			snap.Close()
			return nil, err
		}
		return finish(snap, tracer, idx, tx, m)
	}

	m, err := readManifest(path)
	if err != nil {
		return nil, fmt.Errorf("store %s exists but its manifest is unreadable: %w", path, err)
	}
	fs, err := eio.OpenFileStore(path)
	if err != nil {
		return nil, err
	}
	var base eio.Store = fs
	var tx *eio.TxStore
	if m.Durable {
		tx, err = eio.OpenTxStore(fs, m.Anchor)
		if err != nil {
			fs.Close()
			return nil, fmt.Errorf("WAL recovery: %w", err)
		}
		if ri := tx.Recovery(); ri.Dirty() {
			fmt.Printf("rsserve: WAL recovery: %s\n", ri)
		}
		if scrubOnBoot {
			rep, err := bootScrub(tx, m.Hdr)
			if err != nil {
				tx.Close()
				return nil, err
			}
			if len(rep.Leaked) > 0 {
				fmt.Printf("rsserve: boot scrub: reclaimed %d pages a crash stranded\n", len(rep.Leaked))
			}
		}
		base = tx
	} else if poolCap > 0 {
		base = eio.NewShardedPool(fs, poolCap, eio.DefaultPoolShards)
	}
	snap := eio.NewSnapStore(base, 0)
	tracer := eio.NewTraceStore(snap)
	idx, err := core.OpenThreeSided(tracer, m.Hdr)
	if err != nil {
		snap.Close()
		return nil, err
	}
	return finish(snap, tracer, idx, tx, m)
}

// finish publishes the base epoch and wraps the index in the serving
// layer (a Durable writer when the stack has a WAL). The writer index
// sits on tracer (a TraceStore over snap) so the group-commit leader
// can attribute the exact block I/Os of each traced request; the
// tracer's sink stays nil for untraced work, which costs one atomic
// load per page operation.
func finish(snap *eio.SnapStore, tracer *eio.TraceStore, idx *core.ThreeSided, tx *eio.TxStore, m *manifest) (*stack, error) {
	hdr := idx.HeaderID()
	if _, err := snap.Commit(); err != nil {
		snap.Close()
		return nil, err
	}
	var writer core.Index = idx
	if tx != nil {
		writer = core.NewDurable(idx, tx)
	}
	conc, err := core.NewConcurrent(writer, snap,
		func(s eio.Store) (core.Index, error) { return core.OpenThreeSided(s, hdr) },
		core.ConcurrentOptions{Tracer: tracer})
	if err != nil {
		snap.Close()
		return nil, err
	}
	return &stack{conc: conc, idx: idx, snap: snap, tx: tx, m: m}, nil
}

// publishTxCache exports the counters of a durable stack's page cache
// (hits, misses, evictions, write-backs, dirty frames) as
// "rangesearch.pool.tx"; a promotion calls it again for the new stack.
func publishTxCache(tx *eio.TxStore) {
	if tx != nil && tx.Cache() != nil {
		obs.PublishPool("tx", tx.Cache())
	}
}

// drainClean runs the shutdown storage protocol: unpin the serving view,
// commit the final epoch (handing deferred frees down), verify page-exact
// reachability, checkpoint and sync (releasing the held frees), close. It
// returns the number of leaked pages.
func (s *stack) drainClean() (int, error) {
	s.conc.Close()
	if _, err := s.snap.Commit(); err != nil {
		return 0, fmt.Errorf("final commit: %w", err)
	}
	reachable, err := s.idx.Tree().AppendAllPages(nil)
	if err != nil {
		return 0, fmt.Errorf("reachability walk: %w", err)
	}
	if s.tx != nil {
		meta, err := s.tx.MetaPages()
		if err != nil {
			return 0, fmt.Errorf("tx meta pages: %w", err)
		}
		reachable = append(reachable, meta...)
	}
	rep, err := eio.FindLeaks(s.snap, reachable)
	if err != nil {
		return 0, fmt.Errorf("leak check: %w", err)
	}
	if s.tx != nil {
		if err := s.tx.Sync(); err != nil {
			return len(rep.Leaked), fmt.Errorf("sync: %w", err)
		}
	}
	if err := s.snap.Close(); err != nil {
		return len(rep.Leaked), fmt.Errorf("close: %w", err)
	}
	return len(rep.Leaked), nil
}

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:9035", "TCP listen address")
		store   = flag.String("store", "", "path to a file-backed store (created on first use)")
		mem     = flag.Bool("mem", false, "serve from an in-memory store instead of a file")
		page    = flag.Int("page", 4096, "page size in bytes when creating a store")
		durable = flag.Bool("durable", true, "file stores: WAL-backed atomic commits (crash-recoverable)")
		wal     = flag.Int("wal", eio.DefaultWALPages, "WAL capacity in pages for durable stores")
		poolCap = flag.Int("pool", 0, "non-durable file stores: buffer-pool capacity in pages (0 = none); a durable store has TxStore's built-in page cache instead")

		maxInFlight = flag.Int("max-inflight", 64, "admission gate: max RPCs in flight before BUSY")
		maxBatch    = flag.Int("max-batch", server.DefaultMaxBatchOps, "max operations in one BATCH request")
		idleT       = flag.Duration("idle-timeout", 2*time.Minute, "close connections idle longer than this")
		writeT      = flag.Duration("write-timeout", 30*time.Second, "per-response write deadline")
		reqT        = flag.Duration("request-timeout", 10*time.Second, "per-request execution deadline; expired requests answer TIMEOUT (0 = off)")
		retryAfter  = flag.Duration("retry-after", 2*time.Millisecond, "backoff hint attached to BUSY responses (<0 = omit)")
		idemClients = flag.Int("idem-clients", 256, "idempotency dedup: max client sessions tracked (<0 = off)")
		idemWindow  = flag.Int("idem-window", 512, "idempotency dedup: completed writes remembered per session")
		scrubBoot   = flag.Bool("boot-scrub", true, "durable stores: reclaim crash-leaked pages after WAL recovery")
		metricsAddr = flag.String("metrics", "", "serve expvar+pprof+/metrics on this address (empty = off)")

		traceSample = flag.Float64("trace-sample", 0, "trace this fraction of requests end to end (0..1; 0 = only client-stamped TRACE envelopes)")
		slowLog     = flag.Duration("slowlog", 0, "log requests slower than this with their full span (0 = off; arming it traces every request)")
		spansPath   = flag.String("spans", "", "spool sampled spans to this JSONL file")
		spanRing    = flag.Int("span-ring", 256, "sampled spans retained for the /spans endpoint")

		writeBuffer    = flag.Bool("write-buffer", false, "write-optimized mode: buffer updates in memory (journaled next to the store), merge-on-read queries, bulk flushes")
		writeBufferOps = flag.Int("write-buffer-ops", wbuf.DefaultMaxOps, "write buffer flush threshold in buffered operations")
		writeBufferAge = flag.Duration("write-buffer-age", wbuf.DefaultMaxAge, "flush the write buffer when its oldest entry exceeds this age (0 = size-only)")

		replListen    = flag.String("repl-listen", "", "serve the replication protocol (log shipping, PROMOTE RPC) on this address")
		replicateFrom = flag.String("replicate-from", "", "run as a read replica of the primary at this replication address")
		replSync      = flag.Int("repl-sync", 0, "semi-sync: each write's OK waits until this many replicas are durable (0 = async)")
		replSyncT     = flag.Duration("repl-sync-timeout", 5*time.Second, "semi-sync gate deadline; writes missing it answer TIMEOUT")
		replBootT     = flag.Duration("repl-boot-timeout", 2*time.Minute, "replicas: give up on the initial sync after this long")
		forcePrimary  = flag.Bool("force-primary", false, "start a store last run as replica/fenced as a primary, bumping its term (manual failover of last resort)")
	)
	flag.Parse()

	if (*store == "") == !*mem {
		fmt.Fprintln(os.Stderr, "rsserve: exactly one of -store or -mem is required")
		os.Exit(2)
	}
	replicated := *replListen != "" || *replicateFrom != ""
	if replicated && (*mem || !*durable || *store == "") {
		fmt.Fprintln(os.Stderr, "rsserve: replication requires a durable file store (-store, -durable)")
		os.Exit(2)
	}
	if *writeBuffer && replicated {
		// Buffered writes are durable in the sidecar journal, not the base
		// WAL, so log shipping would silently omit them. Refuse rather than
		// replicate a lie.
		fmt.Fprintln(os.Stderr, "rsserve: -write-buffer is incompatible with replication (buffered writes are not in the shipped WAL)")
		os.Exit(2)
	}
	if *replicateFrom != "" && *store != "" {
		// The same hazard in journal form: replaying a leftover buffer
		// journal into a replica would apply writes outside the shipped
		// WAL and silently diverge it from the primary.
		if jpath := wbufJournalPath(*store); fileNonEmpty(jpath) {
			fmt.Fprintf(os.Stderr, "rsserve: store has a leftover write-buffer journal %s; a replica must not apply writes outside the shipped WAL — boot once without -replicate-from to fold it in, or remove it if the primary already holds those writes\n", jpath)
			os.Exit(2)
		}
	}
	if *writeBufferOps < 1 {
		fmt.Fprintln(os.Stderr, "rsserve: -write-buffer-ops must be at least 1")
		os.Exit(2)
	}
	logf := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "rsserve: "+format+"\n", args...)
	}

	if *forcePrimary && *store != "" {
		if m, err := readManifest(*store); err == nil && (m.Role == "replica" || m.Role == "fenced") {
			m.Term++
			m.Role = "primary"
			if err := writeManifest(*store, m); err != nil {
				fmt.Fprintf(os.Stderr, "rsserve: -force-primary: %v\n", err)
				os.Exit(1)
			}
			logf("-force-primary: store takes over as primary at term %d", m.Term)
		}
	}

	var (
		st      *stack
		rn      *replicaNode
		node    *repl.Node
		shipper *repl.Shipper
		err     error
	)
	switch {
	case *replicateFrom != "":
		rn, err = startReplica(*store, *replicateFrom, *scrubBoot, *replSync, *replSyncT, *replBootT, logf)
		if err == nil {
			node = rn.node
		}
	case *mem:
		st, err = buildMem(*page)
	default:
		st, err = buildFile(*store, *page, *durable, *wal, *poolCap, *scrubBoot)
		if err == nil && st.m.Role == "replica" {
			_, _ = st.drainClean()
			err = fmt.Errorf("store %s last ran as a replica; start it with -replicate-from, or -force-primary to take over", *store)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rsserve: %v\n", err)
		os.Exit(1)
	}

	// Write-optimized mode: wrap the engine in the buffered-update
	// decorator. Even without -write-buffer, a sidecar journal left behind
	// by a buffered run (crash, or the operator dropping the flag) is
	// replayed and folded into the base first — acknowledged writes must
	// never depend on the next boot remembering a flag.
	var buf *wbuf.Buffered
	if st != nil {
		switch {
		case *writeBuffer && st.tx != nil:
			// One durability barrier before the first buffered ack: with
			// every update absorbed by the buffer, the base may not commit
			// (and persist its allocation superblock) until the first
			// flush, and a SIGKILL before then would leave a store whose
			// creation epoch never reached disk — unopenable, journal or
			// no journal.
			jpath := wbufJournalPath(*store)
			if err = st.tx.Sync(); err == nil {
				buf, err = wbuf.NewBuffered(st.conc, wbuf.Options{
					MaxOps:  *writeBufferOps,
					MaxAge:  *writeBufferAge,
					Journal: jpath,
				})
			}
			if err == nil {
				logf("write buffer on: flush at %d ops / %s age, journal %s", *writeBufferOps, *writeBufferAge, jpath)
				if r := buf.WriteBufferStats().Replayed; r > 0 {
					logf("write buffer: replayed %d journaled ops into the store", r)
				}
			}
		case *writeBuffer:
			// -mem or a non-durable file store: a journal could not promise
			// more than the base itself does, so the buffer runs volatile.
			buf, err = wbuf.NewBuffered(st.conc, wbuf.Options{MaxOps: *writeBufferOps, MaxAge: *writeBufferAge})
			if err == nil {
				logf("write buffer on (volatile): flush at %d ops / %s age", *writeBufferOps, *writeBufferAge)
			}
		case *store != "":
			if jpath := wbufJournalPath(*store); fileNonEmpty(jpath) {
				var tmp *wbuf.Buffered
				if tmp, err = wbuf.NewBuffered(st.conc, wbuf.Options{Journal: jpath}); err == nil {
					err = tmp.Close() // replay happened in NewBuffered; Close flushes and truncates
				}
				if err == nil {
					logf("replayed leftover write-buffer journal %s into the store", jpath)
				}
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rsserve: write buffer: %v\n", err)
			os.Exit(1)
		}
		if *store != "" && (st.m.WriteBuffer != (buf != nil) || st.m.WriteBufferOps != manifestBufOps(buf != nil, *writeBufferOps)) {
			st.m.WriteBuffer = buf != nil
			st.m.WriteBufferOps = manifestBufOps(buf != nil, *writeBufferOps)
			if err := writeManifest(*store, st.m); err != nil {
				fmt.Fprintf(os.Stderr, "rsserve: manifest: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if *replListen != "" {
		if rn != nil {
			// A replica's repl port exists for the PROMOTE RPC now and
			// for shipping to its own replicas after promotion.
			mSnap := rn.manifestSnapshot()
			rn.shipper = repl.NewShipper(repl.ShipperConfig{
				Term:       mSnap.Term,
				Primary:    false,
				PageSize:   mSnap.PageSize,
				Dir:        uint64(mSnap.Anchor),
				Hdr:        uint64(mSnap.Hdr),
				DurableLSN: rn.appliedLSN,
				Logf:       logf,
			})
			rn.shipper.SetOnPromote(rn.promote)
			replLn, lerr := net.Listen("tcp", *replListen)
			if lerr != nil {
				fmt.Fprintf(os.Stderr, "rsserve: repl listen: %v\n", lerr)
				os.Exit(1)
			}
			shipper = rn.shipper
			go shipper.Serve(replLn)
			logf("replication port on %s (replica of %s, term %d)", replLn.Addr(), *replicateFrom, mSnap.Term)
		} else {
			node, shipper, err = startPrimaryRepl(st, *store, *replListen, *replSync, *replSyncT, logf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rsserve: %v\n", err)
				os.Exit(1)
			}
		}
	}

	metrics := &server.Metrics{}
	server.PublishMetrics("main", metrics)
	if st != nil {
		publishTxCache(st.tx)
	}
	var wbStats func() obs.WriteBufferStats
	if buf != nil {
		obs.PublishWriteBuffer("serve", buf)
		wbStats = buf.WriteBufferStats
	}

	// Sampled spans always land in a ring (drained by the /spans
	// endpoint and dumped on drain); -spans additionally spools them to
	// a JSONL file rsinspect can replay.
	ring := obs.NewSpanRing(*spanRing)
	obs.SetSpanRing(ring)
	spans := obs.MultiSpanRecorder{ring}
	var spanFile *obs.SpanWriter
	if *spansPath != "" {
		var err error
		spanFile, err = obs.CreateSpanFile(*spansPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rsserve: spans: %v\n", err)
			os.Exit(1)
		}
		spans = append(spans, spanFile)
	}

	if *metricsAddr != "" {
		ms, err := obs.ServeMetrics(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rsserve: metrics: %v\n", err)
			os.Exit(1)
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
	switch {
	case rn != nil:
		engine = node
		replInfoFn = rn.replInfo
	case node != nil:
		engine = node
		n, sh, tx := node, shipper, st.tx
		replInfoFn = func() server.ReplInfo {
			role, term := n.Role()
			info := server.ReplInfo{Role: role, Term: term, AppliedLSN: tx.AppliedLSN()}
			if sh != nil {
				info.Replicas = len(sh.Replicas())
			}
			return info
		}
	case buf != nil:
		engine = buf
	default:
		engine = st.conc
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
		Logf: func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "rsserve: "+format+"\n", args...)
		},
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rsserve: %v\n", err)
		os.Exit(1)
	}
	if rn != nil {
		mSnap := rn.manifestSnapshot()
		fmt.Printf("rsserve: listening on %s  hdr=%d anchor=%d durable=%v (replica of %s)\n",
			ln.Addr(), mSnap.Hdr, mSnap.Anchor, mSnap.Durable, *replicateFrom)
	} else {
		fmt.Printf("rsserve: listening on %s  hdr=%d anchor=%d durable=%v\n",
			ln.Addr(), st.m.Hdr, st.m.Anchor, st.m.Durable)
	}

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
			fmt.Fprintf(os.Stderr, "rsserve: serve: %v\n", err)
			os.Exit(1)
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
		if buf != nil {
			// Fold every buffered write into the base and truncate the
			// journal, so the drained store is complete and scrub-clean on
			// its own — the journal holds nothing after a clean exit.
			if cerr := buf.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "rsserve: write buffer drain: %v\n", cerr)
				os.Exit(1)
			}
			if d := buf.Depth(); d != 0 {
				fmt.Fprintf(os.Stderr, "rsserve: write buffer drain left %d buffered ops\n", d)
				os.Exit(3)
			}
		}
		leaked, err = st.drainClean()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rsserve: drain: %v\n", err)
		os.Exit(1)
	}
	if leaked != 0 {
		fmt.Fprintf(os.Stderr, "rsserve: drain left %d leaked pages\n", leaked)
		os.Exit(3)
	}
	if spanFile != nil {
		if err := spanFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "rsserve: spans: %v\n", err)
		}
	}
	snap := metrics.Snapshot()
	fmt.Printf("rsserve: drained clean: %d conns accepted, busy=%d proto_errors=%d panics=%d spans=%d\n",
		snap.Accepted, snap.Busy, snap.ProtoErrors, snap.Panics, snap.Spans)
}
