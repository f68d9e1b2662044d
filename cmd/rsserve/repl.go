package main

// Replication wiring: how one rsserve process becomes a shipping primary,
// a read replica, or a replica promoted to primary at runtime.
//
// Primary (-repl-listen): the durable stack is fronted by a repl.Node and
// a repl.Shipper taps the TxStore commit hook, so every group commit's
// redo record fans out to connected replicas; bootstrap snapshots are cut
// under the engine's write barrier (store quiescent, anchors exact). With
// -repl-sync N the engine's commit gate holds each write's OK until N
// replicas acked its LSN.
//
// Replica (-replicate-from): the process first syncs — resuming from its
// local store when the primary can replay the gap from its backlog, or
// receiving a full page-level clone otherwise — then serves reads from a
// fenced stack (writes answer NOTPRIMARY) while a background loop applies
// shipped records, publishing one epoch per record. Promotion (SIGUSR1 or
// the PROMOTE RPC on -repl-listen) drains the apply loop, persists a
// bumped term to the manifest BEFORE accepting any write, rebuilds a
// writable stack over the same file (reclaiming replica-leaked pages),
// and swaps it in under the node's exclusive lock.

import (
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rangesearch/internal/core"
	"rangesearch/internal/eio"
	"rangesearch/internal/repl"
	"rangesearch/internal/server"
)

// cutSnapshot clones every live page (data and tx meta alike) under the
// write barrier, which checkpoints first: the TxStore is quiescent there
// with nothing left to replay, so the file image and the anchors agree at
// exactly AppliedLSN.
func cutSnapshot(st *stack) func() (*repl.Snapshot, error) {
	return func() (*repl.Snapshot, error) {
		var snap *repl.Snapshot
		err := st.conc.Barrier(func() error {
			ids, err := st.tx.LivePageIDs()
			if err != nil {
				return err
			}
			ps := st.m.PageSize
			snap = &repl.Snapshot{LSN: st.tx.AppliedLSN()}
			for _, id := range ids {
				img := make([]byte, ps)
				if err := st.tx.Read(id, img); err != nil {
					return fmt.Errorf("snapshot read page %d: %w", id, err)
				}
				snap.Pages = append(snap.Pages, repl.SnapPage{ID: uint64(id), Image: img})
			}
			return nil
		})
		return snap, err
	}
}

// startPrimaryRepl fronts a durable stack with a Node and starts the
// shipper on lnAddr. syncN > 0 arms the semi-synchronous commit gate.
func startPrimaryRepl(st *stack, storePath, lnAddr string, syncN int, syncT time.Duration,
	logf func(string, ...any)) (*repl.Node, *repl.Shipper, error) {
	if st.tx == nil {
		return nil, nil, fmt.Errorf("replication requires a durable file store")
	}
	fenced := st.m.Role == "fenced"
	node := repl.NewNode(st.conc, true, st.m.Term, nil)
	if fenced {
		node.Fence(st.m.Term)
		logf("store was fenced at term %d: serving reads only (re-replicate or -force-primary to recover)", st.m.Term)
	}
	shipper := repl.NewShipper(repl.ShipperConfig{
		Term:        st.m.Term,
		Primary:     !fenced,
		PageSize:    st.m.PageSize,
		Dir:         uint64(st.m.Anchor),
		Hdr:         uint64(st.m.Hdr),
		DurableLSN:  st.tx.AppliedLSN,
		CutSnapshot: cutSnapshot(st),
		OnFence: func(term uint64) {
			node.Fence(term)
			st.m.Term = term
			st.m.Role = "fenced"
			if err := writeManifest(storePath, st.m); err != nil {
				logf("persist fence: %v", err)
			}
			logf("fenced by term %d: refusing writes from now on", term)
		},
		Logf: logf,
	})
	// An already-writable node answers PROMOTE with its current identity,
	// so failover tooling can treat the RPC as idempotent.
	shipper.SetOnPromote(func() (uint64, uint64, error) {
		if role, term := node.Role(); role == "primary" {
			return term, st.tx.AppliedLSN(), nil
		}
		return 0, 0, fmt.Errorf("node is fenced; restart with -replicate-from or -force-primary")
	})
	st.tx.SetCommitHook(shipper.Commit)
	if syncN > 0 {
		st.conc.SetCommitGate(func() error {
			return shipper.WaitAcked(st.tx.AppliedLSN(), syncN, syncT)
		})
	}
	ln, err := net.Listen("tcp", lnAddr)
	if err != nil {
		return nil, nil, fmt.Errorf("repl listen: %w", err)
	}
	go shipper.Serve(ln)
	logf("shipping replication on %s (term %d, sync=%d)", ln.Addr(), st.m.Term, syncN)
	return node, shipper, nil
}

// replicaNode is the runtime state of an rsserve process running as a
// read replica (and possibly later promoted).
type replicaNode struct {
	storePath string
	primary   string
	scrubBoot bool
	syncN     int
	syncT     time.Duration
	logf      func(string, ...any)

	node    *repl.Node
	shipper *repl.Shipper // non-nil when -repl-listen is set

	// txrA mirrors rn.txr for the apply loop, which must not take rn.mu
	// on its hot path (promote holds rn.mu while taking the node's write
	// lock — the reverse order of a barriered read).
	txrA     atomic.Pointer[eio.TxReplica]
	follower atomic.Pointer[repl.Follower]

	// pubLSN is the node's PUBLISHED position: the highest applied LSN
	// whose epoch readers can already see. It advances strictly after
	// snap.Commit (and, on a re-clone, after the engine swap), never
	// before — the read barrier must compare against it rather than the
	// applier's durable LSN, or a barriered query landing between apply
	// and publish would pass the staleness check yet read the previous
	// epoch, resurrecting writes the client saw acked.
	pubLSN atomic.Uint64

	mu       sync.Mutex
	m        *manifest
	fs       *eio.FileStore
	txr      *eio.TxReplica
	st       *stack // current serving stack (fenced until promoted)
	promoted bool
	stopping bool

	promDone chan struct{} // closed when a promotion attempt finishes
	promTerm uint64
	promLSN  uint64
	promErr  error

	loopDone chan struct{}
}

// buildFollowerStack assembles the read-only serving pyramid over an
// existing replica store: SnapStore for epoch isolation, TxReplica as
// the applier, a FencedIndex as the (never-used) writer.
func buildFollowerStack(fs *eio.FileStore, m *manifest) (*stack, *eio.TxReplica, error) {
	snap := eio.NewSnapStore(fs, 0)
	txr, err := eio.OpenTxReplica(fs, snap, m.Anchor)
	if err != nil {
		return nil, nil, fmt.Errorf("open replica applier: %w", err)
	}
	if ri := txr.Recovery(); ri.Dirty() {
		fmt.Printf("rsserve: replica WAL recovery: %s\n", ri)
	}
	tracer := eio.NewTraceStore(snap)
	idx, err := core.OpenThreeSided(tracer, m.Hdr)
	if err != nil {
		return nil, nil, fmt.Errorf("open replica tree: %w", err)
	}
	if _, err := snap.Commit(); err != nil {
		return nil, nil, err
	}
	hdr := m.Hdr
	conc, err := core.NewConcurrent(&repl.FencedIndex{Reads: idx}, snap,
		func(s eio.Store) (core.Index, error) { return core.OpenThreeSided(s, hdr) },
		core.ConcurrentOptions{Tracer: tracer})
	if err != nil {
		return nil, nil, err
	}
	return &stack{conc: conc, idx: idx, snap: snap, m: m}, txr, nil
}

// startReplica syncs with the primary (blocking, with retries until
// bootT expires), builds the fenced serving stack, and starts the
// background apply loop. The returned node is ready to serve reads.
func startReplica(storePath string, primaryAddr string, scrubBoot bool,
	syncN int, syncT, bootT time.Duration, logf func(string, ...any)) (*replicaNode, error) {
	rn := &replicaNode{
		storePath: storePath,
		primary:   primaryAddr,
		scrubBoot: scrubBoot,
		syncN:     syncN,
		syncT:     syncT,
		logf:      logf,
		loopDone:  make(chan struct{}),
	}

	// Reopen local state when it exists; its position makes resume cheap.
	if _, err := os.Stat(storePath); err == nil {
		m, err := readManifest(storePath)
		if err != nil {
			return nil, fmt.Errorf("store %s exists but its manifest is unreadable: %w", storePath, err)
		}
		if !m.Durable {
			return nil, fmt.Errorf("store %s is not durable; replication needs the WAL layout", storePath)
		}
		fs, err := eio.OpenFileStore(storePath)
		if err != nil {
			return nil, err
		}
		st, txr, err := buildFollowerStack(fs, m)
		if err != nil {
			fs.Close()
			return nil, err
		}
		rn.m, rn.fs, rn.st, rn.txr = m, fs, st, txr
		rn.txrA.Store(txr)
		rn.pubLSN.Store(txr.AppliedLSN())
		logf("replica store reopened at term %d lsn %d", m.Term, txr.AppliedLSN())
	}

	// First sync is synchronous: the replica does not serve reads built
	// on no data. Retry inside the boot budget — the primary may still
	// be coming up.
	deadline := time.Now().Add(bootT)
	var sess *repl.Session
	for {
		var err error
		sess, err = rn.connect()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			rn.mu.Lock()
			rn.teardownLocked()
			rn.mu.Unlock()
			return nil, fmt.Errorf("initial sync with %s: %w", primaryAddr, err)
		}
		logf("initial sync: %v (retrying)", err)
		time.Sleep(500 * time.Millisecond)
	}

	rn.node = repl.NewNode(rn.st.conc, false, rn.m.Term, rn.pubLSN.Load)
	go rn.loop(sess)
	return rn, nil
}

// connect dials the primary and brings the local store in sync: a resume
// reuses it, a snapshot session rebuilds it from scratch. On success the
// local manifest carries the session's term.
func (rn *replicaNode) connect() (*repl.Session, error) {
	h := repl.Hello{}
	rn.mu.Lock()
	if rn.m != nil && rn.txr != nil {
		h = repl.Hello{
			Term:     rn.m.Term,
			LSN:      rn.txr.AppliedLSN(),
			PageSize: rn.m.PageSize,
			Dir:      uint64(rn.m.Anchor),
		}
	}
	rn.mu.Unlock()

	sess, err := repl.DialPrimary(rn.primary, h, 10*time.Second)
	if err != nil {
		return nil, err
	}
	switch sess.Kind() {
	case repl.KindResume:
		rn.mu.Lock()
		if rn.m.Term != sess.Term() {
			rn.m.Term = sess.Term()
			if err := writeManifest(rn.storePath, rn.m); err != nil {
				rn.mu.Unlock()
				sess.Close()
				return nil, fmt.Errorf("adopt term %d: %w", sess.Term(), err)
			}
		}
		rn.mu.Unlock()
		rn.logf("resuming from %s at lsn %d (term %d)", rn.primary, sess.StartLSN(), sess.Term())
		return sess, nil

	case repl.KindSnapshot:
		info := sess.Snap()
		rn.logf("bootstrapping from %s: %d pages at lsn %d (term %d)",
			rn.primary, info.NPages, info.LSN, info.Term)
		// The old stack (if any) keeps serving reads for the whole
		// transfer: the store file is unlinked but its open handle stays
		// valid, and the node is rebound only once the clone is complete.
		rn.mu.Lock()
		oldSt, oldFs := rn.st, rn.fs
		_ = os.Remove(rn.storePath)
		_ = os.Remove(manifestPath(rn.storePath))
		fs, err := eio.CreateFileStore(rn.storePath, info.PageSize)
		if err != nil {
			rn.mu.Unlock()
			sess.Close()
			return nil, err
		}
		err = sess.ReceiveSnapshot(func(id uint64, image []byte) error {
			if err := fs.EnsurePage(eio.PageID(id)); err != nil {
				return err
			}
			return fs.Write(eio.PageID(id), image)
		})
		if err == nil {
			err = fs.Sync()
		}
		if err != nil {
			fs.Close()
			_ = os.Remove(rn.storePath)
			rn.mu.Unlock()
			sess.Close()
			return nil, fmt.Errorf("receive snapshot: %w", err)
		}
		m := &manifest{
			PageSize: info.PageSize,
			Durable:  true,
			Hdr:      eio.PageID(info.Hdr),
			Anchor:   eio.PageID(info.Dir),
			Term:     info.Term,
			Role:     "replica",
		}
		if err := writeManifest(rn.storePath, m); err != nil {
			fs.Close()
			rn.mu.Unlock()
			sess.Close()
			return nil, err
		}
		st, txr, err := buildFollowerStack(fs, m)
		if err != nil {
			fs.Close()
			rn.mu.Unlock()
			sess.Close()
			return nil, err
		}
		rn.m, rn.fs, rn.st, rn.txr = m, fs, st, txr
		rn.txrA.Store(txr)
		node := rn.node
		rn.mu.Unlock()
		// Retract the published position before the swap: the old value is
		// an old-timeline LSN, and once Rebind makes the new term visible a
		// numerically-high stale LSN could satisfy a new-term barrier the
		// clone hasn't actually caught up to. Zero forces STALE (safe)
		// until the clone's own position is published below.
		rn.pubLSN.Store(0)
		if node != nil {
			// Swap the fresh stack and the session's term in together under
			// the node's exclusive lock — in-flight readers on the old
			// engine drain first, and a reader that sees the new term is
			// guaranteed the new engine.
			node.Rebind(st.conc, info.Term)
		}
		// Published position advances only now that readers reach the new
		// engine; earlier, a barrier could pass against the clone's LSN
		// while queries still ran on the old (older) stack.
		rn.pubLSN.Store(txr.AppliedLSN())
		if oldSt != nil {
			oldSt.conc.Close()
		}
		if oldFs != nil {
			oldFs.Close()
		}
		return sess, nil
	}
	sess.Close()
	return nil, fmt.Errorf("unexpected session kind %v", sess.Kind())
}

// teardownLocked drops the current stack and store handles (rn.mu held).
// The engine is closed but its SnapStore is abandoned, not Closed:
// Closing it would close the FileStore, which is closed here explicitly
// exactly once.
func (rn *replicaNode) teardownLocked() {
	rn.txrA.Store(nil)
	if rn.st != nil {
		rn.st.conc.Close()
		rn.st = nil
	}
	rn.txr = nil
	if rn.fs != nil {
		rn.fs.Close()
		rn.fs = nil
	}
	rn.m = nil
}

// loop keeps a session running: applying records (one published epoch
// each), acking, reconnecting with backoff when the link drops, and
// parking when promotion or shutdown stops it.
func (rn *replicaNode) loop(sess *repl.Session) {
	defer close(rn.loopDone)
	backoff := 250 * time.Millisecond
	for {
		if sess != nil {
			applied := uint64(0)
			if t := rn.txrA.Load(); t != nil {
				applied = t.AppliedLSN()
			}
			f := repl.NewFollower(sess, applied)
			rn.follower.Store(f)
			err := f.Run(sess, repl.FollowerCallbacks{Apply: rn.applyRecord, Logf: rn.logf})
			sess.Close()
			rn.follower.Store(nil)
			if rn.parked() {
				return
			}
			if err != nil {
				rn.logf("replication stream ended: %v", err)
			}
			backoff = 250 * time.Millisecond
		}
		time.Sleep(backoff)
		if backoff < 4*time.Second {
			backoff *= 2
		}
		if rn.parked() {
			return
		}
		var err error
		sess, err = rn.connect()
		if err != nil {
			rn.logf("reconnect to %s: %v", rn.primary, err)
			sess = nil
		}
	}
}

func (rn *replicaNode) parked() bool {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	return rn.stopping || rn.promoted
}

// applyRecord replays one shipped record and publishes it as an epoch so
// concurrent readers roll forward. The published position (what the read
// barrier checks) advances only after the epoch commit — a reader must
// never pass the barrier for an LSN whose effects it cannot yet see.
func (rn *replicaNode) applyRecord(rec []byte) (uint64, error) {
	rn.mu.Lock()
	txr, st := rn.txr, rn.st
	rn.mu.Unlock()
	if txr == nil {
		return 0, fmt.Errorf("no replica stack")
	}
	if _, err := txr.ApplyRecord(rec); err != nil {
		return 0, err
	}
	if _, err := st.snap.Commit(); err != nil {
		return 0, err
	}
	lsn := txr.AppliedLSN()
	rn.pubLSN.Store(lsn)
	return lsn, nil
}

// stopFollower halts the apply loop and waits for it to park. After it
// returns, no record is in flight: the replica's durable position is
// final (the loop never restarts after promote/shutdown).
func (rn *replicaNode) stopFollower() {
	if f := rn.follower.Load(); f != nil {
		f.Stop()
	}
	<-rn.loopDone
}

// promote turns this replica into the primary: drain the apply queue,
// persist the bumped term BEFORE accepting any write, rebuild a writable
// stack over the same file, swap it in under the node's exclusive lock,
// reclaim the pages the old primary freed but never told us about, and
// finally open the shipper for downstream replicas. Idempotent: a second
// caller waits for the first attempt and shares its outcome.
func (rn *replicaNode) promote() (uint64, uint64, error) {
	rn.mu.Lock()
	if rn.promoted {
		done := rn.promDone
		rn.mu.Unlock()
		<-done
		return rn.promTerm, rn.promLSN, rn.promErr
	}
	if rn.stopping {
		rn.mu.Unlock()
		return 0, 0, fmt.Errorf("shutting down")
	}
	if rn.st == nil || rn.fs == nil {
		rn.mu.Unlock()
		return 0, 0, fmt.Errorf("no local store to promote")
	}
	rn.promoted = true
	done := make(chan struct{})
	rn.promDone = done
	rn.mu.Unlock()

	term, lsn, err := rn.doPromote()
	rn.promTerm, rn.promLSN, rn.promErr = term, lsn, err
	close(done)
	return term, lsn, err
}

func (rn *replicaNode) doPromote() (uint64, uint64, error) {
	rn.stopFollower()

	rn.mu.Lock()
	defer rn.mu.Unlock()

	newTerm := rn.m.Term + 1
	rn.logf("promoting to primary: term %d -> %d at lsn %d", rn.m.Term, newTerm, rn.txr.AppliedLSN())

	// Fencing invariant: the term is durable before the first write can
	// be accepted under it.
	rn.m.Term = newTerm
	rn.m.Role = "primary"
	if err := writeManifest(rn.storePath, rn.m); err != nil {
		return 0, 0, fmt.Errorf("persist term %d: %w", newTerm, err)
	}

	// Writable stack over the same file. The apply loop is drained; a
	// checkpoint makes the anchors exact, so OpenTxStore's recovery is a
	// no-op (no replay writing behind the old stack's pinned readers).
	if err := rn.txr.Checkpoint(); err != nil {
		return 0, 0, fmt.Errorf("promote: checkpoint: %w", err)
	}
	tx, err := eio.OpenTxStore(rn.fs, rn.m.Anchor)
	if err != nil {
		return 0, 0, fmt.Errorf("promote: reopen tx layer: %w", err)
	}
	snap := eio.NewSnapStore(tx, 0)
	tracer := eio.NewTraceStore(snap)
	idx, err := core.OpenThreeSided(tracer, rn.m.Hdr)
	if err != nil {
		return 0, 0, fmt.Errorf("promote: reopen tree: %w", err)
	}
	newStack, err := finish(snap, tracer, idx, tx, rn.m)
	if err != nil {
		return 0, 0, fmt.Errorf("promote: assemble stack: %w", err)
	}

	// Swap under the node's exclusive lock: in-flight readers on the old
	// engine drain before it is closed. The old stack's SnapStore is
	// abandoned un-Closed (Closing it would close the FileStore the new
	// stack now owns).
	rn.txrA.Store(nil)
	old := rn.node.Promote(newStack.conc, newTerm)
	publishTxCache(tx)
	rn.st = newStack
	rn.txr = nil
	old.Close()

	// Reclaim what the old primary freed without telling us (frees are
	// never shipped). Under the new engine's barrier the store is
	// quiescent and no reader is pinned below the current epoch yet.
	if rn.scrubBoot {
		err := newStack.conc.Barrier(func() error {
			rep, err := bootScrub(tx, rn.m.Hdr)
			if err != nil {
				return err
			}
			if len(rep.Leaked) > 0 {
				rn.logf("promotion scrub: reclaimed %d replica-leaked pages", len(rep.Leaked))
			}
			return nil
		})
		if err != nil {
			return 0, 0, fmt.Errorf("promotion scrub: %w", err)
		}
	}

	if rn.shipper != nil {
		tx.SetCommitHook(rn.shipper.Commit)
		if rn.syncN > 0 {
			syncN, syncT := rn.syncN, rn.syncT
			newStack.conc.SetCommitGate(func() error {
				return rn.shipper.WaitAcked(tx.AppliedLSN(), syncN, syncT)
			})
		}
		rn.shipper.Rebind(rn.m.PageSize, uint64(rn.m.Anchor), uint64(rn.m.Hdr),
			tx.AppliedLSN, cutSnapshot(newStack))
		rn.shipper.SetPrimary(newTerm)
	}
	rn.logf("promoted: primary at term %d lsn %d", newTerm, tx.AppliedLSN())
	return newTerm, tx.AppliedLSN(), nil
}

// manifestSnapshot returns a copy of the current manifest — the apply
// loop may replace rn.m on a re-clone, so callers outside rn.mu read
// through this.
func (rn *replicaNode) manifestSnapshot() manifest {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	return *rn.m
}

// appliedLSN is the node's durable position: the follower's published
// LSN, the engine's own after a promotion.
func (rn *replicaNode) appliedLSN() uint64 {
	_, lsn := rn.node.Position()
	return lsn
}

// replInfo is the STATS callback.
func (rn *replicaNode) replInfo() server.ReplInfo {
	role, term := rn.node.Role()
	info := server.ReplInfo{Role: role, Term: term, AppliedLSN: rn.appliedLSN()}
	if f := rn.follower.Load(); f != nil {
		info.PrimaryLSN = f.PrimaryLSN()
		info.StalenessMs = float64(time.Since(f.LastContact()).Microseconds()) / 1e3
	}
	if rn.shipper != nil {
		info.Replicas = len(rn.shipper.Replicas())
	}
	return info
}

// drain shuts the replica down. A follower's store legitimately holds
// pages its primary freed (frees are not shipped), so unlike a primary
// it does not fail the exit on leaks — promotion is where they are
// reclaimed. A promoted node drains exactly like a primary.
func (rn *replicaNode) drain() (int, error) {
	rn.mu.Lock()
	rn.stopping = true
	promoted := rn.promoted
	done := rn.promDone
	rn.mu.Unlock()
	if promoted {
		<-done // an in-flight promotion finishes before teardown starts
	} else {
		rn.stopFollower()
	}
	if rn.shipper != nil {
		rn.shipper.Close()
	}

	rn.mu.Lock()
	defer rn.mu.Unlock()
	if rn.st == nil {
		return 0, nil
	}
	if promoted {
		st := rn.st
		rn.st, rn.fs, rn.txr = nil, nil, nil
		return st.drainClean()
	}
	rn.txrA.Store(nil)
	rn.st.conc.Close()
	if _, err := rn.st.snap.Commit(); err != nil {
		return 0, fmt.Errorf("final commit: %w", err)
	}
	if err := rn.txr.Checkpoint(); err != nil { // a drained replica reopens with nothing to replay
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	if err := rn.st.snap.Close(); err != nil { // closes the FileStore too
		return 0, fmt.Errorf("close: %w", err)
	}
	rn.st, rn.fs, rn.txr = nil, nil, nil
	return 0, nil
}
