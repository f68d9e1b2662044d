package main

// Replication wiring: how one rsserve process becomes a shipping primary,
// a read replica, or a replica promoted to primary at runtime.
//
// The serving engine of a replicated process is a repl.Node, the one owner
// of the node's role and term; it persists every role change through
// node.Config.SetRole, the one writer of the manifest's role and term.
// The shipper reads both from the Node and fences it when a peer proves a
// higher term.
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
// the PROMOTE RPC on -repl-listen) drains the apply loop, has
// internal/node rebuild a writable stack over the same file, and hands it
// to Node.Promote, which persists the bumped term, swaps the stack in
// under the node's exclusive lock, lets this file reclaim replica-leaked
// pages and install the commit hook and -repl-sync gate, and only then
// admits the first write.

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rangesearch/internal/eio"
	"rangesearch/internal/node"
	"rangesearch/internal/repl"
	"rangesearch/internal/server"
)

// cutSnapshot clones every live page (data and tx meta alike) under the
// write barrier, which checkpoints first: the TxStore is quiescent there
// with nothing left to replay, so the file image and the anchors agree at
// exactly AppliedLSN.
func cutSnapshot(st *node.Stack) func() (*repl.Snapshot, error) {
	return func() (*repl.Snapshot, error) {
		var snap *repl.Snapshot
		err := st.Conc.Barrier(func() error {
			ids, err := st.Tx.LivePageIDs()
			if err != nil {
				return err
			}
			ps := st.M.PageSize
			snap = &repl.Snapshot{LSN: st.Tx.AppliedLSN()}
			for _, id := range ids {
				img := make([]byte, ps)
				if err := st.Tx.Read(id, img); err != nil {
					return fmt.Errorf("snapshot read page %d: %w", id, err)
				}
				snap.Pages = append(snap.Pages, repl.SnapPage{ID: uint64(id), Image: img})
			}
			return nil
		})
		return snap, err
	}
}

// shipperConfig describes the store m names, served by n, to the
// replication protocol.
func shipperConfig(n *repl.Node, m *node.Manifest, logf func(string, ...any)) repl.ShipperConfig {
	return repl.ShipperConfig{
		Node:     n,
		PageSize: m.PageSize,
		Dir:      uint64(m.Anchor),
		Hdr:      uint64(m.Hdr),
		Logf:     logf,
	}
}

// serveRepl opens the replication port for sh.
func serveRepl(sh *repl.Shipper, addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("repl listen: %w", err)
	}
	go sh.Serve(ln)
	return ln.Addr(), nil
}

// ship taps st's commits into sh and, with syncN > 0, arms the
// semi-synchronous gate: each write's OK waits until syncN replicas acked.
func ship(st *node.Stack, sh *repl.Shipper, syncN int, syncT time.Duration) {
	st.Tx.SetCommitHook(sh.Commit)
	if syncN > 0 {
		st.Conc.SetCommitGate(func() error {
			return sh.WaitAcked(st.Applied(), syncN, syncT)
		})
	}
}

// startPrimaryRepl fronts the durable stack cfg built with a Node and
// starts the shipper on lnAddr.
func startPrimaryRepl(cfg node.Config, st *node.Stack, lnAddr string, syncN int, syncT time.Duration,
	logf func(string, ...any)) (*repl.Node, *repl.Shipper, error) {
	m := st.M
	role := repl.RolePrimary
	if m.Role == repl.RoleFenced {
		role = repl.RoleFenced
		logf("store was fenced at term %d: serving reads only (re-replicate or -force-primary to recover)", m.Term)
	}
	rnode := repl.NewNode(st.Conc, role, m.Term, cfg.SetRole)
	sc := shipperConfig(rnode, m, logf)
	sc.CutSnapshot = cutSnapshot(st)
	shipper := repl.NewShipper(sc)
	ship(st, shipper, syncN, syncT)
	at, err := serveRepl(shipper, lnAddr)
	if err != nil {
		return nil, nil, err
	}
	logf("shipping replication on %s (term %d, sync=%d)", at, m.Term, syncN)
	return rnode, shipper, nil
}

// replicaNode is the runtime state of an rsserve process running as a
// read replica (and possibly later promoted).
type replicaNode struct {
	cfg     node.Config
	primary string
	syncN   int
	syncT   time.Duration
	logf    func(string, ...any)

	rnode   *repl.Node
	shipper *repl.Shipper // nil without -repl-listen

	follower atomic.Pointer[repl.Follower]

	mu       sync.Mutex
	st       *node.Stack // current serving stack (a follower until promoted)
	promoted bool
	stopping bool

	promDone chan struct{} // closed when a promotion attempt finishes
	promTerm uint64
	promLSN  uint64
	promErr  error

	loopDone chan struct{}
}

// setFollower installs a follower stack (rn.mu held).
func (rn *replicaNode) setFollower(st *node.Stack) {
	logBoot(st.Boot, "replica ", rn.logf)
	rn.st = st
}

// startReplica syncs with the primary (blocking, with retries until
// bootT expires), builds the fenced serving stack, opens the replication
// port on lnAddr unless it is empty, and starts the background apply
// loop. The returned node is ready to serve reads.
func startReplica(cfg node.Config, primaryAddr, lnAddr string, syncN int, syncT, bootT time.Duration,
	logf func(string, ...any)) (*replicaNode, error) {
	rn := &replicaNode{
		cfg:      cfg,
		primary:  primaryAddr,
		syncN:    syncN,
		syncT:    syncT,
		logf:     logf,
		loopDone: make(chan struct{}),
	}

	// Reopen local state when it exists; its position makes resume cheap.
	st, err := node.Build(cfg)
	if err != nil {
		return nil, err
	}
	if st != nil {
		rn.setFollower(st)
		logf("replica store reopened at term %d lsn %d", st.M.Term, st.Applied())
	}

	// First sync is synchronous: the replica does not serve reads built
	// on no data. Retry inside the boot budget — the primary may still
	// be coming up.
	deadline := time.Now().Add(bootT)
	var sess *repl.Session
	for {
		sess, err = rn.connect()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			if rn.st != nil {
				rn.st.Close()
			}
			return nil, fmt.Errorf("initial sync with %s: %w", primaryAddr, err)
		}
		logf("initial sync: %v (retrying)", err)
		time.Sleep(500 * time.Millisecond)
	}

	rn.rnode = repl.NewNode(rn.st.Conc, repl.RoleReplica, rn.st.M.Term, cfg.SetRole)
	if lnAddr != "" {
		// A replica's repl port exists for the PROMOTE RPC now and for
		// shipping to its own replicas after promotion.
		sc := shipperConfig(rn.rnode, rn.st.M, logf)
		sc.OnPromote = rn.promote
		rn.shipper = repl.NewShipper(sc)
		at, err := serveRepl(rn.shipper, lnAddr)
		if err != nil {
			sess.Close()
			rn.st.Close()
			return nil, err
		}
		logf("replication port on %s (replica of %s, term %d)", at, primaryAddr, rn.st.M.Term)
	}
	go rn.loop(sess)
	return rn, nil
}

// connect dials the primary and brings the local store in sync: a resume
// reuses it, a snapshot session rebuilds it from scratch. On success the
// local manifest carries the session's term: a resume needs the term the
// Hello carried (the shipper resumes only its own lineage), and a clone
// writes the snapshot's.
func (rn *replicaNode) connect() (*repl.Session, error) {
	h := repl.Hello{}
	rn.mu.Lock()
	if st := rn.st; st != nil {
		h = repl.Hello{Term: st.M.Term, LSN: st.Applied(), PageSize: st.M.PageSize, Dir: uint64(st.M.Anchor)}
	}
	rn.mu.Unlock()

	sess, err := repl.DialPrimary(rn.primary, h, 10*time.Second)
	if err != nil {
		return nil, err
	}
	switch sess.Kind() {
	case repl.KindResume:
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
		old := rn.st
		st, err := rn.cfg.Clone(&node.Manifest{
			PageSize: info.PageSize,
			Durable:  true,
			Hdr:      eio.PageID(info.Hdr),
			Anchor:   eio.PageID(info.Dir),
			Term:     info.Term,
			Role:     repl.RoleReplica,
		}, sess.ReceiveSnapshot)
		if err != nil {
			rn.mu.Unlock()
			sess.Close()
			return nil, err
		}
		rn.setFollower(st)
		rnode := rn.rnode
		rn.mu.Unlock()
		if rnode != nil {
			// Swap the fresh stack and the session's term in together under
			// the node's exclusive lock — in-flight readers on the old
			// engine drain first, and a reader that sees the new term is
			// guaranteed the new engine and its position, the clone's LSN.
			rnode.Rebind(st.Conc, info.Term)
		}
		if old != nil {
			old.Close()
		}
		return sess, nil
	}
	sess.Close()
	return nil, fmt.Errorf("unexpected session kind %v", sess.Kind())
}

// loop keeps a session running: applying records (one published epoch
// each), acking, reconnecting with backoff when the link drops, and
// parking when promotion or shutdown stops it.
func (rn *replicaNode) loop(sess *repl.Session) {
	defer close(rn.loopDone)
	backoff := 250 * time.Millisecond
	for {
		if sess != nil {
			// Promotion and shutdown replace rn.st only once the loop parks.
			rn.mu.Lock()
			st := rn.st
			rn.mu.Unlock()
			f := repl.NewFollower(sess, st.Applied())
			rn.follower.Store(f)
			err := f.Run(sess, repl.FollowerCallbacks{Apply: st.Apply, Logf: rn.logf})
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

// stopFollower halts the apply loop and waits for it to park. After it
// returns, no record is in flight: the replica's durable position is
// final (the loop never restarts after promote/shutdown).
func (rn *replicaNode) stopFollower() {
	if f := rn.follower.Load(); f != nil {
		f.Stop()
	}
	<-rn.loopDone
}

// afterPromote, when set, runs as soon as a promotion has made the node
// writable: a test seam that holds the promotion there while writes
// arrive.
var afterPromote func()

// promote turns this replica into the primary: drain the apply queue,
// rebuild a writable stack over the same file, and hand it to
// Node.Promote, which persists the bumped term before the swap and admits
// the first write only after arm has reclaimed the pages the old primary
// freed but never told us about and installed the commit hook and the
// -repl-sync gate — a write acknowledged before them would be neither
// shipped nor gated. Idempotent: a second caller waits for the first
// attempt and shares its outcome.
func (rn *replicaNode) promote() (term, lsn uint64, err error) {
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
	if rn.st == nil {
		rn.mu.Unlock()
		return 0, 0, fmt.Errorf("no local store to promote")
	}
	rn.promoted = true
	done := make(chan struct{})
	rn.promDone = done
	rn.mu.Unlock()
	defer func() {
		rn.promTerm, rn.promLSN, rn.promErr = term, lsn, err
		close(done)
	}()

	rn.stopFollower()
	rn.mu.Lock()
	defer rn.mu.Unlock()

	_, term = rn.rnode.Role()
	term++
	rn.logf("promoting to primary: term %d -> %d at lsn %d", term-1, term, rn.st.Applied())
	newStack, err := rn.st.Promote()
	if err != nil {
		return 0, 0, fmt.Errorf("promote: %w", err)
	}
	arm := func() error {
		// Reclaim what the old primary freed without telling us (frees are
		// never shipped), under the new engine's barrier, where the store
		// is quiescent and no reader is pinned below the current epoch yet.
		n, err := newStack.Scrub()
		if err != nil {
			return fmt.Errorf("promotion scrub: %w", err)
		}
		if n > 0 {
			rn.logf("promotion scrub: reclaimed %d replica-leaked pages", n)
		}
		if rn.shipper != nil {
			m := newStack.M
			ship(newStack, rn.shipper, rn.syncN, rn.syncT)
			rn.shipper.Rebind(m.PageSize, uint64(m.Anchor), uint64(m.Hdr), cutSnapshot(newStack))
		}
		return nil
	}
	old, err := rn.rnode.Promote(newStack.Conc, term, arm)
	if old == nil {
		// Nothing was swapped: the follower stack still serves, over the
		// file newStack shares, so only its engine is closed. Its TxStore
		// is dropped un-Closed: it runs no goroutine and owns no file of
		// its own (Close would checkpoint into and close the follower's),
		// and the checkpoint before it was opened left recovery nothing to
		// write.
		newStack.Conc.Close()
		return 0, 0, fmt.Errorf("persist term %d: %w", term, err)
	}
	if err == nil && afterPromote != nil {
		afterPromote()
	}
	// The swap drained every request on the old engine. Its SnapStore is
	// abandoned un-Closed (Closing it would close the FileStore the new
	// stack now owns).
	publishStack(newStack)
	rn.st = newStack
	old.Close()
	if err != nil {
		return 0, 0, err
	}
	rn.logf("promoted: primary at term %d lsn %d", term, newStack.Applied())
	return term, newStack.Applied(), nil
}

// manifestSnapshot returns a copy of the current manifest — the apply
// loop may replace rn.st on a re-clone, so callers outside rn.mu read
// through this.
func (rn *replicaNode) manifestSnapshot() node.Manifest {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	return *rn.st.M
}

// following returns the follower of the running apply loop: nil between
// sessions, after promotion, and on a primary (rn nil).
func (rn *replicaNode) following() *repl.Follower {
	if rn == nil {
		return nil
	}
	return rn.follower.Load()
}

// replInfo is the STATS callback of a replicated node: its role and
// position, the primary's as its follower f last saw it (f is nil on a
// primary), and how many replicas its shipper sh serves (sh may be nil).
func replInfo(n *repl.Node, f *repl.Follower, sh *repl.Shipper) server.ReplInfo {
	role, term := n.Role()
	_, lsn := n.Position()
	info := server.ReplInfo{Role: role, Term: term, AppliedLSN: lsn}
	if f != nil {
		info.PrimaryLSN = f.PrimaryLSN()
		info.StalenessMs = float64(time.Since(f.LastContact()).Microseconds()) / 1e3
	}
	if sh != nil {
		info.Replicas = len(sh.Replicas())
	}
	return info
}

// drain shuts the replica down: an in-flight promotion finishes first,
// then the current stack drains — a follower only checkpoints (it keeps
// pages its primary freed; promotion is where they are reclaimed), a
// promoted node drains exactly like a primary.
func (rn *replicaNode) drain() (int, error) {
	rn.mu.Lock()
	rn.stopping = true
	promoted := rn.promoted
	done := rn.promDone
	rn.mu.Unlock()
	if promoted {
		<-done
	} else {
		rn.stopFollower()
	}
	if rn.shipper != nil {
		rn.shipper.Close()
	}

	rn.mu.Lock()
	defer rn.mu.Unlock()
	st := rn.st
	rn.st = nil
	if st == nil {
		return 0, nil
	}
	return st.Drain()
}
