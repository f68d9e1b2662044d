package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rangesearch/internal/core"
)

// SnapPage is one page of a bootstrap snapshot: the primary's page id and
// its full image.
type SnapPage struct {
	ID    uint64
	Image []byte
}

// Snapshot is a consistent full-store clone: every live page (data and
// tx-layer meta alike) as of LSN, cut under the write barrier so the file
// image and the anchors agree exactly.
type Snapshot struct {
	LSN   uint64
	Pages []SnapPage
}

// Shipper constants.
const (
	// backlogRecords is how many committed records are retained for
	// resume: a replica reconnecting within the backlog replays the tail,
	// an older one takes a full snapshot.
	backlogRecords = 256
	// heartbeatEvery is the idle-stream heartbeat period.
	heartbeatEvery = 500 * time.Millisecond
)

// ShipperConfig configures a Shipper.
type ShipperConfig struct {
	// Node is the node the shipper serves. It owns the role and term: the
	// shipper ships only while it is primary, stamps every record with its
	// term, and fences it when a peer proves a higher one. Its log
	// position (see position) is what heartbeats and resume decisions are
	// measured against.
	Node *Node

	// PageSize, Dir and Hdr describe the store layout replicas must
	// mirror (Dir is the tx directory page id, Hdr the index header id).
	PageSize int
	Dir      uint64
	Hdr      uint64

	// CutSnapshot produces a full-store clone for replica bootstrap. It
	// runs outside the shipper's lock (it takes the engine's own write
	// barrier) and is required on a primary.
	CutSnapshot func() (*Snapshot, error)

	// OnPromote handles an admin PROMOTE frame on a node that is not
	// primary: promote it and return its new term and durable LSN. A
	// primary answers with its current term and LSN; nil means promotion
	// is not supported here.
	OnPromote func() (term, lsn uint64, err error)

	// Logf, when set, receives diagnostic lines.
	Logf func(format string, args ...any)
}

// shipMsg is one queued outbound record frame.
type shipMsg struct {
	lsn   uint64
	frame []byte
}

// shipConn is one connected replica (or a replica mid-bootstrap).
type shipConn struct {
	conn    net.Conn
	queue   chan shipMsg
	die     chan struct{}
	dieOnce sync.Once

	// Guarded by Shipper.mu.
	addr      string
	state     string // "sync", "stream"
	ackLSN    uint64
	sentSnap  bool
	connected time.Time
}

// Shipper manages a node's replication port in both roles. On a primary
// it streams committed WAL records to every connected replica, serves
// bootstrap snapshots, retains a backlog for cheap resume, and tracks
// per-replica acks for semi-synchronous commit gating. On a follower it
// still answers the port — rejecting HELLO (only a primary ships) but
// honouring admin PROMOTE frames — so failover tooling can talk to any
// node at the same address before and after a role change. The role and
// term it acts on are its Node's.
type Shipper struct {
	cfg ShipperConfig

	mu   sync.Mutex
	cond *sync.Cond

	backlog      [][]byte // encoded records, consecutive LSNs
	backlogFloor uint64   // LSN of backlog[0]; 0 when empty

	conns  map[*shipConn]struct{}
	ln     net.Listener
	closed bool
}

// NewShipper builds a Shipper; call Serve to start accepting.
func NewShipper(cfg ShipperConfig) *Shipper {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Shipper{
		cfg:   cfg,
		conns: make(map[*shipConn]struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Rebind points the shipper at a new serving stack's layout and data
// sources. It exists for promotion: a shipper built on a follower has no
// snapshot source (nothing to cut until the node is writable), and a
// re-clone may have changed the anchor pages. Call before the node turns
// primary (from Node.Promote's arm) — until then the shipper rejects
// replica handshakes, so no session reads these fields concurrently.
func (s *Shipper) Rebind(pageSize int, dir, hdr uint64, cut func() (*Snapshot, error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.PageSize = pageSize
	s.cfg.Dir = dir
	s.cfg.Hdr = hdr
	s.cfg.CutSnapshot = cut
}

// Commit is the TxStore commit-hook target: it runs on the group-commit
// path right after the commit-point sync, so it must not block. The
// record is copied, stamped with the node's term (read without the node's
// lock; see Node), appended to the resume backlog, and fanned out to
// every streaming replica; a replica too slow to drain its queue is
// dropped (it reconnects and resumes from the backlog).
func (s *Shipper) Commit(lsn uint64, rec []byte) {
	cp := make([]byte, 0, 1+8+len(rec))
	cp = append(cp, msgRecord)
	cp = be64(cp, s.cfg.Node.term.Load())
	cp = append(cp, rec...)

	s.mu.Lock()
	if len(s.backlog) == 0 {
		s.backlogFloor = lsn
	}
	s.backlog = append(s.backlog, cp[1+8:]) // raw record, for resume replay
	for len(s.backlog) > backlogRecords {
		s.backlog = s.backlog[1:]
		s.backlogFloor++
	}

	var drop []*shipConn
	for sc := range s.conns {
		select {
		case sc.queue <- shipMsg{lsn: lsn, frame: cp}:
		default:
			drop = append(drop, sc)
		}
	}
	s.mu.Unlock()
	for _, sc := range drop {
		s.cfg.Logf("repl: replica %s too slow, dropping", sc.addr)
		s.dropConn(sc)
	}
}

// position is the node's log position: the later of its published
// position and the last record the commit hook shipped. The hook ships
// before the group commit publishes, so a replica can hold a record
// Position does not show yet, and its resume must not look like
// divergence. Position is read before s.mu: a commit holds the node's
// read lock while its hook waits for s.mu.
func (s *Shipper) position() uint64 {
	_, lsn := s.cfg.Node.Position()
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.backlog); n > 0 {
		lsn = max(lsn, s.backlogFloor+uint64(n)-1)
	}
	return lsn
}

// ackedLocked counts streaming replicas whose acked position covers lsn.
func (s *Shipper) ackedLocked(lsn uint64) int {
	n := 0
	for sc := range s.conns {
		if sc.state == "stream" && sc.ackLSN >= lsn {
			n++
		}
	}
	return n
}

// WaitAcked blocks until at least need replicas have acknowledged lsn,
// or the timeout elapses (core.ErrReplicationStall). It is the commit
// gate body for semi-synchronous replication: a write is not
// acknowledged to the client until it is durable on need replicas.
func (s *Shipper) WaitAcked(lsn uint64, need int, timeout time.Duration) error {
	if need <= 0 {
		return nil
	}
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, s.wake)
	defer timer.Stop()

	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.cfg.Node.role.Load() != RolePrimary {
			return core.ErrNotPrimary
		}
		if s.ackedLocked(lsn) >= need {
			return nil
		}
		if s.closed {
			return fmt.Errorf("%w: shipper closed", core.ErrReplicationStall)
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("%w: %d/%d replicas acked lsn %d within %v",
				core.ErrReplicationStall, s.ackedLocked(lsn), need, lsn, timeout)
		}
		s.cond.Wait()
	}
}

// ReplicaInfo describes one connected replica for stats reporting.
type ReplicaInfo struct {
	Addr   string `json:"addr"`
	State  string `json:"state"`
	AckLSN uint64 `json:"ack_lsn"`
}

// Replicas snapshots the connected replica set.
func (s *Shipper) Replicas() []ReplicaInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ReplicaInfo, 0, len(s.conns))
	for sc := range s.conns {
		out = append(out, ReplicaInfo{Addr: sc.addr, State: sc.state, AckLSN: sc.ackLSN})
	}
	return out
}

// Serve accepts replication connections on ln until Close. It blocks;
// run it on its own goroutine.
func (s *Shipper) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("repl: shipper closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		go s.handleConn(conn)
	}
}

// Close stops accepting and drops every replica connection.
func (s *Shipper) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	conns := make([]*shipConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, sc := range conns {
		s.dropConn(sc)
	}
}

func (s *Shipper) dropConn(sc *shipConn) {
	s.mu.Lock()
	delete(s.conns, sc)
	s.cond.Broadcast()
	s.mu.Unlock()
	sc.dieOnce.Do(func() { close(sc.die) })
	sc.conn.Close()
}

// wake rouses every WaitAcked caller to re-check its condition.
func (s *Shipper) wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// fence stands the node down: a peer proved term exists, so accepting
// more writes under our lower term would fork history. wake releases the
// writes parked in WaitAcked before the node waits for its in-flight
// writes to drain.
func (s *Shipper) fence(term uint64) {
	fenced, err := s.cfg.Node.Fence(term, s.wake)
	if fenced {
		s.cfg.Logf("repl: fenced by term %d, standing down", term)
	}
	if err != nil {
		s.cfg.Logf("repl: persist fence at term %d: %v", term, err)
	}
}

// handleConn dispatches one inbound connection by its first frame:
// HELLO starts a replica session, PROMOTE is the admin failover RPC,
// FENCE delivers a stand-down order.
func (s *Shipper) handleConn(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64*1024)
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	body, err := readFrame(br)
	if err != nil || len(body) == 0 {
		conn.Close()
		return
	}
	switch body[0] {
	case msgHello:
		h, err := decodeHello(body)
		if err != nil {
			_ = writeFrame(conn, encodeError(err.Error()))
			conn.Close()
			return
		}
		s.serveReplica(conn, br, h)
	case msgPromote:
		s.servePromote(conn)
	case msgFence:
		if vs, err := decodeU64s(body, 1); err == nil {
			s.fence(vs[0])
		}
		conn.Close()
	default:
		_ = writeFrame(conn, encodeError(fmt.Sprintf("repl: unexpected opening message 0x%02x", body[0])))
		conn.Close()
	}
}

func (s *Shipper) servePromote(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(60 * time.Second))
	// An already-writable node answers with its current identity, so
	// failover tooling can treat the RPC as idempotent.
	role, term := s.cfg.Node.Role()
	if role == RolePrimary {
		// A primary leaves its role only by a fence; if it is still the
		// primary of term after the LSN is read, that LSN is this
		// lineage's.
		lsn := s.position()
		if r, t := s.cfg.Node.Role(); r != RolePrimary {
			_ = writeFrame(conn, encodeError(fmt.Sprintf("repl: fenced by term %d", t)))
			return
		}
		_ = writeFrame(conn, encodeU64Msg(msgPromoted, term, lsn))
		return
	}
	if s.cfg.OnPromote == nil {
		_ = writeFrame(conn, encodeError("repl: promotion not supported on a "+role+" node"))
		return
	}
	term, lsn, err := s.cfg.OnPromote()
	if err != nil {
		_ = writeFrame(conn, encodeError(fmt.Sprintf("repl: promote: %v", err)))
		return
	}
	_ = writeFrame(conn, encodeU64Msg(msgPromoted, term, lsn))
}

// serveReplica runs the primary side of one replica session: decide
// resume vs snapshot, bring the replica in sync, then stream records and
// heartbeats while reading acks.
func (s *Shipper) serveReplica(conn net.Conn, br *bufio.Reader, h Hello) {
	addr := conn.RemoteAddr().String()

	role, term := s.cfg.Node.Role()
	if h.Term > term {
		// The caller is from a newer lineage: we are the stale one.
		_ = writeFrame(conn, encodeU64Msg(msgFence, h.Term))
		conn.Close()
		s.fence(h.Term)
		return
	}
	if role != RolePrimary {
		_ = writeFrame(conn, encodeError("repl: not primary"))
		conn.Close()
		return
	}

	durable := s.position()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	if h.PageSize != 0 && h.PageSize != s.cfg.PageSize {
		s.mu.Unlock()
		_ = writeFrame(conn, encodeError(fmt.Sprintf(
			"repl: page size mismatch: replica %d, primary %d", h.PageSize, s.cfg.PageSize)))
		conn.Close()
		return
	}

	// Resume needs the same lineage (term), the same layout, a position
	// not ahead of ours (ahead means divergence: records we never shipped),
	// and the whole gap present in the backlog.
	canResume := h.Term == term &&
		h.Dir == s.cfg.Dir &&
		h.LSN <= durable &&
		(h.LSN == durable || (s.backlogFloor != 0 && h.LSN+1 >= s.backlogFloor))

	sc := &shipConn{
		conn:      conn,
		queue:     make(chan shipMsg, 4*backlogRecords),
		die:       make(chan struct{}),
		addr:      addr,
		state:     "sync",
		connected: time.Now(),
	}
	// Register BEFORE replying or cutting a snapshot: every record
	// committed from this point on lands in the queue, and the writer
	// dedupes overlap against what resume/snapshot already covered.
	s.conns[sc] = struct{}{}

	var sentThrough uint64
	if canResume {
		// Replay the backlog tail (h.LSN, durable] into the queue while
		// still holding the lock, so live commits order strictly after.
		for i := int(h.LSN + 1 - s.backlogFloor); i >= 0 && i < len(s.backlog); i++ {
			rec := s.backlog[i]
			frame := make([]byte, 0, 1+8+len(rec))
			frame = append(frame, msgRecord)
			frame = be64(frame, term)
			frame = append(frame, rec...)
			sc.queue <- shipMsg{lsn: s.backlogFloor + uint64(i), frame: frame}
		}
		sentThrough = h.LSN
		s.mu.Unlock()

		_ = conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
		if err := writeFrame(conn, encodeU64Msg(msgResume, term, h.LSN)); err != nil {
			s.dropConn(sc)
			return
		}
		s.cfg.Logf("repl: replica %s resumes from lsn %d (durable %d)", addr, h.LSN, durable)
	} else {
		s.mu.Unlock()
		if s.cfg.CutSnapshot == nil {
			_ = writeFrame(conn, encodeError("repl: no snapshot source"))
			s.dropConn(sc)
			return
		}
		snap, err := s.cfg.CutSnapshot()
		if err != nil {
			s.cfg.Logf("repl: snapshot for %s failed: %v", addr, err)
			_ = writeFrame(conn, encodeError(fmt.Sprintf("repl: snapshot: %v", err)))
			s.dropConn(sc)
			return
		}
		s.cfg.Logf("repl: full snapshot to %s: %d pages at lsn %d (replica was at term %d lsn %d)",
			addr, len(snap.Pages), snap.LSN, h.Term, h.LSN)
		if err := s.sendSnapshot(conn, term, snap); err != nil {
			s.cfg.Logf("repl: snapshot send to %s failed: %v", addr, err)
			s.dropConn(sc)
			return
		}
		sentThrough = snap.LSN
	}

	s.mu.Lock()
	sc.state = "stream"
	sc.ackLSN = sentThrough
	s.cond.Broadcast()
	s.mu.Unlock()

	go s.writeLoop(sc, sentThrough)
	s.ackLoop(sc, br)
}

func (s *Shipper) sendSnapshot(conn net.Conn, term uint64, snap *Snapshot) error {
	bw := bufio.NewWriterSize(conn, 256*1024)
	_ = conn.SetWriteDeadline(time.Now().Add(5 * time.Minute))
	info := SnapInfo{
		Term:     term,
		LSN:      snap.LSN,
		PageSize: s.cfg.PageSize,
		Dir:      s.cfg.Dir,
		Hdr:      s.cfg.Hdr,
		NPages:   uint64(len(snap.Pages)),
	}
	if err := writeFrame(bw, encodeSnapBegin(info)); err != nil {
		return err
	}
	buf := make([]byte, 0, 1+8+s.cfg.PageSize)
	for _, pg := range snap.Pages {
		buf = buf[:0]
		buf = append(buf, msgSnapPage)
		buf = be64(buf, pg.ID)
		buf = append(buf, pg.Image...)
		if err := writeFrame(bw, buf); err != nil {
			return err
		}
	}
	if err := writeFrame(bw, encodeU64Msg(msgSnapEnd, snap.LSN)); err != nil {
		return err
	}
	return bw.Flush()
}

// writeLoop drains the record queue to one replica, interleaving
// heartbeats when idle. sentThrough is the position the sync phase
// already covered; queued records at or below it are duplicates from the
// registration overlap and are skipped.
func (s *Shipper) writeLoop(sc *shipConn, sentThrough uint64) {
	defer s.dropConn(sc)
	ticker := time.NewTicker(heartbeatEvery)
	defer ticker.Stop()
	bw := bufio.NewWriterSize(sc.conn, 64*1024)
	for {
		select {
		case <-sc.die:
			return
		case m := <-sc.queue:
			if m.lsn <= sentThrough {
				continue
			}
			_ = sc.conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
			if err := writeFrame(bw, m.frame); err != nil {
				return
			}
			sentThrough = m.lsn
			// Greedily drain whatever else is queued before flushing.
			for {
				select {
				case m = <-sc.queue:
					if m.lsn <= sentThrough {
						continue
					}
					if err := writeFrame(bw, m.frame); err != nil {
						return
					}
					sentThrough = m.lsn
					continue
				default:
				}
				break
			}
			if err := bw.Flush(); err != nil {
				return
			}
		case <-ticker.C:
			// The node's term, not Position's lineage: a fenced node's
			// raised term is what tells its replicas to re-handshake.
			_, term := s.cfg.Node.Role()
			durable := s.position()
			_ = sc.conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
			if err := writeFrame(bw, encodeU64Msg(msgHeartbeat, term, durable)); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// ackLoop reads replica → primary frames (ACK, FENCE) until the
// connection dies.
func (s *Shipper) ackLoop(sc *shipConn, br *bufio.Reader) {
	defer s.dropConn(sc)
	for {
		_ = sc.conn.SetReadDeadline(time.Now().Add(60 * heartbeatEvery))
		body, err := readFrame(br)
		if err != nil || len(body) == 0 {
			return
		}
		switch body[0] {
		case msgAck:
			vs, err := decodeU64s(body, 1)
			if err != nil {
				return
			}
			s.mu.Lock()
			if vs[0] > sc.ackLSN {
				sc.ackLSN = vs[0]
			}
			s.cond.Broadcast()
			s.mu.Unlock()
		case msgFence:
			if vs, err := decodeU64s(body, 1); err == nil {
				s.fence(vs[0])
			}
			return
		default:
			return
		}
	}
}
