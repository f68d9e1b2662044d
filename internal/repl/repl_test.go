package repl

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rangesearch/internal/core"
	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
	"rangesearch/internal/server"
)

const testPS = 256

// testPrimary is a minimal primary: a transactional file store plus a
// shipper fed by its commit hook.
type testPrimary struct {
	fs *eio.FileStore
	tx *eio.TxStore
	sh *Shipper
	ln net.Listener
}

func newTestPrimary(t *testing.T, term uint64) *testPrimary {
	t.Helper()
	fs, err := eio.CreateFileStore(filepath.Join(t.TempDir(), "primary.pages"), testPS)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := eio.NewTxStore(fs, eio.TxOptions{WALPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	p := &testPrimary{fs: fs, tx: tx}
	p.sh = NewShipper(ShipperConfig{
		// The shipper reads only the node's role, term and position here:
		// commits come straight from the TxStore.
		Node:     NewNode(nil, RolePrimary, term, tx.AppliedLSN, nil),
		PageSize: testPS,
		Dir:      uint64(tx.Anchor()),
		CutSnapshot: func() (*Snapshot, error) {
			ids, err := fs.LivePageIDs()
			if err != nil {
				return nil, err
			}
			snap := &Snapshot{LSN: tx.AppliedLSN()}
			for _, id := range ids {
				img := make([]byte, testPS)
				if err := fs.Read(id, img); err != nil {
					return nil, err
				}
				snap.Pages = append(snap.Pages, SnapPage{ID: uint64(id), Image: img})
			}
			return snap, nil
		},
		Logf: t.Logf,
	})
	tx.SetCommitHook(p.sh.Commit)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p.ln = ln
	go p.sh.Serve(ln)
	t.Cleanup(func() {
		p.sh.Close()
		tx.Close()
	})
	return p
}

func (p *testPrimary) addr() string { return p.ln.Addr().String() }

// commit allocates one page, stamps it with seq, and commits — one WAL
// record, one LSN.
func (p *testPrimary) commit(t *testing.T, seq byte) eio.PageID {
	t.Helper()
	var id eio.PageID
	err := p.tx.Update(func() error {
		var err error
		id, err = p.tx.Alloc()
		if err != nil {
			return err
		}
		buf := make([]byte, testPS)
		for i := range buf {
			buf[i] = seq
		}
		return p.tx.Write(id, buf)
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// testReplica is a minimal replica: a file store bootstrapped or resumed
// from a primary, with a TxReplica applier.
type testReplica struct {
	t    *testing.T
	path string
	fs   *eio.FileStore
	txr  *eio.TxReplica
	term uint64
}

func newTestReplica(t *testing.T) *testReplica {
	return &testReplica{t: t, path: filepath.Join(t.TempDir(), "replica.pages")}
}

func (r *testReplica) hello() Hello {
	h := Hello{Term: r.term}
	if r.txr != nil {
		h.LSN = r.txr.AppliedLSN()
		h.PageSize = testPS
		h.Dir = uint64(r.txr.Dir())
	}
	return h
}

// connect dials the primary and brings the local store in sync
// (bootstrapping from a snapshot when the primary says so), returning
// the streaming session.
func (r *testReplica) connect(addr string) (*Session, error) {
	sess, err := DialPrimary(addr, r.hello(), 5*time.Second)
	if err != nil {
		return nil, err
	}
	r.term = sess.Term()
	if sess.Kind() == KindSnapshot {
		if r.fs != nil {
			r.fs.Close()
			r.fs = nil
			r.txr = nil
		}
		fs, err := eio.CreateFileStore(r.path, sess.Snap().PageSize)
		if err != nil {
			sess.Close()
			return nil, err
		}
		err = sess.ReceiveSnapshot(func(id uint64, image []byte) error {
			if err := fs.EnsurePage(eio.PageID(id)); err != nil {
				return err
			}
			return fs.Write(eio.PageID(id), image)
		})
		if err != nil {
			sess.Close()
			fs.Close()
			return nil, err
		}
		if err := fs.Sync(); err != nil {
			sess.Close()
			fs.Close()
			return nil, err
		}
		r.fs = fs
		txr, err := eio.OpenTxReplica(fs, nil, eio.PageID(sess.Snap().Dir))
		if err != nil {
			sess.Close()
			return nil, err
		}
		r.txr = txr
		if got := txr.AppliedLSN(); got != sess.Snap().LSN {
			return nil, fmt.Errorf("bootstrap applied lsn %d, snapshot said %d", got, sess.Snap().LSN)
		}
	}
	return sess, nil
}

func (r *testReplica) apply(rec []byte) (uint64, error) {
	if _, err := r.txr.ApplyRecord(rec); err != nil {
		return 0, err
	}
	return r.txr.AppliedLSN(), nil
}

func TestProtoRoundTrip(t *testing.T) {
	h := Hello{Term: 7, LSN: 1234, PageSize: 4096, Dir: 3}
	got, err := decodeHello(encodeHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("hello round-trip: got %+v want %+v", got, h)
	}

	si := SnapInfo{Term: 2, LSN: 99, PageSize: 256, Dir: 3, Hdr: 4, NPages: 17}
	gotSI, err := decodeSnapBegin(encodeSnapBegin(si))
	if err != nil {
		t.Fatal(err)
	}
	if gotSI != si {
		t.Fatalf("snapbegin round-trip: got %+v want %+v", gotSI, si)
	}

	vs, err := decodeU64s(encodeU64Msg(msgHeartbeat, 5, 77), 2)
	if err != nil {
		t.Fatal(err)
	}
	if vs[0] != 5 || vs[1] != 77 {
		t.Fatalf("u64 round-trip: got %v", vs)
	}
	if _, err := decodeU64s(encodeU64Msg(msgAck, 1), 2); err == nil {
		t.Fatal("short u64 message decoded without error")
	}
}

func TestBootstrapStreamResume(t *testing.T) {
	p := newTestPrimary(t, 1)

	// Commits before the replica exists: covered by the snapshot.
	var pages []eio.PageID
	for i := byte(1); i <= 3; i++ {
		pages = append(pages, p.commit(t, i))
	}

	r := newTestReplica(t)
	sess, err := r.connect(p.addr())
	if err != nil {
		t.Fatal(err)
	}
	if sess.Kind() != KindSnapshot {
		t.Fatalf("fresh replica got %v, want snapshot", sess.Kind())
	}
	if got := r.txr.AppliedLSN(); got != 3 {
		t.Fatalf("bootstrap lsn %d, want 3", got)
	}

	f := NewFollower(sess, r.txr.AppliedLSN())
	runDone := make(chan error, 1)
	go func() { runDone <- f.Run(sess, FollowerCallbacks{Apply: r.apply, Logf: t.Logf}) }()

	// Live commits stream through; the shipper sees acks.
	for i := byte(4); i <= 6; i++ {
		pages = append(pages, p.commit(t, i))
	}
	if err := p.sh.WaitAcked(6, 1, 5*time.Second); err != nil {
		t.Fatalf("WaitAcked: %v", err)
	}
	if got := f.AppliedLSN(); got != 6 {
		t.Fatalf("follower applied %d, want 6", got)
	}

	// Detach, let the primary advance within the backlog, reconnect:
	// must resume, not re-snapshot.
	f.Stop()
	if err := <-runDone; err != nil {
		t.Fatalf("Run after Stop: %v", err)
	}
	for i := byte(7); i <= 9; i++ {
		pages = append(pages, p.commit(t, i))
	}
	sess2, err := r.connect(p.addr())
	if err != nil {
		t.Fatal(err)
	}
	if sess2.Kind() != KindResume {
		t.Fatalf("reconnect within backlog got %v, want resume", sess2.Kind())
	}
	f2 := NewFollower(sess2, r.txr.AppliedLSN())
	go func() { runDone <- f2.Run(sess2, FollowerCallbacks{Apply: r.apply, Logf: t.Logf}) }()
	if err := p.sh.WaitAcked(9, 1, 5*time.Second); err != nil {
		t.Fatalf("WaitAcked after resume: %v", err)
	}

	// The replica's pages hold the primary's images at the primary's ids.
	buf := make([]byte, testPS)
	for i, id := range pages {
		if err := r.fs.Read(id, buf); err != nil {
			t.Fatalf("replica read page %d: %v", id, err)
		}
		if buf[0] != byte(i+1) || buf[testPS-1] != byte(i+1) {
			t.Fatalf("page %d: got fill %d, want %d", id, buf[0], i+1)
		}
	}

	// The primary reports the replica in its stats.
	reps := p.sh.Replicas()
	if len(reps) != 1 || reps[0].State != "stream" || reps[0].AckLSN != 9 {
		t.Fatalf("Replicas() = %+v", reps)
	}

	f2.Stop()
	if err := <-runDone; err != nil {
		t.Fatalf("Run 2 after Stop: %v", err)
	}
}

func TestReplicaCrashRecovery(t *testing.T) {
	p := newTestPrimary(t, 1)
	for i := byte(1); i <= 4; i++ {
		p.commit(t, i)
	}

	r := newTestReplica(t)
	sess, err := r.connect(p.addr())
	if err != nil {
		t.Fatal(err)
	}
	f := NewFollower(sess, r.txr.AppliedLSN())
	done := make(chan error, 1)
	go func() { done <- f.Run(sess, FollowerCallbacks{Apply: r.apply}) }()
	p.commit(t, 5)
	if err := p.sh.WaitAcked(5, 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	f.Stop()
	<-done

	// "Crash" the replica (drop handles without closing cleanly) and
	// reopen with the stock recovery path: the file must be a valid
	// TxStore layout at the replicated LSN.
	dir := r.txr.Dir()
	r.fs.CloseCrash()
	fs2, err := eio.OpenFileStore(r.path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	txr2, err := eio.OpenTxReplica(fs2, nil, dir)
	if err != nil {
		t.Fatalf("reopen crashed replica: %v", err)
	}
	if got := txr2.AppliedLSN(); got != 5 {
		t.Fatalf("recovered replica lsn %d, want 5", got)
	}
}

func TestWaitAckedStall(t *testing.T) {
	p := newTestPrimary(t, 1)
	p.commit(t, 1)
	err := p.sh.WaitAcked(1, 1, 100*time.Millisecond)
	if err == nil {
		t.Fatal("WaitAcked with no replicas returned nil")
	}
}

func TestPromoteRPC(t *testing.T) {
	conc, _ := newTestEngine(t, 3, nil)
	n := NewNode(conc, RoleReplica, 3, nil, nil)
	var promotions atomic.Int32
	sh := NewShipper(ShipperConfig{
		Node:     n,
		PageSize: testPS,
		OnPromote: func() (uint64, uint64, error) {
			promotions.Add(1)
			if _, err := n.Promote(conc, 4, nil); err != nil {
				return 0, 0, err
			}
			return 4, 42, nil
		},
		Logf: t.Logf,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go sh.Serve(ln)
	defer sh.Close()

	// A follower must refuse replication HELLOs.
	if _, err := DialPrimary(ln.Addr().String(), Hello{}, 2*time.Second); err == nil {
		t.Fatal("follower accepted a HELLO")
	}

	term, lsn, err := Promote(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if term != 4 || lsn != 42 || promotions.Load() != 1 {
		t.Fatalf("Promote = (%d, %d) after %d promotions, want (4, 42) after 1", term, lsn, promotions.Load())
	}

	// A primary answers from its node, without promoting again.
	_, want := conc.Position()
	term, lsn, err = Promote(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if term != 4 || lsn != want || promotions.Load() != 1 {
		t.Fatalf("Promote on a primary = (%d, %d) after %d promotions, want (4, %d) after 1", term, lsn, promotions.Load(), want)
	}
}

// heldIndex parks its first Insert until release is closed, after
// signalling entered: a write the node admitted, held short of its commit.
type heldIndex struct {
	core.Index
	entered chan struct{}
	release chan struct{}
}

func (h *heldIndex) Insert(p geom.Point) error {
	select {
	case h.entered <- struct{}{}:
		<-h.release
	default:
	}
	return h.Index.Insert(p)
}

// TestFenceByHigherTerm: a HELLO from term 9 fences a term-1 primary. A
// write the node admitted before the fence and committed during it ships
// under term 1, the term it was admitted under; once the fence is done the
// node refuses writes and has persisted "fenced" at term 9.
func TestFenceByHigherTerm(t *testing.T) {
	held := &heldIndex{entered: make(chan struct{}, 1), release: make(chan struct{})}
	conc, tx := newTestEngine(t, 0, func(idx core.Index) core.Index { held.Index = idx; return held })
	var mu sync.Mutex
	var persisted []string
	n := NewNode(conc, RolePrimary, 1, nil, func(role string, term uint64) error {
		mu.Lock()
		defer mu.Unlock()
		persisted = append(persisted, fmt.Sprintf("%s@%d", role, term))
		return nil
	})
	sh := NewShipper(ShipperConfig{
		Node:        n,
		PageSize:    testPS,
		Dir:         uint64(tx.Anchor()),
		CutSnapshot: func() (*Snapshot, error) { return &Snapshot{LSN: tx.AppliedLSN()}, nil },
		Logf:        t.Logf,
	})
	tx.SetCommitHook(sh.Commit)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go sh.Serve(ln)
	defer sh.Close()

	// A replica of the term-1 lineage, streaming.
	sess, err := DialPrimary(ln.Addr().String(), Hello{Term: 1}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.ReceiveSnapshot(func(uint64, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}

	applied := make(chan error, 1)
	go func() { applied <- n.Apply([]core.BatchOp{{P: geom.Point{X: 1, Y: 1}}}, nil)[0].Err }()
	<-held.entered

	// A replica from term 9 proves a newer lineage: the primary must
	// stand down, and the dial must fail with ErrFenced.
	_, err = DialPrimary(ln.Addr().String(), Hello{Term: 9}, 2*time.Second)
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("dial from higher term: %v, want ErrFenced", err)
	}
	waitRole := func(role string, term uint64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			r, tm := n.Role()
			if r == role && tm == term {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("node is %s at term %d, want %s at term %d", r, tm, role, term)
			}
		}
	}
	// The fence stops admitting writes at once but keeps the old term
	// while the admitted write is in flight.
	waitRole(RoleFenced, 1)
	close(held.release)
	if err := <-applied; err != nil {
		t.Fatalf("write admitted before the fence: %v", err)
	}
	_ = sess.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		body, err := readFrame(sess.br)
		if err != nil {
			t.Fatalf("waiting for the held write's record: %v", err)
		}
		if body[0] == msgRecord {
			if term := beU64(body[1:]); term != 1 {
				t.Fatalf("write admitted under term 1 shipped under term %d", term)
			}
			break
		}
	}

	waitRole(RoleFenced, 9)
	for _, r := range n.Apply([]core.BatchOp{{P: geom.Point{X: 2, Y: 2}}}, nil) {
		if !errors.Is(r.Err, core.ErrNotPrimary) {
			t.Fatalf("Apply after the fence: %v, want ErrNotPrimary", r.Err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(persisted) != 1 || persisted[0] != "fenced@9" {
		t.Fatalf("persisted %v, want [fenced@9]", persisted)
	}
}

// TestFencedNodeAnswersNoNewTermBarrier: a term-9 HELLO fences a term-1
// primary at LSN 100. The node still serves term 1's data, so a read
// barriered at (9, 50) must be STALE there — the old lineage's LSN 100 is
// no position of term 9 — while one barriered at (1, 100) is answered.
func TestFencedNodeAnswersNoNewTermBarrier(t *testing.T) {
	conc, tx := newTestEngine(t, 0, nil)
	for i := 0; tx.AppliedLSN() < 100; i++ {
		if err := conc.Insert(geom.Point{X: int64(i), Y: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if lsn := tx.AppliedLSN(); lsn != 100 {
		t.Fatalf("primary at LSN %d, want 100", lsn)
	}
	n := NewNode(conc, RolePrimary, 1, nil, nil)
	sh := NewShipper(ShipperConfig{Node: n, PageSize: testPS, Dir: uint64(tx.Anchor()), Logf: t.Logf})
	tx.SetCommitHook(sh.Commit)
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go sh.Serve(rln)
	defer sh.Close()
	srv := server.New(n, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())
	cl, err := server.Dial(ln.Addr().String(), server.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	read := func(minTerm, minLSN uint64) server.Response {
		t.Helper()
		resp, err := cl.Do(server.Request{Op: server.OpQuery3,
			Rect: geom.Rect{XLo: 0, XHi: 10, YLo: 0, YHi: geom.MaxCoord}, MinTerm: minTerm, MinLSN: minLSN})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if _, err := DialPrimary(rln.Addr().String(), Hello{Term: 9}, 2*time.Second); !errors.Is(err, ErrFenced) {
		t.Fatalf("dial from higher term: %v, want ErrFenced", err)
	}
	if role, term := n.Role(); role != RoleFenced || term != 9 {
		t.Fatalf("node is %s at term %d, want fenced at term 9", role, term)
	}
	if resp := read(9, 50); resp.Status != server.StatusStale {
		t.Fatalf("read barriered at (9, 50) on a node fenced at (1, 100): status 0x%02x, want STALE", resp.Status)
	}
	if resp := read(1, 100); resp.Status != server.StatusOK || len(resp.Points) != 11 {
		t.Fatalf("read barriered at (1, 100): status 0x%02x with %d points, want OK with 11", resp.Status, len(resp.Points))
	}
	if term, lsn := n.Position(); term != 1 || lsn != 100 {
		t.Fatalf("fenced Position() = (%d, %d), want its lineage's (1, 100)", term, lsn)
	}

	// Rebooted, the store's manifest says fenced at term 9 and nothing of
	// the lineage: no barrier with a term is answered.
	rebooted := NewNode(conc, RoleFenced, 9, nil, nil)
	term, lsn := rebooted.Position()
	for _, b := range [][2]uint64{{9, 50}, {1, 50}} {
		if server.Covers(term, lsn, b[0], b[1]) {
			t.Errorf("a store booted fenced at term 9 reports (%d, %d), which covers (%d, %d)", term, lsn, b[0], b[1])
		}
	}
}

func TestDivergedReplicaReclones(t *testing.T) {
	p := newTestPrimary(t, 2)
	for i := byte(1); i <= 2; i++ {
		p.commit(t, i)
	}
	// A replica claiming lsn beyond the primary's durable position (a
	// divergent history, e.g. an old primary with unshipped commits) must
	// get a full snapshot, not a resume.
	sess, err := DialPrimary(p.addr(), Hello{Term: 1, LSN: 50, PageSize: testPS, Dir: uint64(p.tx.Anchor())}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.Kind() != KindSnapshot {
		t.Fatalf("diverged replica got %v, want snapshot", sess.Kind())
	}
}

// TestConcurrentHigherTermHellos: several term-9 HELLOs reach a term-1
// primary at once. Whichever fences it, none of them may be served as a
// replica — a resume or a snapshot stamped with the new term would graft
// the old lineage onto the new one — and the fence is persisted once.
func TestConcurrentHigherTermHellos(t *testing.T) {
	for round := 0; round < 20; round++ {
		conc, tx := newTestEngine(t, 2, nil)
		var mu sync.Mutex
		var persisted []string
		n := NewNode(conc, RolePrimary, 1, nil, func(role string, term uint64) error {
			mu.Lock()
			defer mu.Unlock()
			persisted = append(persisted, fmt.Sprintf("%s@%d", role, term))
			return nil
		})
		sh := NewShipper(ShipperConfig{
			Node:        n,
			PageSize:    testPS,
			Dir:         uint64(tx.Anchor()),
			CutSnapshot: func() (*Snapshot, error) { return &Snapshot{LSN: tx.AppliedLSN()}, nil },
			Logf:        func(string, ...any) {},
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go sh.Serve(ln)

		const dials = 8
		errs := make(chan error, dials)
		for i := 0; i < dials; i++ {
			go func() {
				sess, err := DialPrimary(ln.Addr().String(),
					Hello{Term: 9, PageSize: testPS, Dir: uint64(tx.Anchor())}, 5*time.Second)
				if err == nil {
					sess.Close()
				}
				errs <- err
			}()
		}
		for i := 0; i < dials; i++ {
			if err := <-errs; err == nil {
				t.Fatalf("round %d: a term-9 replica was served by the term-1 primary", round)
			}
		}
		sh.Close()
		// The dial fails as soon as the FENCE reply is written; the fence
		// itself completes after it.
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			role, term := n.Role()
			if role == RoleFenced && term == 9 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: node is %s at term %d, want fenced at term 9", round, role, term)
			}
		}
		mu.Lock()
		if len(persisted) != 1 || persisted[0] != "fenced@9" {
			t.Fatalf("round %d: persisted %v, want [fenced@9]", round, persisted)
		}
		mu.Unlock()
	}
}
