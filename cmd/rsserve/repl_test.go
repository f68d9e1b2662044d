package main

import (
	"errors"
	"net"
	"path/filepath"
	"testing"
	"time"

	"rangesearch/internal/core"
	"rangesearch/internal/geom"
	"rangesearch/internal/node"
	"rangesearch/internal/repl"
	"rangesearch/internal/wbuf"
)

// TestPromotedReplicaGatesFirstWrite: with -repl-sync 1 and no replica of
// its own connected, a promoted node must not acknowledge a write — the
// first one it does not answer NOTPRIMARY waits for an ack that never
// comes and fails ErrReplicationStall. A write let in before the commit
// hook and the gate are installed would be answered OK, unshipped; the
// afterPromote seam holds the promotion just after the node turns writable,
// so such a write cannot miss the window. On the way the replica is cloned,
// re-cloned from a second primary whose log is behind it, and promoted; at
// each step its STATS epoch and applied_lsn are the LSN of its data.
func TestPromotedReplicaGatesFirstWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a primary and a replica in process; skipped in -short")
	}
	dir := t.TempDir()
	stackConfig := func(name string, role node.Role) node.Config {
		return node.Config{Store: filepath.Join(dir, name), PageSize: 4096, Durable: true,
			WALPages: node.DefaultWALPages, WriteBufferOps: wbuf.DefaultMaxOps, Role: role}
	}
	// primary builds a primary store holding points group commits of 64
	// and starts shipping it on paddr.
	paddr := freeAddr(t)
	primary := func(name string, points int) (*node.Stack, *repl.Shipper) {
		cfg := stackConfig(name, node.Primary)
		st, err := node.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ops := make([]core.BatchOp, 64)
		for i := 0; i < points; i += len(ops) {
			for j := range ops {
				ops[j] = core.BatchOp{P: geom.Point{X: int64(i + j), Y: int64(i + j)}}
			}
			for _, r := range st.Conc.Apply(ops, nil) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
			}
		}
		_, sh, err := startPrimaryRepl(cfg, st, paddr, 0, 0, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		return st, sh
	}
	stop := func(st *node.Stack, sh *repl.Shipper) {
		sh.Close()
		if _, err := st.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	// stats checks the replica's STATS epoch and applied_lsn against the
	// LSN its data is at.
	stats := func(what string, rn *replicaNode, want uint64) {
		t.Helper()
		info := replInfo(rn.rnode, rn.following(), nil)
		if e := rn.rnode.Epoch(); e != want || info.AppliedLSN != want {
			t.Errorf("%s: STATS epoch %d, applied_lsn %d; want both %d", what, e, info.AppliedLSN, want)
		}
	}

	pst, psh := primary("primary.db", 1024)
	rcfg := stackConfig("replica.db", node.Replica)
	rn, err := startReplica(rcfg, paddr, "127.0.0.1:0",
		1, 200*time.Millisecond, 10*time.Second, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	stats("clone", rn, pst.Tx.AppliedLSN())

	// A second primary on the same address with a shorter log: the
	// replica's reconnect cannot resume, so it re-clones.
	stop(pst, psh)
	pst, psh = primary("primary2.db", 128)
	if want := pst.Tx.AppliedLSN(); want >= 16 {
		t.Fatalf("second primary at lsn %d, want it behind the replica's 16", want)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if n, err := rn.rnode.Len(); err == nil && n == 128 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the replica never re-cloned from the second primary")
		}
	}
	stats("re-clone", rn, pst.Tx.AppliedLSN())

	// The old primary goes away, so the promoted node has no replica.
	stop(pst, psh)

	first := make(chan error, 1)
	answered := make(chan struct{})
	go func() {
		for x := int64(1 << 20); ; x++ {
			err := rn.rnode.Apply([]core.BatchOp{{P: geom.Point{X: x, Y: x}}}, nil)[0].Err
			if !errors.Is(err, core.ErrNotPrimary) {
				first <- err
				close(answered)
				return
			}
		}
	}()
	// Hold the promotion right after the node turns writable until the
	// writer has had its first write answered, however the scheduler runs.
	afterPromote = func() {
		select {
		case <-answered:
		case <-time.After(5 * time.Second):
		}
	}
	defer func() { afterPromote = nil }()
	if _, _, err := rn.promote(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-first:
		if !errors.Is(err, core.ErrReplicationStall) {
			t.Fatalf("first write the promoted node admitted: %v, want ErrReplicationStall", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the promoted node never admitted a write")
	}
	if m, err := node.ReadManifest(rcfg.Store); err != nil || m.Role != "primary" || m.Term != 1 {
		t.Fatalf("promoted manifest: %+v, %v; want role primary at term 1", m, err)
	}
	// The stalled write committed locally: one record past the re-clone.
	stats("promoted", rn, 3)
	if leaked, err := rn.drain(); err != nil || leaked != 0 {
		t.Fatalf("drain: leaked=%d err=%v", leaked, err)
	}
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}
