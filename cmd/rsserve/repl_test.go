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
	"rangesearch/internal/wbuf"
)

// TestPromotedReplicaGatesFirstWrite: with -repl-sync 1 and no replica of
// its own connected, a promoted node must not acknowledge a write — the
// first one it does not answer NOTPRIMARY waits for an ack that never
// comes and fails ErrReplicationStall. A write let in before the commit
// hook and the gate are installed would be answered OK, unshipped; the
// afterPromote seam holds the promotion just after the node turns writable,
// so such a write cannot miss the window.
func TestPromotedReplicaGatesFirstWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a primary and a replica in process; skipped in -short")
	}
	dir := t.TempDir()
	stackConfig := func(name string, role node.Role) node.Config {
		return node.Config{Store: filepath.Join(dir, name), PageSize: 4096, Durable: true,
			WALPages: node.DefaultWALPages, BootScrub: true, WriteBufferOps: wbuf.DefaultMaxOps, Role: role}
	}

	pcfg := stackConfig("primary.db", node.Primary)
	pst, err := node.Build(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]core.BatchOp, 64)
	for i := 0; i < 1024; i += len(ops) {
		for j := range ops {
			ops[j] = core.BatchOp{P: geom.Point{X: int64(i + j), Y: int64(i + j)}}
		}
		for _, r := range pst.Conc.Apply(ops, nil) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	paddr := freeAddr(t)
	_, psh, err := startPrimaryRepl(pcfg, pst, paddr, 0, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}

	rcfg := stackConfig("replica.db", node.Replica)
	rn, err := startReplica(rcfg, paddr, "127.0.0.1:0",
		1, 200*time.Millisecond, 10*time.Second, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	// The old primary goes away, so the promoted node has no replica.
	psh.Close()
	if _, err := pst.Drain(); err != nil {
		t.Fatal(err)
	}

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
