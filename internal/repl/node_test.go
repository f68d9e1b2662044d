package repl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"rangesearch/internal/core"
	"rangesearch/internal/eio"
	"rangesearch/internal/epst"
	"rangesearch/internal/geom"
)

// newTestEngine builds Concurrent(Durable(ThreeSided)) on a fresh in-memory
// TxStore and commits writes single-point inserts, leaving its LSN there.
// wrap, when set, wraps the ThreeSided writer inside Durable.
func newTestEngine(t *testing.T, writes int, wrap func(core.Index) core.Index) (*core.Concurrent, *eio.TxStore) {
	t.Helper()
	tx, err := eio.NewTxStore(eio.NewMemStore(testPS), eio.TxOptions{WALPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	snap := eio.NewSnapStore(tx, 0)
	idx, err := core.NewThreeSided(snap, epst.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
	hdr := idx.HeaderID()
	var writer core.Index = idx
	if wrap != nil {
		writer = wrap(idx)
	}
	c, err := core.NewConcurrent(core.NewDurable(writer, tx), snap,
		func(s eio.Store) (core.Index, error) { return core.OpenThreeSided(s, hdr) },
		core.ConcurrentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); snap.Close() })
	for i := 0; i < writes; i++ {
		if err := c.Insert(geom.Point{X: int64(i), Y: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return c, tx
}

// TestNodePositionIsCoherent: Position reads the term and the LSN under the
// one lock Promote, Rebind and Fence swap them under, so however the
// switches interleave with readers, no reader sees the term of one engine's
// timeline beside the LSN of the other's. Side A holds odd terms, side B
// even ones, and their LSNs differ; run it under -race.
func TestNodePositionIsCoherent(t *testing.T) {
	a, _ := newTestEngine(t, 3, nil)
	b, _ := newTestEngine(t, 40, nil)
	_, lsnA := a.Position()
	_, lsnB := b.Position()
	if lsnA == 0 || lsnB == 0 || lsnA == lsnB {
		t.Fatalf("engines need distinct non-zero LSNs, got %d and %d", lsnA, lsnB)
	}
	n := NewNode(a, RolePrimary, 1, nil)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for !stop.Load() {
				term, lsn := n.Position()
				want := lsnA
				if term%2 == 0 {
					want = lsnB
				}
				if lsn != want {
					t.Errorf("Position() = (term %d, lsn %d): that term's engine is at lsn %d", term, lsn, want)
					return
				}
				if term < last {
					t.Errorf("term went backwards: %d after %d", term, last)
					return
				}
				last = term
			}
		}()
	}
	term := uint64(1)
	for i := 0; i < 2000; i++ {
		term++ // even: side B
		n.Promote(b, term, nil)
		term += 2
		n.Fence(term, nil)
		term++ // odd: side A
		n.Rebind(a, term)
		term += 2
		n.Fence(term, nil)
		term++
		n.Rebind(b, term)
		term++
		n.Promote(a, term, nil)
	}
	stop.Store(true)
	wg.Wait()

	// The role gates writes and nothing else.
	n.Fence(term, nil)
	for _, r := range n.Apply([]core.BatchOp{{P: geom.Point{X: 1000, Y: 1}}, {Delete: true, P: geom.Point{X: 1, Y: 1}}}, nil) {
		if !errors.Is(r.Err, core.ErrNotPrimary) || r.Found {
			t.Fatalf("fenced Apply: %+v, want ErrNotPrimary", r)
		}
	}
	if got, err := n.Report(nil, geom.Rect{XLo: 0, XHi: 10, YLo: 0, YHi: geom.MaxCoord}, nil); err != nil || len(got) != 3 {
		t.Fatalf("fenced Report: %d points, %v; want engine A's 3", len(got), err)
	}
}

// TestNodePromoteOrder: Promote persists the new term first, swaps the
// engine in, and admits the first write only after arm returns.
func TestNodePromoteOrder(t *testing.T) {
	a, _ := newTestEngine(t, 3, nil)
	b, _ := newTestEngine(t, 5, nil)
	var persisted []string
	n := NewNode(a, RoleReplica, 1, func(role string, term uint64) error {
		persisted = append(persisted, fmt.Sprintf("%s@%d", role, term))
		return nil
	})
	insert := []core.BatchOp{{P: geom.Point{X: 1000, Y: 1}}}
	old, err := n.Promote(b, 2, func() error {
		if len(persisted) != 1 || persisted[0] != "primary@2" {
			t.Errorf("persisted %v before arm, want [primary@2]", persisted)
		}
		if role, term := n.Role(); role != RoleReplica || term != 2 {
			t.Errorf("during arm: %s at term %d, want replica at term 2", role, term)
		}
		if r := n.Apply(insert, nil)[0]; !errors.Is(r.Err, core.ErrNotPrimary) {
			t.Errorf("Apply during arm: %v, want ErrNotPrimary", r.Err)
		}
		return nil
	})
	if err != nil || old != a {
		t.Fatalf("Promote: old engine %p (want %p), %v", old, a, err)
	}
	if r := n.Apply(insert, nil)[0]; r.Err != nil {
		t.Fatalf("Apply after Promote: %v", r.Err)
	}
}

// TestNodeRoleIsAPair: Role returns a role and term the node held at one
// instant even when a whole Fence (role, then term) or Promote (term, then
// role) lands between its loads. A reader must never see a fenced node's
// new term beside primary, nor a promoted node's old term beside primary;
// role-then-term fails the first case and term-then-role the second.
func TestNodeRoleIsAPair(t *testing.T) {
	a, _ := newTestEngine(t, 0, nil)
	for _, tc := range []struct {
		name     string
		from     string
		change   func(n *Node) error
		wantRole string
		wantTerm uint64
	}{
		{"fence", RolePrimary, func(n *Node) error { _, err := n.Fence(9, nil); return err }, RoleFenced, 9},
		{"promote", RoleReplica, func(n *Node) error { _, err := n.Promote(a, 2, nil); return err }, RolePrimary, 2},
	} {
		n := NewNode(a, tc.from, 1, nil)
		var once sync.Once
		n.roleRead = func() {
			once.Do(func() {
				if err := tc.change(n); err != nil {
					t.Fatal(err)
				}
			})
		}
		if role, term := n.Role(); role != tc.wantRole || term != tc.wantTerm {
			t.Errorf("%s inside Role: got %s at term %d, want %s at term %d",
				tc.name, role, term, tc.wantRole, tc.wantTerm)
		}
	}
}
