package repl

import (
	"errors"
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
func newTestEngine(t *testing.T, writes int) *core.Concurrent {
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
	c, err := core.NewConcurrent(core.NewDurable(idx, tx), snap,
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
	return c
}

// TestNodePositionIsCoherent: Position reads the term and the LSN under the
// one lock Promote, Rebind and Fence swap them under, so however the
// switches interleave with readers, no reader sees the term of one engine's
// timeline beside the LSN of the other's. Side A holds odd terms, side B
// even ones, and their LSNs differ; run it under -race.
func TestNodePositionIsCoherent(t *testing.T) {
	a, b := newTestEngine(t, 3), newTestEngine(t, 40)
	_, lsnA := a.Position()
	_, lsnB := b.Position()
	if lsnA == 0 || lsnB == 0 || lsnA == lsnB {
		t.Fatalf("engines need distinct non-zero LSNs, got %d and %d", lsnA, lsnB)
	}
	n := NewNode(a, true, 1, nil)

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
		n.Promote(b, term)
		term += 2
		n.Fence(term)
		term++ // odd: side A
		n.Rebind(a, term)
		term += 2
		n.Fence(term)
		term++
		n.Rebind(b, term)
		term++
		n.Promote(a, term)
	}
	stop.Store(true)
	wg.Wait()

	// The role gates writes and nothing else.
	n.Fence(term)
	for _, r := range n.Apply([]core.BatchOp{{P: geom.Point{X: 1000, Y: 1}}, {Delete: true, P: geom.Point{X: 1, Y: 1}}}, nil) {
		if !errors.Is(r.Err, core.ErrNotPrimary) || r.Found {
			t.Fatalf("fenced Apply: %+v, want ErrNotPrimary", r)
		}
	}
	if got, err := n.Report(nil, geom.Rect{XLo: 0, XHi: 10, YLo: 0, YHi: geom.MaxCoord}, nil); err != nil || len(got) != 3 {
		t.Fatalf("fenced Report: %d points, %v; want engine A's 3", len(got), err)
	}
}
