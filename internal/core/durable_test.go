package core

import (
	"errors"
	"fmt"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/epst"
	"rangesearch/internal/geom"
)

func newDurableThreeSided(t *testing.T, walPages int) (*Durable, *eio.TxStore, *eio.MemStore) {
	t.Helper()
	mem := eio.NewMemStore(256)
	tx, err := eio.NewTxStore(mem, eio.TxOptions{WALPages: walPages})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewThreeSided(tx, epst.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return NewDurable(idx, tx), tx, mem
}

// TestDurableUpdates checks that decorated updates commit, failed updates
// roll back cleanly, and queries see the committed state.
func TestDurableUpdates(t *testing.T) {
	d, _, _ := newDurableThreeSided(t, 64)
	for i := 0; i < 10; i++ {
		if err := d.Insert(geom.Point{X: int64(i), Y: int64(i * 3)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Insert(geom.Point{X: 4, Y: 12}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate insert: %v", err)
	}
	if n, _ := d.Len(); n != 10 {
		t.Fatalf("Len = %d, want 10", n)
	}
	found, err := d.Delete(geom.Point{X: 4, Y: 12})
	if err != nil || !found {
		t.Fatalf("delete: (%v, %v)", found, err)
	}
	pts, err := d.Query(nil, geom.Rect{XLo: 0, XHi: 100, YLo: 0, YHi: geom.MaxCoord})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 9 {
		t.Fatalf("query returned %d points, want 9", len(pts))
	}
}

// TestDurableBatch checks group commit: the whole batch is one transaction,
// and a failing batch rolls back every update inside it.
func TestDurableBatch(t *testing.T) {
	d, tx, _ := newDurableThreeSided(t, 64)
	err := d.Batch(func(idx Index) error {
		for i := 0; i < 5; i++ {
			if err := idx.Insert(geom.Point{X: int64(i), Y: int64(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := d.Len(); n != 5 {
		t.Fatalf("Len after batch = %d, want 5", n)
	}
	if tx.InTx() {
		t.Fatal("transaction left open after batch")
	}

	// A failing batch must leave the index exactly as before.
	boom := fmt.Errorf("boom")
	err = d.Batch(func(idx Index) error {
		if err := idx.Insert(geom.Point{X: 100, Y: 100}); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("batch error: %v", err)
	}
	if n, _ := d.Len(); n != 5 {
		t.Fatalf("Len after failed batch = %d, want 5", n)
	}
	pts, err := d.Query(nil, geom.Rect{XLo: 100, XHi: 100, YLo: 100, YHi: geom.MaxCoord})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 0 {
		t.Fatalf("rolled-back insert is visible: %v", pts)
	}
}
