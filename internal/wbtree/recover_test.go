package wbtree_test

import (
	"fmt"
	"strings"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/eio/eiotest"
	"rangesearch/internal/geom"
	"rangesearch/internal/wbtree"
)

// sweepPoints is the deterministic pre-op content of the recovery sweeps.
func sweepPoints() []geom.Point {
	var pts []geom.Point
	for i := 0; i < 24; i++ {
		pts = append(pts, geom.Point{X: int64(i*37%101) + 1, Y: int64(i)})
	}
	return pts
}

func wbtreeState(st eio.Store, hdr eio.PageID) (string, error) {
	tr, err := wbtree.Open(st, hdr)
	if err != nil {
		return "", err
	}
	if err := tr.CheckInvariants(false); err != nil {
		return "", err
	}
	var b strings.Builder
	lo := geom.Point{X: geom.MinCoord, Y: geom.MinCoord}
	hi := geom.Point{X: geom.MaxCoord, Y: geom.MaxCoord}
	err = tr.Range(lo, hi, func(p geom.Point) bool {
		fmt.Fprintf(&b, "%d,%d;", p.X, p.Y)
		return true
	})
	return b.String(), err
}

func wbtreeReachable(st eio.Store, hdr eio.PageID) ([]eio.PageID, error) {
	tr, err := wbtree.Open(st, hdr)
	if err != nil {
		return nil, err
	}
	return tr.AppendAllPages(nil)
}

// TestRecoverySweep crashes an insert and a delete at every mutating
// backing-store operation and asserts before-or-after atomicity of the
// whole tree under WAL recovery plus a leak-free scrub.
func TestRecoverySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery sweep in -short mode")
	}
	build := func(st eio.Store) (eio.PageID, error) {
		tr, err := wbtree.Create(st, 0, 0)
		if err != nil {
			return eio.NilPage, err
		}
		for _, p := range sweepPoints() {
			if err := tr.Insert(p); err != nil {
				return eio.NilPage, err
			}
		}
		return tr.HeaderID(), nil
	}
	insertOp := func(st eio.Store, hdr eio.PageID) error {
		tr, err := wbtree.Open(st, hdr)
		if err != nil {
			return err
		}
		return tr.Insert(geom.Point{X: 55, Y: 999})
	}
	deleteOp := func(st eio.Store, hdr eio.PageID) error {
		tr, err := wbtree.Open(st, hdr)
		if err != nil {
			return err
		}
		found, err := tr.Delete(sweepPoints()[11])
		if err == nil && !found {
			return fmt.Errorf("delete target missing")
		}
		return err
	}
	eiotest.RecoverySweep(t, eiotest.RecoveryWorkload{
		Name:      "wbtree-insert",
		PageSize:  128,
		WALPages:  256,
		Build:     build,
		Op:        insertOp,
		Prefix:    deleteOp,
		State:     wbtreeState,
		Reachable: wbtreeReachable,
		MaxRuns:   50,
	})
	eiotest.RecoverySweep(t, eiotest.RecoveryWorkload{
		Name:      "wbtree-delete",
		PageSize:  128,
		WALPages:  256,
		Build:     build,
		Op:        deleteOp,
		Prefix:    insertOp,
		State:     wbtreeState,
		Reachable: wbtreeReachable,
		MaxRuns:   50,
	})
}
