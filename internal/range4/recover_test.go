package range4_test

import (
	"fmt"
	"strings"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/eio/eiotest"
	"rangesearch/internal/geom"
	"rangesearch/internal/range4"
)

func sweepPoints() []geom.Point {
	var pts []geom.Point
	for i := 0; i < 16; i++ {
		pts = append(pts, geom.Point{X: int64(i*41%83) + 1, Y: int64(i*19%67) + 1})
	}
	return pts
}

func range4State(st eio.Store, hdr eio.PageID) (string, error) {
	tr, err := range4.Open(st, hdr)
	if err != nil {
		return "", err
	}
	if err := tr.CheckInvariants(); err != nil {
		return "", err
	}
	pts, err := tr.Query4(nil, geom.Rect{
		XLo: geom.MinCoord, XHi: geom.MaxCoord,
		YLo: geom.MinCoord, YHi: geom.MaxCoord,
	})
	if err != nil {
		return "", err
	}
	geom.SortByX(pts)
	var b strings.Builder
	for _, p := range pts {
		fmt.Fprintf(&b, "%d,%d;", p.X, p.Y)
	}
	return b.String(), nil
}

func range4Reachable(st eio.Store, hdr eio.PageID) ([]eio.PageID, error) {
	tr, err := range4.Open(st, hdr)
	if err != nil {
		return nil, err
	}
	return tr.AppendAllPages(nil)
}

// TestRecoverySweep crashes a 4-sided tree insert and delete at every
// mutating backing-store operation, asserting before-or-after atomicity
// under WAL recovery plus a leak-free scrub. One logical update here spans
// the base tree, two corner EPSTs and a y-sorted list — the widest
// multi-page footprint in the repository.
func TestRecoverySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery sweep in -short mode")
	}
	build := func(st eio.Store) (eio.PageID, error) {
		tr, err := range4.Build(st, range4.Options{}, sweepPoints())
		if err != nil {
			return eio.NilPage, err
		}
		return tr.HeaderID(), nil
	}
	insertOp := func(st eio.Store, hdr eio.PageID) error {
		tr, err := range4.Open(st, hdr)
		if err != nil {
			return err
		}
		return tr.Insert(geom.Point{X: 42, Y: 1000})
	}
	deleteOp := func(st eio.Store, hdr eio.PageID) error {
		tr, err := range4.Open(st, hdr)
		if err != nil {
			return err
		}
		found, err := tr.Delete(sweepPoints()[5])
		if err == nil && !found {
			return fmt.Errorf("delete target missing")
		}
		return err
	}
	eiotest.RecoverySweep(t, eiotest.RecoveryWorkload{
		Name:      "range4-insert",
		PageSize:  128,
		WALPages:  512,
		Build:     build,
		Op:        insertOp,
		Prefix:    deleteOp,
		State:     range4State,
		Reachable: range4Reachable,
		MaxRuns:   60,
	})
	eiotest.RecoverySweep(t, eiotest.RecoveryWorkload{
		Name:      "range4-delete",
		PageSize:  128,
		WALPages:  512,
		Build:     build,
		Op:        deleteOp,
		Prefix:    insertOp,
		State:     range4State,
		Reachable: range4Reachable,
		MaxRuns:   60,
	})
}
