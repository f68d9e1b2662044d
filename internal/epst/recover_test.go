package epst_test

import (
	"fmt"
	"strings"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/eio/eiotest"
	"rangesearch/internal/epst"
	"rangesearch/internal/geom"
)

func sweepPoints() []geom.Point {
	var pts []geom.Point
	for i := 0; i < 30; i++ {
		pts = append(pts, geom.Point{X: int64(i*53%127) + 1, Y: int64(i * 11 % 89)})
	}
	return pts
}

func epstState(st eio.Store, hdr eio.PageID) (string, error) {
	tr, err := epst.Open(st, hdr, 0)
	if err != nil {
		return "", err
	}
	if err := tr.CheckInvariants(); err != nil {
		return "", err
	}
	pts, err := tr.All()
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

func epstReachable(st eio.Store, hdr eio.PageID) ([]eio.PageID, error) {
	tr, err := epst.Open(st, hdr, 0)
	if err != nil {
		return nil, err
	}
	return tr.AppendAllPages(nil)
}

// TestRecoverySweep crashes an insert and a delete on the external priority
// search tree at every mutating backing-store operation, asserting
// before-or-after atomicity under WAL recovery plus a leak-free scrub. The
// EPST is the hardest case: one logical update touches the base tree, the
// per-node small structures and possibly a global rebuild.
func TestRecoverySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery sweep in -short mode")
	}
	build := func(st eio.Store) (eio.PageID, error) {
		tr, err := epst.Build(st, epst.Options{}, sweepPoints())
		if err != nil {
			return eio.NilPage, err
		}
		return tr.HeaderID(), nil
	}
	insertOp := func(st eio.Store, hdr eio.PageID) error {
		tr, err := epst.Open(st, hdr, 0)
		if err != nil {
			return err
		}
		return tr.Insert(geom.Point{X: 64, Y: 1000})
	}
	deleteOp := func(st eio.Store, hdr eio.PageID) error {
		tr, err := epst.Open(st, hdr, 0)
		if err != nil {
			return err
		}
		found, err := tr.Delete(sweepPoints()[17])
		if err == nil && !found {
			return fmt.Errorf("delete target missing")
		}
		return err
	}
	eiotest.RecoverySweep(t, eiotest.RecoveryWorkload{
		Name:      "epst-insert",
		PageSize:  128,
		WALPages:  512,
		Build:     build,
		Op:        insertOp,
		Prefix:    deleteOp,
		State:     epstState,
		Reachable: epstReachable,
		MaxRuns:   60,
	})
	eiotest.RecoverySweep(t, eiotest.RecoveryWorkload{
		Name:      "epst-delete",
		PageSize:  128,
		WALPages:  512,
		Build:     build,
		Op:        deleteOp,
		Prefix:    insertOp,
		State:     epstState,
		Reachable: epstReachable,
		MaxRuns:   60,
	})
}
