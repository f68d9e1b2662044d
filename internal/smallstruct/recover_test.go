package smallstruct_test

import (
	"fmt"
	"strings"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/eio/eiotest"
	"rangesearch/internal/geom"
	"rangesearch/internal/smallstruct"
)

func sweepPoints() []geom.Point {
	var pts []geom.Point
	for i := 0; i < 20; i++ {
		pts = append(pts, geom.Point{X: int64(i*29%71) + 1, Y: int64(i * 7 % 61)})
	}
	return pts
}

func smallState(st eio.Store, hdr eio.PageID) (string, error) {
	s, err := smallstruct.Open(st, hdr, 0)
	if err != nil {
		return "", err
	}
	pts, err := s.All()
	if err != nil {
		return "", err
	}
	n, err := s.Len()
	if err != nil {
		return "", err
	}
	if n != len(pts) {
		return "", fmt.Errorf("Len %d but All returned %d points", n, len(pts))
	}
	geom.SortByX(pts)
	var b strings.Builder
	for _, p := range pts {
		fmt.Fprintf(&b, "%d,%d;", p.X, p.Y)
	}
	return b.String(), nil
}

func smallReachable(st eio.Store, hdr eio.PageID) ([]eio.PageID, error) {
	s, err := smallstruct.Open(st, hdr, 0)
	if err != nil {
		return nil, err
	}
	return s.AppendAllPages(nil)
}

// TestRecoverySweep crashes small-structure updates at every mutating
// backing-store operation: a buffered insert (catalog rewrite only), a
// delete, and an insert forced through a full rebuild (every block
// rewritten), asserting before-or-after atomicity plus a leak-free scrub.
func TestRecoverySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery sweep in -short mode")
	}
	build := func(st eio.Store) (eio.PageID, error) {
		s, err := smallstruct.Create(st, 0, sweepPoints())
		if err != nil {
			return eio.NilPage, err
		}
		return s.CatalogID(), nil
	}
	insertOp := func(st eio.Store, hdr eio.PageID) error {
		s, err := smallstruct.Open(st, hdr, 0)
		if err != nil {
			return err
		}
		return s.Insert(geom.Point{X: 35, Y: 500})
	}
	deleteOp := func(st eio.Store, hdr eio.PageID) error {
		s, err := smallstruct.Open(st, hdr, 0)
		if err != nil {
			return err
		}
		found, err := s.Delete(sweepPoints()[6])
		if err == nil && !found {
			return fmt.Errorf("delete target missing")
		}
		return err
	}
	rebuildOp := func(st eio.Store, hdr eio.PageID) error {
		s, err := smallstruct.Open(st, hdr, 0)
		if err != nil {
			return err
		}
		// Force the insert through a full rebuild: every block is
		// rewritten and the old ones freed inside one transaction.
		s.SetBufferCap(1)
		return s.Insert(geom.Point{X: 36, Y: 501})
	}
	eiotest.RecoverySweep(t, eiotest.RecoveryWorkload{
		Name:      "smallstruct-insert",
		PageSize:  128,
		WALPages:  256,
		Build:     build,
		Op:        insertOp,
		Prefix:    deleteOp,
		State:     smallState,
		Reachable: smallReachable,
		MaxRuns:   50,
	})
	eiotest.RecoverySweep(t, eiotest.RecoveryWorkload{
		Name:      "smallstruct-delete",
		PageSize:  128,
		WALPages:  256,
		Build:     build,
		Op:        deleteOp,
		Prefix:    insertOp,
		State:     smallState,
		Reachable: smallReachable,
		MaxRuns:   50,
	})
	eiotest.RecoverySweep(t, eiotest.RecoveryWorkload{
		Name:      "smallstruct-rebuild",
		PageSize:  128,
		WALPages:  256,
		Build:     build,
		Op:        rebuildOp,
		Prefix:    deleteOp,
		State:     smallState,
		Reachable: smallReachable,
		MaxRuns:   50,
	})
}
