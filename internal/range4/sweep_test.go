package range4

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/eio/eiotest"
	"rangesearch/internal/geom"
)

func sweepPoints() []geom.Point {
	var pts []geom.Point
	for i := 0; i < 16; i++ {
		pts = append(pts, geom.Point{X: int64(i*41%83) + 1, Y: int64(i*19%67) + 1})
	}
	return pts
}

func sweepState(st eio.Store, hdr eio.PageID) (string, error) {
	tr, err := Open(st, hdr)
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

func sweepReachable(st eio.Store, hdr eio.PageID) ([]eio.PageID, error) {
	tr, err := Open(st, hdr)
	if err != nil {
		return nil, err
	}
	return tr.AppendAllPages(nil)
}

// sweepScript opens the tree and runs fn on it.
func sweepScript(fn func(tr *Tree) error) func(eio.Store, eio.PageID) error {
	return func(st eio.Store, hdr eio.PageID) error {
		tr, err := Open(st, hdr)
		if err != nil {
			return err
		}
		return fn(tr)
	}
}

var (
	sweepInsert = sweepScript(func(tr *Tree) error { return tr.Insert(geom.Point{X: 42, Y: 1000}) })
	sweepDelete = sweepScript(func(tr *Tree) error {
		found, err := tr.Delete(sweepPoints()[5])
		if err == nil && !found {
			return fmt.Errorf("delete target missing")
		}
		return err
	})
)

func sweepWorkload(name string, op, prefix func(eio.Store, eio.PageID) error) eiotest.Workload {
	return eiotest.Workload{
		Name:     name,
		PageSize: 128,
		WALPages: 512,
		Build: func(st eio.Store) (eio.PageID, error) {
			tr, err := Build(st, Options{}, sweepPoints())
			if err != nil {
				return eio.NilPage, err
			}
			return tr.HeaderID(), nil
		},
		Op:        op,
		Prefix:    prefix,
		State:     sweepState,
		Reachable: sweepReachable,
		MaxRuns:   60,
	}
}

// TestRecoverySweep fails a 4-sided tree insert and delete at every
// sampled backing-store operation, as an error and as a crash under each
// disk model, asserting before-or-after atomicity under WAL recovery plus
// a leak-free scrub. One logical update here spans the base tree, two
// corner EPSTs and a y-sorted list — the widest multi-page footprint in
// the repository.
func TestRecoverySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery sweep in -short mode")
	}
	eiotest.Sweep(t, sweepWorkload("range4-insert", sweepInsert, sweepDelete))
	eiotest.Sweep(t, sweepWorkload("range4-delete", sweepDelete, sweepInsert))
}

// TestFaultSweep fails every store operation of a build/insert/delete/query
// script on a bare store in turn and asserts the 4-sided structure
// surfaces the injected error, never panics, and every page stays
// reachable.
func TestFaultSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep re-runs the workload per operation")
	}
	rng := rand.New(rand.NewSource(31))
	pts := distinctPoints(rng, 62, 1000)
	base, extra, late := pts[:45], pts[45:55], pts[55:]
	eiotest.SweepBare(t, eiotest.Workload{
		Name:     "range4",
		PageSize: 128,
		Build: func(st eio.Store) (eio.PageID, error) {
			tr, err := Build(st, Options{Rho: 2, K: 4}, base)
			if err != nil {
				return eio.NilPage, err
			}
			return tr.HeaderID(), nil
		},
		Prefix: sweepScript(func(tr *Tree) error {
			for _, p := range extra {
				if err := tr.Insert(p); err != nil {
					return err
				}
			}
			for _, p := range base[:8] {
				if _, err := tr.Delete(p); err != nil {
					return err
				}
			}
			_, err := tr.Query4(nil, geom.Rect{XLo: 100, XHi: 800, YLo: 200, YHi: 900})
			return err
		}),
		// The same mix again on the structure the prefix left.
		Op: sweepScript(func(tr *Tree) error {
			for _, p := range late {
				if err := tr.Insert(p); err != nil {
					return err
				}
			}
			for _, p := range base[8:13] {
				if _, err := tr.Delete(p); err != nil {
					return err
				}
			}
			for _, q := range []geom.Rect{{XLo: 300, XHi: 340, YLo: 100, YHi: 200}, {XLo: 600, XHi: 900, YLo: 0, YHi: 500}} {
				if _, err := tr.Query4(nil, q); err != nil {
					return err
				}
			}
			return nil
		}),
		Reachable: sweepReachable,
		MaxRuns:   1 << 20, // every operation
	})
}
