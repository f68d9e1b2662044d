package wbtree

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/eio/eiotest"
	"rangesearch/internal/geom"
)

// sweepPoints is the deterministic pre-op content of the recovery sweeps.
func sweepPoints() []geom.Point {
	var pts []geom.Point
	for i := 0; i < 24; i++ {
		pts = append(pts, geom.Point{X: int64(i*37%101) + 1, Y: int64(i)})
	}
	return pts
}

var (
	sweepLo = geom.Point{X: geom.MinCoord, Y: geom.MinCoord}
	sweepHi = geom.Point{X: geom.MaxCoord, Y: geom.MaxCoord}
)

func sweepState(st eio.Store, hdr eio.PageID) (string, error) {
	tr, err := Open(st, hdr)
	if err != nil {
		return "", err
	}
	if err := tr.CheckInvariants(false); err != nil {
		return "", err
	}
	var b strings.Builder
	err = tr.Range(sweepLo, sweepHi, func(p geom.Point) bool {
		fmt.Fprintf(&b, "%d,%d;", p.X, p.Y)
		return true
	})
	return b.String(), err
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
	sweepInsert = sweepScript(func(tr *Tree) error { return tr.Insert(geom.Point{X: 55, Y: 999}) })
	sweepDelete = sweepScript(func(tr *Tree) error {
		found, err := tr.Delete(sweepPoints()[11])
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
		WALPages: 256,
		Build: func(st eio.Store) (eio.PageID, error) {
			tr, err := Create(st, 0, 0)
			if err != nil {
				return eio.NilPage, err
			}
			for _, p := range sweepPoints() {
				if err := tr.Insert(p); err != nil {
					return eio.NilPage, err
				}
			}
			return tr.HeaderID(), nil
		},
		Op:        op,
		Prefix:    prefix,
		State:     sweepState,
		Reachable: sweepReachable,
		MaxRuns:   50,
	}
}

// TestRecoverySweep fails an insert and a delete at every sampled
// backing-store operation, as an error and as a crash under each disk
// model, and asserts before-or-after atomicity of the whole tree under WAL
// recovery plus a leak-free scrub.
func TestRecoverySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery sweep in -short mode")
	}
	eiotest.Sweep(t, sweepWorkload("wbtree-insert", sweepInsert, sweepDelete))
	eiotest.Sweep(t, sweepWorkload("wbtree-delete", sweepDelete, sweepInsert))
}

// TestFaultSweep fails every store operation of a build/insert/delete/query
// script on a bare store in turn and asserts the tree surfaces the
// injected error, never panics, and every page stays reachable.
func TestFaultSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := distinctPoints(rng, 80, 1000)
	base, extra := pts[:60], pts[60:]
	sort.Slice(base, func(i, j int) bool { return base[i].Less(base[j]) })
	eiotest.SweepBare(t, eiotest.Workload{
		Name:     "wbtree",
		PageSize: 128,
		Build: func(st eio.Store) (eio.PageID, error) {
			tr, err := Create(st, 2, 4)
			if err != nil {
				return eio.NilPage, err
			}
			return tr.HeaderID(), tr.BulkLoad(base)
		},
		Prefix: sweepScript(func(tr *Tree) error {
			for _, p := range extra {
				if err := tr.Insert(p); err != nil {
					return err
				}
			}
			return nil
		}),
		Op: sweepScript(func(tr *Tree) error {
			for _, p := range base[:20] {
				if _, err := tr.Delete(p); err != nil {
					return err
				}
			}
			err := tr.Range(geom.Point{X: 100, Y: 100}, geom.Point{X: 800, Y: 800}, func(geom.Point) bool { return true })
			if err != nil {
				return err
			}
			if _, err := tr.Contains(extra[0]); err != nil {
				return err
			}
			_, err = tr.Len()
			return err
		}),
		Reachable: sweepReachable,
		MaxRuns:   1 << 20, // every operation
	})
}
