package smallstruct

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
	for i := 0; i < 20; i++ {
		pts = append(pts, geom.Point{X: int64(i*29%71) + 1, Y: int64(i * 7 % 61)})
	}
	return pts
}

func sweepState(st eio.Store, hdr eio.PageID) (string, error) {
	s, err := Open(st, hdr, 0)
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

func sweepReachable(st eio.Store, hdr eio.PageID) ([]eio.PageID, error) {
	s, err := Open(st, hdr, 0)
	if err != nil {
		return nil, err
	}
	return s.AppendAllPages(nil)
}

// sweepScript opens the structure with buffer parameter alpha and runs fn
// on it.
func sweepScript(alpha int, fn func(s *Struct) error) func(eio.Store, eio.PageID) error {
	return func(st eio.Store, hdr eio.PageID) error {
		s, err := Open(st, hdr, alpha)
		if err != nil {
			return err
		}
		return fn(s)
	}
}

var (
	sweepInsert = sweepScript(0, func(s *Struct) error { return s.Insert(geom.Point{X: 35, Y: 500}) })
	sweepDelete = sweepScript(0, func(s *Struct) error {
		found, err := s.Delete(sweepPoints()[6])
		if err == nil && !found {
			return fmt.Errorf("delete target missing")
		}
		return err
	})
	// sweepRebuild forces an insert through a full rebuild: every block is
	// rewritten and the old ones freed inside one transaction.
	sweepRebuild = sweepScript(0, func(s *Struct) error {
		s.SetBufferCap(1)
		return s.Insert(geom.Point{X: 36, Y: 501})
	})
)

func sweepWorkload(name string, op, prefix func(eio.Store, eio.PageID) error) eiotest.Workload {
	return eiotest.Workload{
		Name:     name,
		PageSize: 128,
		WALPages: 256,
		Build: func(st eio.Store) (eio.PageID, error) {
			s, err := Create(st, 0, sweepPoints())
			if err != nil {
				return eio.NilPage, err
			}
			return s.CatalogID(), nil
		},
		Op:        op,
		Prefix:    prefix,
		State:     sweepState,
		Reachable: sweepReachable,
		MaxRuns:   50,
	}
}

// TestRecoverySweep fails small-structure updates at every sampled
// backing-store operation, as an error and as a crash under each disk
// model: a buffered insert (catalog rewrite only), a delete, and an insert
// forced through a full rebuild (every block rewritten), asserting
// before-or-after atomicity plus a leak-free scrub.
func TestRecoverySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery sweep in -short mode")
	}
	eiotest.Sweep(t, sweepWorkload("smallstruct-insert", sweepInsert, sweepDelete))
	eiotest.Sweep(t, sweepWorkload("smallstruct-delete", sweepDelete, sweepInsert))
	eiotest.Sweep(t, sweepWorkload("smallstruct-rebuild", sweepRebuild, sweepDelete))
}

// TestFaultSweep fails every store operation of a create/insert/delete/
// query script on a bare store in turn and asserts the small structure
// surfaces the injected error, never panics, and every page stays
// reachable.
func TestFaultSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	pts := distinctPoints(rng, 50, 200)
	base, extra, late := pts[:36], pts[36:48], pts[48:]
	eiotest.SweepBare(t, eiotest.Workload{
		Name:     "smallstruct",
		PageSize: 128,
		Build: func(st eio.Store) (eio.PageID, error) {
			s, err := Create(st, 2, base)
			if err != nil {
				return eio.NilPage, err
			}
			return s.CatalogID(), nil
		},
		Prefix: sweepScript(2, func(s *Struct) error {
			for _, p := range extra {
				if err := s.Insert(p); err != nil {
					return err
				}
			}
			for _, p := range base[:10] {
				if _, err := s.Delete(p); err != nil {
					return err
				}
			}
			if _, err := s.Query3(nil, geom.Query3{XLo: 20, XHi: 150, YLo: 30}); err != nil {
				return err
			}
			_, err := s.All()
			return err
		}),
		// The entry points that vouch for membership, against a buffer that
		// holds tombstones.
		Op: sweepScript(2, func(s *Struct) error {
			for i, p := range late {
				if err := s.Add(p); err != nil {
					return err
				}
				// base[i] went in with Build, p came a moment ago.
				if err := s.Swap(base[i], p); err != nil {
					return err
				}
			}
			if _, _, err := s.MaxY(); err != nil {
				return err
			}
			if err := s.Remove(base[10]); err != nil {
				return err
			}
			for _, p := range []geom.Point{late[0], base[0], base[20], base[30], extra[0]} {
				if _, err := s.Contains(p); err != nil {
					return err
				}
			}
			return nil
		}),
		Reachable: sweepReachable,
		MaxRuns:   1 << 20, // every operation
	})
}
