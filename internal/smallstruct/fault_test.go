package smallstruct

import (
	"math/rand"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/eio/eiotest"
	"rangesearch/internal/geom"
)

// TestFaultSweep fails every store operation of a create/insert/delete/
// query workload in turn and asserts the small structure surfaces the
// injected error, never panics, and stays queryable afterwards.
func TestFaultSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	pts := distinctPoints(rng, 50, 200)
	base, extra, late := pts[:36], pts[36:48], pts[48:]

	eiotest.Sweep(t, eiotest.Workload{
		Name:     "smallstruct",
		PageSize: 128,
		Strict:   true,
		Ops:      619, // what the script cost before the catalog was loaded once per operation
		Run: func(st eio.Store) (func() error, error) {
			s, err := Create(st, 2, base)
			if err != nil {
				return nil, err
			}
			check := func() error {
				if _, err := s.Len(); err != nil {
					return err
				}
				_, err := s.Query3(nil, geom.Query3{XLo: 0, XHi: 200, YLo: 0})
				return err
			}
			for _, p := range extra {
				if err := s.Insert(p); err != nil {
					return check, err
				}
			}
			for _, p := range base[:10] {
				if _, err := s.Delete(p); err != nil {
					return check, err
				}
			}
			if _, err := s.Query3(nil, geom.Query3{XLo: 20, XHi: 150, YLo: 30}); err != nil {
				return check, err
			}
			if _, err := s.All(); err != nil {
				return check, err
			}
			// Second round (see eiotest.Workload.Ops): the entry points that
			// vouch for membership, against a buffer that holds tombstones.
			for i, p := range late {
				if err := s.Add(p); err != nil {
					return check, err
				}
				// base[i] went in round one, p came a moment ago.
				if err := s.Swap(base[i], p); err != nil {
					return check, err
				}
			}
			if _, _, err := s.MaxY(); err != nil {
				return check, err
			}
			if err := s.Remove(base[10]); err != nil {
				return check, err
			}
			for _, p := range []geom.Point{late[0], base[0], base[20]} {
				if _, err := s.Contains(p); err != nil {
					return check, err
				}
			}
			return check, nil
		},
	})
}
