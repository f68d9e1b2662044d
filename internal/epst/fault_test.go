package epst

import (
	"math/rand"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/eio/eiotest"
	"rangesearch/internal/geom"
)

// TestFaultSweep fails every store operation of a build/insert/delete/query
// workload in turn and asserts the external priority search tree surfaces
// the injected error, never panics, and stays queryable afterwards.
func TestFaultSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep re-runs the workload per operation")
	}
	rng := rand.New(rand.NewSource(17))
	pts := distinctPoints(rng, 87, 1000)
	base, extra, late := pts[:55], pts[55:70], pts[70:]

	eiotest.Sweep(t, eiotest.Workload{
		Name:     "epst",
		PageSize: 128,
		Strict:   true,
		Ops:      1989, // what the script (then one round) cost with three descents per insert
		Run: func(st eio.Store) (func() error, error) {
			tr, err := Build(st, Options{A: 2, K: 4}, base)
			if err != nil {
				return nil, err
			}
			check := func() error {
				if _, err := tr.Len(); err != nil {
					return err
				}
				_, err := tr.Query3(nil, geom.Query3{XLo: 0, XHi: 1000, YLo: 0})
				return err
			}
			for _, p := range extra {
				if err := tr.Insert(p); err != nil {
					return check, err
				}
			}
			for _, p := range base[:12] {
				if _, err := tr.Delete(p); err != nil {
					return check, err
				}
			}
			if _, err := tr.Query3(nil, geom.Query3{XLo: 100, XHi: 900, YLo: 200}); err != nil {
				return check, err
			}
			// Second round (see eiotest.Workload.Ops): the same mix again on
			// the tree the first round left, whose node structures now hold
			// buffered updates and whose Y-sets have been bubbled into.
			for _, p := range late {
				if err := tr.Insert(p); err != nil {
					return check, err
				}
			}
			for _, p := range base[12:25] {
				if _, err := tr.Delete(p); err != nil {
					return check, err
				}
			}
			if _, _, err := tr.MaxY(); err != nil {
				return check, err
			}
			for _, p := range []geom.Point{late[0], base[0]} {
				if _, err := tr.Contains(p); err != nil {
					return check, err
				}
			}
			if _, err := tr.Query3(nil, geom.Query3{XLo: 300, XHi: 700, YLo: 500}); err != nil {
				return check, err
			}
			return check, nil
		},
	})
}
