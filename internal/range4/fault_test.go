package range4

import (
	"math/rand"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/eio/eiotest"
	"rangesearch/internal/geom"
)

// TestFaultSweep fails every store operation of a build/insert/delete/query
// workload in turn and asserts the 4-sided structure surfaces the injected
// error, never panics, and stays queryable afterwards.
func TestFaultSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep re-runs the workload per operation")
	}
	rng := rand.New(rand.NewSource(31))
	pts := distinctPoints(rng, 62, 1000)
	base, extra, late := pts[:45], pts[45:55], pts[55:]

	eiotest.Sweep(t, eiotest.Workload{
		Name:     "range4",
		PageSize: 128,
		Strict:   true,
		Ops:      7659, // what the script (then one round) cost before the single-descent update
		Run: func(st eio.Store) (func() error, error) {
			tr, err := Build(st, Options{Rho: 2, K: 4}, base)
			if err != nil {
				return nil, err
			}
			check := func() error {
				if _, err := tr.Len(); err != nil {
					return err
				}
				_, err := tr.Query4(nil, geom.Rect{XLo: 0, XHi: 1000, YLo: 0, YHi: 1000})
				return err
			}
			for _, p := range extra {
				if err := tr.Insert(p); err != nil {
					return check, err
				}
			}
			for _, p := range base[:8] {
				if _, err := tr.Delete(p); err != nil {
					return check, err
				}
			}
			if _, err := tr.Query4(nil, geom.Rect{XLo: 100, XHi: 800, YLo: 200, YHi: 900}); err != nil {
				return check, err
			}
			// Second round (see eiotest.Workload.Ops): the same mix again on
			// the structure the first round left.
			for _, p := range late {
				if err := tr.Insert(p); err != nil {
					return check, err
				}
			}
			for _, p := range base[8:13] {
				if _, err := tr.Delete(p); err != nil {
					return check, err
				}
			}
			if _, err := tr.Query4(nil, geom.Rect{XLo: 300, XHi: 340, YLo: 100, YHi: 200}); err != nil {
				return check, err
			}
			return check, nil
		},
	})
}
