package interval

import (
	"math/rand"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/eio/eiotest"
	"rangesearch/internal/epst"
)

// TestFaultSweep fails every store operation of a build/insert/delete/stab
// workload in turn and asserts the interval set surfaces the injected
// error, never panics, and stays queryable afterwards.
func TestFaultSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep re-runs the workload per operation")
	}
	rng := rand.New(rand.NewSource(23))
	ivs := randIntervals(rng, 74, 1000)
	base, extra, late := ivs[:48], ivs[48:60], ivs[60:]

	eiotest.Sweep(t, eiotest.Workload{
		Name:     "interval",
		PageSize: 128,
		Strict:   true,
		Ops:      1718, // what the script (then one round) cost before the single-descent update
		Run: func(st eio.Store) (func() error, error) {
			s, err := Build(st, epst.Options{A: 2, K: 4}, base)
			if err != nil {
				return nil, err
			}
			check := func() error {
				if _, err := s.Len(); err != nil {
					return err
				}
				_, err := s.Stab(nil, 500)
				return err
			}
			for _, iv := range extra {
				if err := s.Insert(iv); err != nil {
					return check, err
				}
			}
			for _, iv := range base[:10] {
				if _, err := s.Delete(iv); err != nil {
					return check, err
				}
			}
			for _, q := range []int64{0, 250, 500, 750, 999} {
				if _, err := s.StabCount(q); err != nil {
					return check, err
				}
			}
			// Second round (see eiotest.Workload.Ops): the same mix again on
			// the set the first round left.
			for _, iv := range late {
				if err := s.Insert(iv); err != nil {
					return check, err
				}
			}
			for _, iv := range base[10:19] {
				if _, err := s.Delete(iv); err != nil {
					return check, err
				}
			}
			for _, q := range []int64{125, 375, 625} {
				if _, err := s.StabCount(q); err != nil {
					return check, err
				}
			}
			return check, nil
		},
	})
}
