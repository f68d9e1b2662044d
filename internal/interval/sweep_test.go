package interval

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/eio/eiotest"
	"rangesearch/internal/epst"
	"rangesearch/internal/geom"
)

func sweepIntervals() []geom.Interval {
	var ivs []geom.Interval
	for i := 0; i < 25; i++ {
		lo := int64(i * 13 % 97)
		ivs = append(ivs, geom.Interval{Lo: lo, Hi: lo + int64(i%7)*10 + 1})
	}
	return ivs
}

func sweepState(st eio.Store, hdr eio.PageID) (string, error) {
	s, err := Open(st, hdr, 0)
	if err != nil {
		return "", err
	}
	if err := s.CheckInvariants(); err != nil {
		return "", err
	}
	ivs, err := s.All()
	if err != nil {
		return "", err
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].Lo != ivs[j].Lo {
			return ivs[i].Lo < ivs[j].Lo
		}
		return ivs[i].Hi < ivs[j].Hi
	})
	var b strings.Builder
	for _, iv := range ivs {
		fmt.Fprintf(&b, "[%d,%d];", iv.Lo, iv.Hi)
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

// sweepScript opens the set and runs fn on it.
func sweepScript(fn func(s *Set) error) func(eio.Store, eio.PageID) error {
	return func(st eio.Store, hdr eio.PageID) error {
		s, err := Open(st, hdr, 0)
		if err != nil {
			return err
		}
		return fn(s)
	}
}

var (
	sweepInsert = sweepScript(func(s *Set) error { return s.Insert(geom.Interval{Lo: 40, Hi: 2000}) })
	sweepDelete = sweepScript(func(s *Set) error {
		found, err := s.Delete(sweepIntervals()[9])
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
			s, err := Build(st, epst.Options{}, sweepIntervals())
			if err != nil {
				return eio.NilPage, err
			}
			return s.HeaderID(), nil
		},
		Op:        op,
		Prefix:    prefix,
		State:     sweepState,
		Reachable: sweepReachable,
		MaxRuns:   60,
	}
}

// TestRecoverySweep fails a stabbing-set insert and delete at every
// sampled backing-store operation, as an error and as a crash under each
// disk model, asserting before-or-after atomicity of the interval set
// under WAL recovery plus a leak-free scrub.
func TestRecoverySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery sweep in -short mode")
	}
	eiotest.Sweep(t, sweepWorkload("interval-insert", sweepInsert, sweepDelete))
	eiotest.Sweep(t, sweepWorkload("interval-delete", sweepDelete, sweepInsert))
}

// TestFaultSweep fails every store operation of a build/insert/delete/stab
// script on a bare store in turn and asserts the interval set surfaces the
// injected error, never panics, and every page stays reachable.
func TestFaultSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep re-runs the workload per operation")
	}
	rng := rand.New(rand.NewSource(23))
	ivs := randIntervals(rng, 74, 1000)
	base, extra, late := ivs[:48], ivs[48:60], ivs[60:]
	eiotest.SweepBare(t, eiotest.Workload{
		Name:     "interval",
		PageSize: 128,
		Build: func(st eio.Store) (eio.PageID, error) {
			s, err := Build(st, epst.Options{A: 2, K: 4}, base)
			if err != nil {
				return eio.NilPage, err
			}
			return s.HeaderID(), nil
		},
		Prefix: sweepScript(func(s *Set) error {
			for _, iv := range extra {
				if err := s.Insert(iv); err != nil {
					return err
				}
			}
			for _, iv := range base[:10] {
				if _, err := s.Delete(iv); err != nil {
					return err
				}
			}
			for _, q := range []int64{0, 250, 500, 750, 999} {
				if _, err := s.StabCount(q); err != nil {
					return err
				}
			}
			return nil
		}),
		// The same mix again on the set the prefix left.
		Op: sweepScript(func(s *Set) error {
			for _, iv := range late {
				if err := s.Insert(iv); err != nil {
					return err
				}
			}
			for _, iv := range base[10:19] {
				if _, err := s.Delete(iv); err != nil {
					return err
				}
			}
			for _, q := range []int64{125, 375, 625, 875} {
				if _, err := s.StabCount(q); err != nil {
					return err
				}
			}
			return nil
		}),
		Reachable: sweepReachable,
		MaxRuns:   1 << 20, // every operation
	})
}
