package interval_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/eio/eiotest"
	"rangesearch/internal/epst"
	"rangesearch/internal/geom"
	"rangesearch/internal/interval"
)

func sweepIntervals() []geom.Interval {
	var ivs []geom.Interval
	for i := 0; i < 25; i++ {
		lo := int64(i * 13 % 97)
		ivs = append(ivs, geom.Interval{Lo: lo, Hi: lo + int64(i%7)*10 + 1})
	}
	return ivs
}

func intervalState(st eio.Store, hdr eio.PageID) (string, error) {
	s, err := interval.Open(st, hdr, 0)
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

func intervalReachable(st eio.Store, hdr eio.PageID) ([]eio.PageID, error) {
	s, err := interval.Open(st, hdr, 0)
	if err != nil {
		return nil, err
	}
	return s.AppendAllPages(nil)
}

// TestRecoverySweep crashes a stabbing-set insert and delete at every
// mutating backing-store operation, asserting before-or-after atomicity of
// the interval set under WAL recovery plus a leak-free scrub.
func TestRecoverySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery sweep in -short mode")
	}
	build := func(st eio.Store) (eio.PageID, error) {
		s, err := interval.Build(st, epst.Options{}, sweepIntervals())
		if err != nil {
			return eio.NilPage, err
		}
		return s.HeaderID(), nil
	}
	insertOp := func(st eio.Store, hdr eio.PageID) error {
		s, err := interval.Open(st, hdr, 0)
		if err != nil {
			return err
		}
		return s.Insert(geom.Interval{Lo: 40, Hi: 2000})
	}
	deleteOp := func(st eio.Store, hdr eio.PageID) error {
		s, err := interval.Open(st, hdr, 0)
		if err != nil {
			return err
		}
		found, err := s.Delete(sweepIntervals()[9])
		if err == nil && !found {
			return fmt.Errorf("delete target missing")
		}
		return err
	}
	eiotest.RecoverySweep(t, eiotest.RecoveryWorkload{
		Name:      "interval-insert",
		PageSize:  128,
		WALPages:  512,
		Build:     build,
		Op:        insertOp,
		Prefix:    deleteOp,
		State:     intervalState,
		Reachable: intervalReachable,
		MaxRuns:   60,
	})
	eiotest.RecoverySweep(t, eiotest.RecoveryWorkload{
		Name:      "interval-delete",
		PageSize:  128,
		WALPages:  512,
		Build:     build,
		Op:        deleteOp,
		Prefix:    insertOp,
		State:     intervalState,
		Reachable: intervalReachable,
		MaxRuns:   60,
	})
}
