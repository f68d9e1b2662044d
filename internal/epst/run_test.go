package epst

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
)

// runOp is one update of a test stream.
type runOp struct {
	del bool
	p   geom.Point
}

// runResult is what an update answered: a delete's found flag, and the
// class of its error ("" for none).
type runResult struct {
	found bool
	err   string
}

func resultOf(found bool, err error) runResult {
	switch {
	case err == nil:
		return runResult{found: found}
	case errors.Is(err, ErrDuplicate):
		return runResult{found: found, err: "duplicate"}
	}
	return runResult{found: found, err: err.Error()}
}

// applyRun applies ops to tr as one Run and returns each op's result. An
// update's own outcome does not end the run; any other error fails the test.
func applyRun(t *testing.T, tr *Tree, ops []runOp) []runResult {
	t.Helper()
	res := make([]runResult, len(ops))
	err := tr.Run(func(r *Run) error {
		for i, op := range ops {
			var found bool
			var err error
			if op.del {
				found, err = r.Delete(op.p)
			} else {
				err = r.Insert(op.p)
			}
			if res[i] = resultOf(found, err); err != nil && !errors.Is(err, ErrDuplicate) {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sortedRuns returns nruns point-sorted runs of size ops each: fresh
// inserts, duplicate inserts, deletes of live points and deletes of absent
// ones. The first third grows the set, the second shrinks it below half its
// peak (so a global rebuild runs), the last third churns.
func sortedRuns(seed int64, nruns, size int, xmax int64) [][]runOp {
	rng := rand.New(rand.NewSource(seed))
	live := map[geom.Point]bool{}
	var order []geom.Point // live points, for picking deletes
	fresh := func() geom.Point {
		for {
			// A narrow x-range makes equal x common.
			p := geom.Point{X: rng.Int63n(xmax), Y: rng.Int63n(1 << 20)}
			if !live[p] {
				return p
			}
		}
	}
	runs := make([][]runOp, nruns)
	for r := range runs {
		pIns := []float64{0.85, 0.3, 0.5}[3*r/nruns]
		ops := make([]runOp, 0, size)
		for len(ops) < size {
			switch x := rng.Float64(); {
			case x < 0.05 && len(order) > 0: // duplicate
				ops = append(ops, runOp{p: order[rng.Intn(len(order))]})
			case x < 0.1: // absent delete
				ops = append(ops, runOp{del: true, p: fresh()})
			case x < 0.1+0.9*pIns || len(order) == 0:
				p := fresh()
				live[p] = true
				order = append(order, p)
				ops = append(ops, runOp{p: p})
			default:
				j := rng.Intn(len(order))
				p := order[j]
				order[j] = order[len(order)-1]
				order = order[:len(order)-1]
				delete(live, p)
				ops = append(ops, runOp{del: true, p: p})
			}
		}
		// Point order, as core.Concurrent.Apply queues a run; ops on one
		// point keep their order.
		slices.SortStableFunc(ops, func(a, b runOp) int { return a.p.Compare(b.p) })
		runs[r] = ops
	}
	return runs
}

// TestRunMatchesSingleUpdates: same structure, fewer touches. One stream
// of point-sorted runs of 64 is applied twice, on twin stores: op by op
// through Insert and Delete, and one Run per run. After every run the
// results, the canonical dumps and the query digests of the twins are
// identical and the invariants hold; at the end the runs have cost fewer
// page reads and writes. The stream crosses leaf and internal splits,
// bubble-ups and a global rebuild at B = 16 and at B = 64.
func TestRunMatchesSingleUpdates(t *testing.T) {
	for _, c := range []struct {
		pageSize, nruns int
		xmax            int64
	}{
		{256, 90, 1 << 12},
		{1024, 240, 1 << 14},
	} {
		t.Run(fmt.Sprintf("page%d", c.pageSize), func(t *testing.T) {
			runs := sortedRuns(int64(c.pageSize), c.nruns, 64, c.xmax)
			oneStore := eio.NewTraceStore(eio.NewMemStore(c.pageSize))
			runStore := eio.NewTraceStore(eio.NewMemStore(c.pageSize))
			one, err := Create(oneStore, Options{})
			if err != nil {
				t.Fatal(err)
			}
			batched, err := Create(runStore, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var oneIO, runIO uint64
			maxHeight, rebuilds, basis := 0, 0, int64(0)
			for r, ops := range runs {
				before := runStore.Stats()
				got := applyRun(t, batched, ops)
				runIO += runStore.Stats().Sub(before).IOs()

				before = oneStore.Stats()
				for i, op := range ops {
					var want runResult
					if op.del {
						want = resultOf(one.Delete(op.p))
					} else {
						want = resultOf(false, one.Insert(op.p))
					}
					if got[i] != want {
						t.Fatalf("run %d op %d (%+v): run answered %+v, single update %+v", r, i, op, got[i], want)
					}
				}
				oneIO += oneStore.Stats().Sub(before).IOs()

				if err := batched.CheckInvariants(); err != nil {
					t.Fatalf("run %d: %v", r, err)
				}
				dOne, err := canonicalDump(one)
				if err != nil {
					t.Fatal(err)
				}
				dRun, err := canonicalDump(batched)
				if err != nil {
					t.Fatal(err)
				}
				if dOne != dRun {
					t.Fatalf("run %d: the trees differ", r)
				}
				qOne, err := queryDigest(one, oneStore, 20, c.xmax)
				if err != nil {
					t.Fatal(err)
				}
				qRun, err := queryDigest(batched, runStore, 20, c.xmax)
				if err != nil {
					t.Fatal(err)
				}
				if qOne != qRun {
					t.Fatalf("run %d: the trees answer queries differently", r)
				}
				m, err := one.loadMeta(new(scratch))
				if err != nil {
					t.Fatal(err)
				}
				maxHeight = max(maxHeight, m.height)
				if m.basis < basis { // only a global rebuild lowers it
					rebuilds++
				}
				basis = m.basis
			}
			n, _ := batched.Len()
			t.Logf("page %d: %d runs of 64, height up to %d, %d global rebuilds, %d points left: %d I/Os op by op, %d as runs (%.2fx)",
				c.pageSize, len(runs), maxHeight, rebuilds, n, oneIO, runIO, float64(oneIO)/float64(runIO))
			if maxHeight < 2 || rebuilds == 0 {
				t.Errorf("the stream reached height %d and rebuilt %d times; it was meant to split internal nodes and rebuild", maxHeight, rebuilds)
			}
			if runIO >= oneIO {
				t.Errorf("runs cost %d I/Os against %d op by op", runIO, oneIO)
			}
		})
	}
}
