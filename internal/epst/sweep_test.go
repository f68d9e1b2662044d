package epst

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/eio/eiotest"
	"rangesearch/internal/geom"
)

func sweepPoints() []geom.Point {
	var pts []geom.Point
	for i := 0; i < 30; i++ {
		pts = append(pts, geom.Point{X: int64(i*53%127) + 1, Y: int64(i * 11 % 89)})
	}
	return pts
}

func sweepState(st eio.Store, hdr eio.PageID) (string, error) {
	tr, err := Open(st, hdr, 0)
	if err != nil {
		return "", err
	}
	if err := tr.CheckInvariants(); err != nil {
		return "", err
	}
	pts, err := tr.All()
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
	tr, err := Open(st, hdr, 0)
	if err != nil {
		return nil, err
	}
	return tr.AppendAllPages(nil)
}

// sweepScript opens the tree and runs fn on it.
func sweepScript(fn func(tr *Tree) error) func(eio.Store, eio.PageID) error {
	return func(st eio.Store, hdr eio.PageID) error {
		tr, err := Open(st, hdr, 0)
		if err != nil {
			return err
		}
		return fn(tr)
	}
}

var (
	sweepInsert = sweepScript(func(tr *Tree) error { return tr.Insert(geom.Point{X: 64, Y: 1000}) })
	sweepDelete = sweepScript(func(tr *Tree) error {
		found, err := tr.Delete(sweepPoints()[17])
		if err == nil && !found {
			return fmt.Errorf("delete target missing")
		}
		return err
	})
)

// sweepRunOps is the run the run sweep applies: ten inserts packed into the
// first leaf's x-range, enough to split it; a duplicate insert; and a
// delete, in point order.
func sweepRunOps() []runOp {
	pts := sweepPoints()
	ops := []runOp{{p: pts[3]}, {del: true, p: pts[9]}}
	for i := 0; i < 10; i++ {
		ops = append(ops, runOp{p: geom.Point{X: int64(2 + 3*i), Y: int64(500 + 37*i)}})
	}
	slices.SortStableFunc(ops, func(a, b runOp) int { return a.p.Compare(b.p) })
	return ops
}

// sweepRun applies sweepRunOps as one Run.
var sweepRun = sweepScript(func(tr *Tree) error {
	return tr.Run(func(r *Run) error {
		for _, op := range sweepRunOps() {
			if !op.del {
				if err := r.Insert(op.p); err != nil && !errors.Is(err, ErrDuplicate) {
					return err
				}
			} else if found, err := r.Delete(op.p); err != nil {
				return err
			} else if !found {
				return fmt.Errorf("delete target %v missing", op.p)
			}
		}
		return nil
	})
})

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

// TestRecoverySweep fails an insert and a delete on the external priority
// search tree at every sampled backing-store operation, as an error and as
// a crash under each disk model, asserting before-or-after atomicity under
// WAL recovery plus a leak-free scrub. The EPST is the hardest case: one
// logical update touches the base tree, the per-node small structures and
// possibly a global rebuild.
func TestRecoverySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery sweep in -short mode")
	}
	eiotest.Sweep(t, sweepWorkload("epst-insert", sweepInsert, sweepDelete))
	eiotest.Sweep(t, sweepWorkload("epst-delete", sweepDelete, sweepInsert))
}

// TestRunRecoverySweep is TestRecoverySweep for a multi-update Run inside
// one transaction — inserts that split a leaf, a duplicate and a delete,
// with the nodes of the shared path held and written back between them.
// Every crash point recovers to the state before the run or after it, and
// an error rolls back to the pre-run image.
func TestRunRecoverySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery sweep in -short mode")
	}
	// The run does split: it leaves more leaves than it found.
	st := eio.NewMemStore(128)
	tr, err := Build(st, Options{}, sweepPoints())
	if err != nil {
		t.Fatal(err)
	}
	before, err := tr.countLeaves()
	if err != nil {
		t.Fatal(err)
	}
	if err := sweepRun(st, tr.HeaderID()); err != nil {
		t.Fatal(err)
	}
	after, err := tr.countLeaves()
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Fatalf("the run left %d leaves of %d: it was meant to split one", after, before)
	}
	eiotest.Sweep(t, sweepWorkload("epst-run", sweepRun, sweepInsert))
}

// countLeaves counts the tree's leaves.
func (t *Tree) countLeaves() (int, error) {
	sc := new(scratch)
	m, err := t.loadMeta(sc)
	if err != nil {
		return 0, err
	}
	var walk func(id eio.PageID) (int, error)
	walk = func(id eio.PageID) (int, error) {
		defer sc.release(sc.used)
		n, err := t.readNode(sc, id)
		if err != nil || n.level == 0 {
			return 1, err
		}
		total := 0
		for _, e := range n.entries {
			k, err := walk(e.child)
			if err != nil {
				return 0, err
			}
			total += k
		}
		return total, nil
	}
	return walk(m.root)
}

// TestFaultSweep fails every store operation of a build/insert/delete/query
// script on a bare store in turn and asserts the tree surfaces the injected
// error, never panics, and every page stays reachable.
func TestFaultSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep re-runs the workload per operation")
	}
	rng := rand.New(rand.NewSource(17))
	pts := distinctPoints(rng, 87, 1000)
	base, extra, late := pts[:55], pts[55:70], pts[70:]
	eiotest.SweepBare(t, eiotest.Workload{
		Name:     "epst",
		PageSize: 128,
		Build: func(st eio.Store) (eio.PageID, error) {
			tr, err := Build(st, Options{A: 2, K: 4}, base)
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
			for _, p := range base[:12] {
				if _, err := tr.Delete(p); err != nil {
					return err
				}
			}
			_, err := tr.Query3(nil, geom.Query3{XLo: 100, XHi: 900, YLo: 200})
			return err
		}),
		// The same mix again on the tree the prefix left, whose node
		// structures now hold buffered updates and whose Y-sets have been
		// bubbled into.
		Op: sweepScript(func(tr *Tree) error {
			for _, p := range late {
				if err := tr.Insert(p); err != nil {
					return err
				}
			}
			for _, p := range base[12:25] {
				if _, err := tr.Delete(p); err != nil {
					return err
				}
			}
			if _, _, err := tr.MaxY(); err != nil {
				return err
			}
			for _, p := range []geom.Point{late[0], base[0], base[30]} {
				if _, err := tr.Contains(p); err != nil {
					return err
				}
			}
			_, err := tr.Query3(nil, geom.Query3{XLo: 300, XHi: 700, YLo: 500})
			return err
		}),
		Reachable: sweepReachable,
		MaxRuns:   1 << 20, // every operation
	})
}
