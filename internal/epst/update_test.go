package epst

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/eio/eiotest"
	"rangesearch/internal/geom"
)

// bubbles reports whether deleting p would trigger a bubble-up: p sits in a
// Y-set that the deletion takes below B/2.
func bubbles(t *testing.T, tr *Tree, p geom.Point) bool {
	t.Helper()
	sc := new(scratch)
	m, err := tr.loadMeta(sc)
	if err != nil {
		t.Fatal(err)
	}
	for id := m.root; ; {
		n, err := tr.readNode(sc, id)
		if err != nil {
			t.Fatal(err)
		}
		if n.level == 0 {
			return false
		}
		i := routeChild(n, p)
		q := tr.openQ(sc, n.q)
		ys, err := tr.ySet(nil, &q, n, i)
		if err != nil {
			t.Fatal(err)
		}
		for _, y := range ys {
			if y == p {
				return 2*(int(n.entries[i].ysize)-1) < tr.b
			}
		}
		id = n.entries[i].child
	}
}

// TestUpdateTouchesEachPageOnce is the I/O budget of the single-descent
// update, on trees of height 1 and 2 under a seeded mixed stream: an Insert
// or Delete that neither splits, rebuilds a node structure, grows a record
// nor bubbles a point up reads no page twice and writes no page twice, and
// a query reads no page twice. (The exceptions announce themselves: a
// split, a rebuild and a growing record allocate or free pages; whether a
// delete bubbles up is read off the tree beforehand.)
func TestUpdateTouchesEachPageOnce(t *testing.T) {
	for _, preload := range []int{50, 200} {
		rng := rand.New(rand.NewSource(int64(preload)))
		ts := eio.NewTraceStore(eio.NewMemStore(256)) // B = 16
		pts := distinctPoints(rng, preload+1000, 1<<16)
		tr, err := Build(ts, Options{}, pts[:preload])
		if err != nil {
			t.Fatal(err)
		}
		h, _ := tr.Height()
		live := append([]geom.Point(nil), pts[:preload]...)
		fresh := pts[preload:]
		plainIns, plainDel := 0, 0
		for op := 0; op < 2000; op++ {
			var log pageLog
			insert := op%2 == 0
			var p geom.Point
			bubble := false
			if insert {
				p, fresh = fresh[0], fresh[1:]
				live = append(live, p)
			} else {
				j := rng.Intn(len(live))
				p = live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				fresh = append(fresh, p)
				bubble = bubbles(t, tr, p)
			}
			ts.SetSink(&log)
			if insert {
				err = tr.Insert(p)
			} else {
				_, err = tr.Delete(p)
			}
			ts.SetSink(nil)
			if err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			allocs, _ := log.count(eio.OpAlloc)
			frees, _ := log.count(eio.OpFree)
			if allocs+frees > 0 || bubble {
				continue
			}
			reads, pagesRead := log.count(eio.OpRead)
			writes, pagesWritten := log.count(eio.OpWrite)
			if reads != pagesRead || writes != pagesWritten {
				t.Fatalf("height %d, op %d (insert=%v %v): %d reads of %d pages, %d writes of %d pages\n%v",
					h, op, insert, p, reads, pagesRead, writes, pagesWritten, log.ev)
			}
			if insert {
				plainIns++
			} else {
				plainDel++
			}
		}
		if plainIns < 500 || plainDel < 500 {
			t.Errorf("height %d: only %d inserts and %d deletes were plain; the budget was hardly checked", h, plainIns, plainDel)
		}
		for i := 0; i < 200; i++ {
			lo := rng.Int63n(1 << 16)
			var log pageLog
			ts.SetSink(&log)
			_, err := tr.Query3(nil, geom.Query3{XLo: lo, XHi: lo + rng.Int63n(1<<14), YLo: rng.Int63n(1 << 16)})
			ts.SetSink(nil)
			if err != nil {
				t.Fatal(err)
			}
			if reads, pages := log.count(eio.OpRead); reads != pages || len(log.ev) != reads {
				t.Fatalf("height %d: a query read %d pages in %d reads (%d events)", h, pages, reads, len(log.ev))
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUpdateIOPinned pins what one seeded stream of 2 000 updates (half
// inserts, half deletes, on a bulk-loaded tree that keeps its size) costs
// in store operations at height 1 and at height 2, B = 16: applied one
// update at a time, and applied as point-sorted runs of 64 through Run,
// the batch a group commit makes of it. The numbers are exact and
// deterministic; a change that moves them is either a deliberate
// improvement — re-pin, and say why in EXPERIMENTS.md — or a regression
// caught here rather than in a benchmark weeks later. Before the
// single-descent update the same streams cost 40 668 + 12 358 (height 1,
// 26.51 per update against 12.87 now) and 56 890 + 15 327 (height 2, 36.11
// against 18.22) reads + writes.
func TestUpdateIOPinned(t *testing.T) {
	for _, c := range []struct {
		preload, height int
		run             int // updates per Run; 0: Insert and Delete
		reads, writes   uint64
	}{
		{50, 1, 0, 14832, 10916},
		{200, 2, 0, 22493, 13943},
		{50, 1, 64, 1080, 1321},
		{200, 2, 64, 3627, 3105},
	} {
		rng := rand.New(rand.NewSource(int64(c.preload)))
		store := eio.NewMemStore(256)
		pts := distinctPoints(rng, c.preload+1000, 1<<16)
		tr, err := Build(store, Options{}, pts[:c.preload])
		if err != nil {
			t.Fatal(err)
		}
		if h, _ := tr.Height(); h != c.height {
			t.Fatalf("preload %d built height %d, want %d", c.preload, h, c.height)
		}
		live := append([]geom.Point(nil), pts[:c.preload]...)
		fresh := pts[c.preload:]
		ops := make([]runOp, 2000)
		for op := range ops {
			if op%2 == 0 {
				ops[op] = runOp{p: fresh[0]}
				live = append(live, fresh[0])
				fresh = fresh[1:]
				continue
			}
			j := rng.Intn(len(live))
			p := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			fresh = append(fresh, p)
			ops[op] = runOp{del: true, p: p}
		}
		store.ResetStats()
		if c.run == 0 {
			for _, op := range ops {
				if !op.del {
					if err := tr.Insert(op.p); err != nil {
						t.Fatal(err)
					}
				} else if ok, err := tr.Delete(op.p); err != nil || !ok {
					t.Fatal(ok, err)
				}
			}
		} else {
			for from := 0; from < len(ops); from += c.run {
				run := slices.Clone(ops[from:min(from+c.run, len(ops))])
				slices.SortStableFunc(run, func(a, b runOp) int { return a.p.Compare(b.p) })
				for i, res := range applyRun(t, tr, run) {
					if res != (runResult{found: run[i].del}) {
						t.Fatalf("%+v answered %+v", run[i], res)
					}
				}
			}
		}
		if h, _ := tr.Height(); h != c.height {
			t.Fatalf("the stream took the tree to height %d", h)
		}
		st := store.Stats()
		how := "single updates"
		if c.run > 0 {
			how = fmt.Sprintf("sorted runs of %d", c.run)
		}
		t.Logf("height %d, %s: %d reads + %d writes over 2000 updates = %.2f reads + %.2f writes = %.2f I/Os per update",
			c.height, how, st.Reads, st.Writes, float64(st.Reads)/2000, float64(st.Writes)/2000, float64(st.IOs())/2000)
		if st.Reads != c.reads || st.Writes != c.writes {
			t.Errorf("height %d, %s: 2000 updates cost %d reads and %d writes, pinned at %d and %d", c.height, how, st.Reads, st.Writes, c.reads, c.writes)
		}
	}
}

// TestUpdateAllocFree: a warm Insert or Delete that splits nothing
// allocates nothing — the path is decoded into recycled nodes, every record
// is written through the buffer it was read into, and the node structures
// work in the operation's scratch — and neither does a warm run of 64
// updates, whose held nodes keep their Y-sets and queued edits in recycled
// slices.
func TestUpdateAllocFree(t *testing.T) {
	if !eiotest.PoolsRecycle() {
		t.Skip("sync.Pool does not recycle on this build (race detector): the per-operation scratch is sometimes rebuilt")
	}
	rng := rand.New(rand.NewSource(19))
	store := eio.NewMemStore(1024) // B = 64
	pts := distinctPoints(rng, 4033, 1<<20)
	tr, err := Build(store, Options{}, pts[:4000])
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := tr.Height(); h < 1 {
		t.Fatalf("height %d; the guard wants internal nodes", h)
	}
	p := pts[4000]
	// Each run inserts p and deletes it again: the tree and every update
	// buffer end where they started, so the loop never splits or rebuilds.
	cycle := func() {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
		if ok, err := tr.Delete(p); err != nil || !ok {
			t.Fatal(ok, err)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("Insert+Delete: %v allocs per pair, want 0", n)
	}
	// The same for a point that lives in the root's structure.
	top, ok, err := tr.MaxY()
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	cycle = func() {
		if ok, err := tr.Delete(top); err != nil || !ok {
			t.Fatal(ok, err)
		}
		if err := tr.Insert(top); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("Delete+Insert of the top point: %v allocs per pair, want 0", n)
	}
	// A point-sorted run of 64: 32 fresh points, each inserted and deleted
	// again. It splits nothing, and from the second run on every node
	// structure's buffer ends each run as it began.
	ops := make([]runOp, 0, 64)
	for _, p := range pts[4001:] {
		ops = append(ops, runOp{p: p}, runOp{del: true, p: p})
	}
	slices.SortStableFunc(ops, func(a, b runOp) int { return a.p.Compare(b.p) })
	apply := func(r *Run) error {
		for _, op := range ops {
			if !op.del {
				if err := r.Insert(op.p); err != nil {
					return err
				}
			} else if ok, err := r.Delete(op.p); err != nil || !ok {
				return fmt.Errorf("delete %v: %v, %v", op.p, ok, err)
			}
		}
		return nil
	}
	cycle = func() {
		if err := tr.Run(apply); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	pages := store.Stats().Allocs
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a run of 64: %v allocs per run, want 0", n)
	}
	if a := store.Stats().Allocs; a != pages {
		t.Errorf("the runs allocated %d pages; they were meant to split nothing", a-pages)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
