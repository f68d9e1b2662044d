package epst

import (
	"math/rand"
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
		ys, err := tr.ySet(sc, &q, n, i)
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
// in store operations at height 1 and at height 2, B = 16. The numbers are
// exact and deterministic; a change that moves them is either a deliberate
// improvement — re-pin, and say why in EXPERIMENTS.md — or a regression
// caught here rather than in a benchmark weeks later. Before the
// single-descent update the same streams cost 40 668 + 12 358 (height 1,
// 26.51 per update against 12.87 now) and 56 890 + 15 327 (height 2, 36.11
// against 18.22) reads + writes.
func TestUpdateIOPinned(t *testing.T) {
	for _, c := range []struct {
		preload, height int
		reads, writes   uint64
	}{
		{50, 1, 14832, 10916},
		{200, 2, 22493, 13943},
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
		store.ResetStats()
		for op := 0; op < 2000; op++ {
			if op%2 == 0 {
				p := fresh[0]
				fresh = fresh[1:]
				live = append(live, p)
				if err := tr.Insert(p); err != nil {
					t.Fatal(err)
				}
				continue
			}
			j := rng.Intn(len(live))
			p := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			fresh = append(fresh, p)
			if ok, err := tr.Delete(p); err != nil || !ok {
				t.Fatal(ok, err)
			}
		}
		if h, _ := tr.Height(); h != c.height {
			t.Fatalf("the stream took the tree to height %d", h)
		}
		st := store.Stats()
		t.Logf("height %d: %d reads + %d writes over 2000 updates = %.2f I/Os per update", c.height, st.Reads, st.Writes, float64(st.IOs())/2000)
		if st.Reads != c.reads || st.Writes != c.writes {
			t.Errorf("height %d: 2000 updates cost %d reads and %d writes, pinned at %d and %d", c.height, st.Reads, st.Writes, c.reads, c.writes)
		}
	}
}

// TestUpdateAllocFree: a warm Insert or Delete that splits nothing
// allocates nothing — the path is decoded into recycled nodes, every record
// is written through the buffer it was read into, and the node structures
// work in the operation's scratch.
func TestUpdateAllocFree(t *testing.T) {
	if !eiotest.PoolsRecycle() {
		t.Skip("sync.Pool does not recycle on this build (race detector): the per-operation scratch is sometimes rebuilt")
	}
	rng := rand.New(rand.NewSource(19))
	store := eio.NewMemStore(1024) // B = 64
	pts := distinctPoints(rng, 4001, 1<<20)
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
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
