package smallstruct

import (
	"fmt"
	"math/rand"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/eio/eiotest"
	"rangesearch/internal/geom"
	"rangesearch/internal/sweep"
)

// TestOpenFailsFast: Open reads the catalog, so an id that is out of
// range, freed, or names a page that is no catalog fails at Open — and the
// read is not wasted: the handle's first operation works from it.
func TestOpenFailsFast(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	store := eio.NewMemStore(256)
	s, err := Create(store, 2, distinctPoints(rng, 200, 1000))
	if err != nil {
		t.Fatal(err)
	}
	// An index block read as a record chain: next page 0, length 5.
	blockPage, err := eio.WritePointBlock(store, eio.NilPage, []geom.Point{{X: 0, Y: 5}, {X: 7, Y: 7}})
	if err != nil {
		t.Fatal(err)
	}
	freed, err := store.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Free(freed); err != nil {
		t.Fatal(err)
	}
	for name, id := range map[string]eio.PageID{"out of range": 12345, "a block page": blockPage, "a freed page": freed, "nil": eio.NilPage} {
		if _, err := Open(store, id, 2); err == nil {
			t.Errorf("Open of %s (id %d) succeeded", name, id)
		}
	}

	pages, err := s.CatalogPages()
	if err != nil {
		t.Fatal(err)
	}
	store.ResetStats()
	s2, err := Open(store, s.CatalogID(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s2.Len(); err != nil || n != 200 {
		t.Fatalf("Len = %d, %v", n, err)
	}
	if r := int(store.Stats().Reads); r != pages {
		t.Errorf("Open and the first operation read %d pages, want the catalog's %d once", r, pages)
	}
	if _, err := s2.Len(); err != nil {
		t.Fatal(err)
	}
	if r := int(store.Stats().Reads); r != 2*pages {
		t.Errorf("the second operation brought the total to %d reads, want %d (it loads the catalog itself)", r, 2*pages)
	}
}

// TestOpenScratchDanglingID: OpenScratch is lazy — it reads nothing, hands
// back a handle for any id, and the dangling id surfaces as the error of
// the first operation that needs the catalog.
func TestOpenScratchDanglingID(t *testing.T) {
	store := eio.NewMemStore(256)
	if _, err := Create(store, 2, []geom.Point{{X: 1, Y: 1}}); err != nil {
		t.Fatal(err)
	}
	store.ResetStats()
	var sc Scratch
	for _, id := range []eio.PageID{12345, eio.NilPage} {
		s := OpenScratch(store, id, 2, &sc)
		if st := store.Stats(); st.IOs() != 0 {
			t.Fatalf("OpenScratch(%d) performed %d I/Os", id, st.IOs())
		}
		if _, err := s.Query3(nil, geom.Query3{XLo: 0, XHi: 10, YLo: 0}); err == nil {
			t.Errorf("Query3 on dangling id %d succeeded", id)
		}
		if err := s.Insert(geom.Point{X: 2, Y: 2}); err == nil {
			t.Errorf("Insert on dangling id %d succeeded", id)
		}
		if err := s.Add(geom.Point{X: 2, Y: 2}); err == nil {
			t.Errorf("Add on dangling id %d succeeded", id)
		}
	}
}

// TestScratchHoldsCatalog: consecutive operations on one structure through
// one Scratch read the catalog once; another structure, a Reset, or a
// Destroy in between make the next operation read it again.
func TestScratchHoldsCatalog(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	store := eio.NewMemStore(256)
	pts := distinctPoints(rng, 300, 1000)
	a, err := Create(store, 2, pts[:200])
	if err != nil {
		t.Fatal(err)
	}
	b, err := Create(store, 2, pts[200:])
	if err != nil {
		t.Fatal(err)
	}
	pagesA, _ := a.CatalogPages()
	var sc Scratch
	ha := OpenScratch(store, a.CatalogID(), 2, &sc)
	hb := OpenScratch(store, b.CatalogID(), 2, &sc)
	reads := func(f func()) int {
		store.ResetStats()
		f()
		return int(store.Stats().Reads)
	}
	mustLen := func(h *Struct) {
		if _, err := h.Len(); err != nil {
			t.Fatal(err)
		}
	}
	if r := reads(func() { mustLen(&ha); mustLen(&ha) }); r != pagesA {
		t.Errorf("two operations on one structure: %d reads, want %d", r, pagesA)
	}
	// A write keeps the Scratch current: no read before, none after.
	if r := reads(func() {
		if err := ha.Add(geom.Point{X: 5000, Y: 5000}); err != nil {
			t.Fatal(err)
		}
		mustLen(&ha)
	}); r != 0 {
		t.Errorf("Add then Len on the structure the Scratch holds: %d reads, want 0", r)
	}
	if n, _ := ha.Len(); n != 201 {
		t.Errorf("Len after Add = %d", n)
	}
	mustLen(&hb)
	if r := reads(func() { mustLen(&ha) }); r != pagesA {
		t.Errorf("after another structure used the Scratch: %d reads, want %d", r, pagesA)
	}
	sc.Reset()
	if r := reads(func() { mustLen(&ha) }); r != pagesA {
		t.Errorf("after Reset: %d reads, want %d", r, pagesA)
	}
	if err := ha.Destroy(); err != nil {
		t.Fatal(err)
	}
	if _, err := ha.Len(); err == nil {
		t.Error("Len on a destroyed structure answered from the Scratch")
	}
}

// TestRebuildMatchesSweepBuild: after 128 mixed buffered updates — fresh
// insertions, deletions of base points, reinsertions of deleted points and
// deletions of buffered ones — the rebuilt catalog and blocks on disk are
// exactly the scheme sweep.Build (sort, then the same construction; itself
// held to the sorting reference in package sweep) makes of the live set:
// same blocks in the same order, same points in the same order, same
// metadata. The merge rebuild is a faster way to the same bytes.
func TestRebuildMatchesSweepBuild(t *testing.T) {
	for _, c := range []struct {
		pageSize, n, alpha int
		coord              int64
	}{
		{256, 256, 2, 40},         // B = 16, B² points, x and y repeat heavily
		{256, 150, 3, 1 << 20},    // partial last block
		{4096, 8344, 2, 1 << 30},  // B = 256, the root structure of the benchmark
		{4096, 8344 / 4, 4, 3000}, // B = 256, repeated coordinates
	} {
		t.Run(fmt.Sprintf("B=%d/n=%d/alpha=%d", c.pageSize/16, c.n, c.alpha), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.n)))
			store := eio.NewMemStore(c.pageSize)
			pts := distinctPoints(rng, c.n+64, c.coord)
			base, fresh := pts[:c.n], pts[c.n:]
			s, err := Create(store, c.alpha, base)
			if err != nil {
				t.Fatal(err)
			}
			s.SetBufferCap(129) // the 129th buffered update would rebuild; we force it after 128
			live := model{}
			for _, p := range base {
				live[p] = true
			}
			for i := 0; i < 128; i++ {
				switch {
				case i%4 == 0: // fresh insertion
					p := fresh[i/4]
					if err := s.Insert(p); err != nil {
						t.Fatal(err)
					}
					live[p] = true
				case i%4 == 3 && i%8 == 3: // delete what was just inserted: leaves the buffer
					p := fresh[i/4]
					if ok, err := s.Delete(p); err != nil || !ok {
						t.Fatal(ok, err)
					}
					delete(live, p)
				case i%4 == 3: // reinsert a tombstoned base point: cancels the tombstone
					p := base[i-2]
					if err := s.Insert(p); err != nil {
						t.Fatal(err)
					}
					live[p] = true
				default: // tombstone a base point
					p := base[i]
					if ok, err := s.Delete(p); err != nil || !ok {
						t.Fatalf("delete %v: %v, %v", p, ok, err)
					}
					delete(live, p)
				}
			}
			if err := s.Rebuild(); err != nil {
				t.Fatal(err)
			}

			var set []geom.Point
			for p := range live {
				set = append(set, p)
			}
			want, err := sweep.Build(set, s.B(), c.alpha)
			if err != nil {
				t.Fatal(err)
			}
			var sc Scratch
			view, err := s.loadCatalog(&sc)
			if err != nil {
				t.Fatal(err)
			}
			if view.ni != 0 || view.nd != 0 {
				t.Fatalf("rebuilt catalog still buffers %d insertions, %d tombstones", view.ni, view.nd)
			}
			i := 0
			for _, wb := range want.Blocks() {
				if len(wb.Points) == 0 {
					continue
				}
				if i >= view.nb {
					t.Fatalf("catalog has %d blocks, the scheme has more", view.nb)
				}
				m := view.block(i)
				if int(m.count) != len(wb.Points) || m.initial != wb.Initial || m.xlo != wb.XLo || m.xhi != wb.XHi ||
					m.yact != wb.YAct || m.retiredAt != wb.RetiredAt || (wb.RetiredAt && m.yret != wb.YRet) ||
					m.topY != wb.Points[len(wb.Points)-1].Y {
					t.Fatalf("block %d: catalog entry %+v, scheme block %+v (%d points)", i, m, wb, len(wb.Points))
				}
				got, err := eio.ReadPointBlock(nil, store, m.page, int(m.count), make([]byte, c.pageSize))
				if err != nil {
					t.Fatal(err)
				}
				if !equalPts(got, wb.Points) {
					t.Fatalf("block %d: contents differ from the scheme's", i)
				}
				i++
			}
			if i != view.nb {
				t.Fatalf("catalog has %d blocks, the scheme %d", view.nb, i)
			}
		})
	}
}

// TestUpdateAllocs: with a warm Scratch of its own (no pool in the way) a
// buffered Insert, Delete, Add, Remove or Swap allocates nothing, and a
// rebuild of the benchmark's 8 344-point root structure allocates a
// handful of objects (it took 9 807 when it sorted).
func TestUpdateAllocs(t *testing.T) {
	if !eiotest.PoolsRecycle() {
		t.Skip("sync.Pool does not recycle on this build (race detector): record and block writes borrow their page buffer from one")
	}
	rng := rand.New(rand.NewSource(13))
	store := eio.NewMemStore(4096) // B = 256
	pts := distinctPoints(rng, 8344+2, 1<<30)
	created, err := Create(store, 2, pts[:8344])
	if err != nil {
		t.Fatal(err)
	}
	var sc Scratch
	s := OpenScratch(store, created.CatalogID(), 2, &sc)
	p, q := pts[8344], pts[8345]
	// Every run leaves the buffer as it found it: the probing pair, then
	// the vouched pair, then a swap there and back.
	cycle := func() {
		if err := s.Insert(p); err != nil {
			t.Fatal(err)
		}
		if ok, err := s.Delete(p); err != nil || !ok {
			t.Fatal(ok, err)
		}
		if err := s.Add(q); err != nil {
			t.Fatal(err)
		}
		if err := s.Swap(p, q); err != nil {
			t.Fatal(err)
		}
		if err := s.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Errorf("buffered Insert+Delete+Add+Swap+Remove: %v allocs per cycle, want 0", n)
	}

	// Rebuilds, each over the full 8 344 points with a tombstone and an
	// insertion to merge in.
	i := 0
	churn := func() {
		if err := s.Remove(pts[i]); err != nil {
			t.Fatal(err)
		}
		if err := s.Add(pts[i]); err != nil { // cancels the tombstone
			t.Fatal(err)
		}
		if err := s.Add(p); err != nil {
			t.Fatal(err)
		}
		if err := s.Rebuild(); err != nil {
			t.Fatal(err)
		}
		if err := s.Remove(p); err != nil {
			t.Fatal(err)
		}
		i++
	}
	churn()
	churn()
	if n := testing.AllocsPerRun(10, churn); n > 8 {
		t.Errorf("rebuild of 8 344 points: %v allocs, want ≤ 8", n)
	}
	if n, err := s.Len(); err != nil || n != 8344 {
		t.Fatalf("Len = %d, %v", n, err)
	}
}
