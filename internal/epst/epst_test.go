package epst

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/eio/eiotest"
	"rangesearch/internal/geom"
)

func distinctPoints(rng *rand.Rand, n int, coordRange int64) []geom.Point {
	seen := make(map[geom.Point]bool)
	var pts []geom.Point
	for len(pts) < n {
		p := geom.Point{X: rng.Int63n(coordRange), Y: rng.Int63n(coordRange)}
		if !seen[p] {
			seen[p] = true
			pts = append(pts, p)
		}
	}
	return pts
}

func sorted(pts []geom.Point) []geom.Point {
	out := append([]geom.Point(nil), pts...)
	geom.SortByX(out)
	return out
}

func equalPts(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func brute3(m map[geom.Point]bool, q geom.Query3) []geom.Point {
	var out []geom.Point
	for p := range m {
		if q.Contains(p) {
			out = append(out, p)
		}
	}
	geom.SortByX(out)
	return out
}

func checkQuery(t *testing.T, tr *Tree, m map[geom.Point]bool, q geom.Query3) {
	t.Helper()
	got, err := tr.Query3(nil, q)
	if err != nil {
		t.Fatalf("query %v: %v", q, err)
	}
	want := brute3(m, q)
	if !equalPts(sorted(got), want) {
		t.Fatalf("query %v: got %d points, want %d", q, len(got), len(want))
	}
}

func TestBuildEmpty(t *testing.T) {
	store := eio.NewMemStore(128)
	tr, err := Create(store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.Query3(nil, geom.Query3{XLo: geom.MinCoord, XHi: geom.MaxCoord, YLo: geom.MinCoord})
	if err != nil || len(got) != 0 {
		t.Fatalf("query on empty: %v, %v", got, err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := tr.MaxY(); err != nil || ok {
		t.Fatalf("MaxY on empty: %v %v", ok, err)
	}
}

func TestBulkBuildAndQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 5, 50, 500, 3000} {
		store := eio.NewMemStore(128) // B = 8
		pts := distinctPoints(rng, n, 2000)
		tr, err := Build(store, Options{A: 2, K: 4}, pts)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		m := map[geom.Point]bool{}
		for _, p := range pts {
			m[p] = true
		}
		for trial := 0; trial < 60; trial++ {
			a := rng.Int63n(2000)
			b := a + rng.Int63n(2000-a+1)
			c := rng.Int63n(2000)
			checkQuery(t, tr, m, geom.Query3{XLo: a, XHi: b, YLo: c})
		}
		// Degenerate queries.
		checkQuery(t, tr, m, geom.Query3{XLo: geom.MinCoord, XHi: geom.MaxCoord, YLo: geom.MinCoord})
		checkQuery(t, tr, m, geom.Query3{XLo: 100, XHi: 50, YLo: 0})
	}
}

func TestBuildRejectsDuplicates(t *testing.T) {
	store := eio.NewMemStore(128)
	_, err := Build(store, Options{}, []geom.Point{{X: 1, Y: 2}, {X: 1, Y: 2}})
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("expected ErrDuplicate, got %v", err)
	}
}

func TestInsertIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	store := eio.NewMemStore(128) // B = 8
	tr, err := Create(store, Options{A: 2, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := map[geom.Point]bool{}
	pts := distinctPoints(rng, 1200, 3000)
	for i, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatalf("insert %d (%v): %v", i, p, err)
		}
		m[p] = true
		if i%150 == 149 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
			for trial := 0; trial < 10; trial++ {
				a := rng.Int63n(3000)
				b := a + rng.Int63n(3000-a+1)
				c := rng.Int63n(3000)
				checkQuery(t, tr, m, geom.Query3{XLo: a, XHi: b, YLo: c})
			}
		}
	}
	if err := tr.Insert(pts[0]); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate insert: %v", err)
	}
	n, err := tr.Len()
	if err != nil || n != len(pts) {
		t.Fatalf("Len = %d, %v", n, err)
	}
}

func TestDeleteIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	store := eio.NewMemStore(128)
	pts := distinctPoints(rng, 800, 2000)
	tr, err := Build(store, Options{A: 2, K: 4}, pts)
	if err != nil {
		t.Fatal(err)
	}
	m := map[geom.Point]bool{}
	for _, p := range pts {
		m[p] = true
	}
	perm := rng.Perm(len(pts))
	for i, pi := range perm {
		found, err := tr.Delete(pts[pi])
		if err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		if !found {
			t.Fatalf("delete %d: %v not found", i, pts[pi])
		}
		delete(m, pts[pi])
		if i%100 == 99 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", i+1, err)
			}
			for trial := 0; trial < 8; trial++ {
				a := rng.Int63n(2000)
				b := a + rng.Int63n(2000-a+1)
				c := rng.Int63n(2000)
				checkQuery(t, tr, m, geom.Query3{XLo: a, XHi: b, YLo: c})
			}
		}
	}
	n, err := tr.Len()
	if err != nil || n != 0 {
		t.Fatalf("Len after deleting everything = %d, %v", n, err)
	}
	// Deleting from empty.
	found, err := tr.Delete(pts[0])
	if err != nil || found {
		t.Fatalf("delete from empty: %v %v", found, err)
	}
}

func TestMixedWorkloadAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	store := eio.NewMemStore(128)
	tr, err := Create(store, Options{A: 2, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := map[geom.Point]bool{}
	universe := distinctPoints(rng, 600, 1500)
	for op := 0; op < 5000; op++ {
		p := universe[rng.Intn(len(universe))]
		switch rng.Intn(3) {
		case 0, 1:
			err := tr.Insert(p)
			if m[p] {
				if !errors.Is(err, ErrDuplicate) {
					t.Fatalf("op %d: expected duplicate, got %v", op, err)
				}
			} else if err != nil {
				t.Fatalf("op %d: insert: %v", op, err)
			}
			m[p] = true
		case 2:
			found, err := tr.Delete(p)
			if err != nil {
				t.Fatalf("op %d: delete: %v", op, err)
			}
			if found != m[p] {
				t.Fatalf("op %d: delete %v: found=%v want=%v", op, p, found, m[p])
			}
			delete(m, p)
		}
		if op%433 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
		if op%101 == 0 {
			a := rng.Int63n(1500)
			b := a + rng.Int63n(1500-a+1)
			c := rng.Int63n(1500)
			checkQuery(t, tr, m, geom.Query3{XLo: a, XHi: b, YLo: c})
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateXCoordinates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	store := eio.NewMemStore(128)
	tr, err := Create(store, Options{A: 2, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Only 5 distinct x values over many points.
	m := map[geom.Point]bool{}
	for len(m) < 400 {
		p := geom.Point{X: rng.Int63n(5), Y: rng.Int63n(10000)}
		if m[p] {
			continue
		}
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
		m[p] = true
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		a := rng.Int63n(6)
		b := a + rng.Int63n(6-a)
		c := rng.Int63n(10000)
		checkQuery(t, tr, m, geom.Query3{XLo: a, XHi: b, YLo: c})
	}
	// Delete half, re-check.
	i := 0
	for p := range m {
		if i%2 == 0 {
			if _, err := tr.Delete(p); err != nil {
				t.Fatal(err)
			}
			delete(m, p)
		}
		i++
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkQuery(t, tr, m, geom.Query3{XLo: 0, XHi: 5, YLo: 0})
}

func TestMaxYTracksUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	store := eio.NewMemStore(128)
	tr, err := Create(store, Options{A: 2, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := map[geom.Point]bool{}
	universe := distinctPoints(rng, 200, 500)
	for op := 0; op < 1000; op++ {
		p := universe[rng.Intn(len(universe))]
		if rng.Intn(3) != 0 {
			if !m[p] {
				if err := tr.Insert(p); err != nil {
					t.Fatal(err)
				}
				m[p] = true
			}
		} else if m[p] {
			if _, err := tr.Delete(p); err != nil {
				t.Fatal(err)
			}
			delete(m, p)
		}
		if op%37 == 0 {
			got, ok, err := tr.MaxY()
			if err != nil {
				t.Fatal(err)
			}
			if len(m) == 0 {
				if ok {
					t.Fatalf("op %d: MaxY %v on empty", op, got)
				}
				continue
			}
			var want geom.Point
			first := true
			for p := range m {
				if first || want.YLess(p) {
					want, first = p, false
				}
			}
			if !ok || got != want {
				t.Fatalf("op %d: MaxY=%v ok=%v, want %v", op, got, ok, want)
			}
		}
	}
}

func TestGlobalRebuildShrinksHeight(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	store := eio.NewMemStore(128)
	pts := distinctPoints(rng, 2000, 1<<20)
	tr, err := Build(store, Options{A: 2, K: 4}, pts)
	if err != nil {
		t.Fatal(err)
	}
	tall, err := tr.Height()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[:1980] {
		if _, err := tr.Delete(p); err != nil {
			t.Fatal(err)
		}
	}
	short, err := tr.Height()
	if err != nil {
		t.Fatal(err)
	}
	if short >= tall {
		t.Errorf("height %d did not shrink from %d", short, tall)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	m := map[geom.Point]bool{}
	for _, p := range pts[1980:] {
		m[p] = true
	}
	checkQuery(t, tr, m, geom.Query3{XLo: geom.MinCoord, XHi: geom.MaxCoord, YLo: geom.MinCoord})
}

func TestOpenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	store := eio.NewMemStore(128)
	pts := distinctPoints(rng, 300, 1000)
	tr, err := Build(store, Options{A: 2, K: 4}, pts)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := Open(store, tr.HeaderID(), 0)
	if err != nil {
		t.Fatal(err)
	}
	a, k := tr2.Params()
	if a != 2 || k != 4 {
		t.Fatalf("params %d %d", a, k)
	}
	m := map[geom.Point]bool{}
	for _, p := range pts {
		m[p] = true
	}
	checkQuery(t, tr2, m, geom.Query3{XLo: 0, XHi: 1000, YLo: 500})
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	path := t.TempDir() + "/epst.db"
	fs, err := eio.CreateFileStore(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	pts := distinctPoints(rng, 500, 4000)
	tr, err := Build(fs, Options{}, pts)
	if err != nil {
		t.Fatal(err)
	}
	hdr := tr.HeaderID()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, err := eio.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	tr2, err := Open(fs2, hdr, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := map[geom.Point]bool{}
	for _, p := range pts {
		m[p] = true
	}
	checkQuery(t, tr2, m, geom.Query3{XLo: 1000, XHi: 3000, YLo: 2000})
	// And it remains updatable after reopen.
	if err := tr2.Insert(geom.Point{X: -7, Y: -7}); err != nil {
		t.Fatal(err)
	}
	if ok, err := tr2.Contains(geom.Point{X: -7, Y: -7}); err != nil || !ok {
		t.Fatalf("point lost after reopen+insert: %v %v", ok, err)
	}
}

func TestDestroyFreesEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	store := eio.NewMemStore(128)
	pts := distinctPoints(rng, 400, 1000)
	tr, err := Build(store, Options{A: 2, K: 4}, pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[:50] {
		if _, err := tr.Delete(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Destroy(); err != nil {
		t.Fatal(err)
	}
	if got := store.Pages(); got != 0 {
		t.Fatalf("%d pages leaked", got)
	}
}

// TestTheorem6QueryIO: query cost O(log_B N + T/B) measured in real page
// reads on a B=16 store.
func TestTheorem6QueryIO(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	store := eio.NewMemStore(256) // B = 16
	pts := distinctPoints(rng, 20000, 1<<30)
	tr, err := Build(store, Options{}, pts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tr.Height()
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 60; trial++ {
		a := rng.Int63n(1 << 30)
		b := a + rng.Int63n(1<<30-a+1)
		c := rng.Int63n(1 << 30)
		q := geom.Query3{XLo: a, XHi: b, YLo: c}
		store.ResetStats()
		got, err := tr.Query3(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		reads := int(store.Stats().Reads)
		tb := (len(got) + tr.B() - 1) / tr.B()
		// Per node visited: node record (≤2 pages) + catalog (few pages)
		// + covered blocks. Path nodes ≈ 2(h+1); interior visits ≤ 2t.
		limit := 30*(h+2) + 30*tb
		if reads > limit {
			t.Errorf("query %v: %d reads (h=%d, t=%d, limit %d)", q, reads, h, tb, limit)
		}
	}
}

// TestTheorem6Space: the structure occupies O(N/B) pages.
func TestTheorem6Space(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	store := eio.NewMemStore(256) // B = 16
	pts := distinctPoints(rng, 30000, 1<<30)
	tr, err := Build(store, Options{}, pts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := tr.Space()
	if err != nil {
		t.Fatal(err)
	}
	if f := st.BlocksPerPoint(); f > 8 {
		t.Errorf("space factor %.2f pages·B/points exceeds constant bound", f)
	}
}

// TestTheorem6UpdateIO: amortized update cost O(log_B N) in page I/Os.
func TestTheorem6UpdateIO(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	store := eio.NewMemStore(256) // B = 16
	pts := distinctPoints(rng, 8000, 1<<30)
	tr, err := Build(store, Options{}, pts[:4000])
	if err != nil {
		t.Fatal(err)
	}
	h, err := tr.Height()
	if err != nil {
		t.Fatal(err)
	}
	store.ResetStats()
	for _, p := range pts[4000:] {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	insertCost := float64(store.Stats().IOs()) / 4000
	store.ResetStats()
	for _, p := range pts[:4000] {
		if _, err := tr.Delete(p); err != nil {
			t.Fatal(err)
		}
	}
	deleteCost := float64(store.Stats().IOs()) / 4000
	// Loose constant: each level touches a node record and a small
	// structure catalog (several pages each).
	bound := float64((h + 2) * 60)
	if insertCost > bound {
		t.Errorf("amortized insert cost %.1f I/Os (h=%d)", insertCost, h)
	}
	if deleteCost > bound {
		t.Errorf("amortized delete cost %.1f I/Os (h=%d)", deleteCost, h)
	}
	_ = math.Log
}

func TestFaultPropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	mem := eio.NewMemStore(128)
	faulty := eio.NewFaultStore(mem)
	pts := distinctPoints(rng, 100, 500)
	tr, err := Build(faulty, Options{A: 2, K: 4}, pts)
	if err != nil {
		t.Fatal(err)
	}
	faulty.FailAfter(eio.OpRead, 3)
	_, err = tr.Query3(nil, geom.Query3{XLo: 0, XHi: 500, YLo: 0})
	if !errors.Is(err, eio.ErrInjected) {
		t.Fatalf("expected injected fault, got %v", err)
	}
	faulty.Disarm()
	if _, err := tr.Query3(nil, geom.Query3{XLo: 0, XHi: 500, YLo: 0}); err != nil {
		t.Fatalf("query after disarm: %v", err)
	}
}

func TestAllMatchesContents(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	store := eio.NewMemStore(128)
	pts := distinctPoints(rng, 250, 800)
	tr, err := Build(store, Options{A: 2, K: 4}, pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[:30] {
		if _, err := tr.Delete(p); err != nil {
			t.Fatal(err)
		}
	}
	all, err := tr.All()
	if err != nil {
		t.Fatal(err)
	}
	if !equalPts(sorted(all), sorted(pts[30:])) {
		t.Fatal("All() does not match live contents")
	}
}

// TestQuery3AllocFree: a warm query into a pre-sized dst allocates nothing
// regardless of how many pages it visits — node records and catalogs are
// read through views over the per-query scratch, points go from page
// buffers straight into dst. Contains, MaxY and Len ride the same path.
func TestQuery3AllocFree(t *testing.T) {
	if !eiotest.PoolsRecycle() {
		t.Skip("sync.Pool does not recycle on this build (race detector): the per-query scratch is sometimes rebuilt")
	}
	rng := rand.New(rand.NewSource(11))
	store := eio.NewMemStore(256) // B = 16: a tall tree, multi-page catalogs
	pts := distinctPoints(rng, 6000, 100000)
	tr, err := Build(store, Options{}, pts[:5000])
	if err != nil {
		t.Fatal(err)
	}
	// Leave the per-node update buffers non-empty, tombstones included.
	for _, p := range pts[5000:] {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	m := make(map[geom.Point]bool, len(pts))
	for _, p := range pts {
		m[p] = true
	}
	for _, p := range pts[:500] {
		if _, err := tr.Delete(p); err != nil {
			t.Fatal(err)
		}
		delete(m, p)
	}
	if h, err := tr.Height(); err != nil || h < 2 {
		t.Fatalf("height %d (%v); the guard wants a multi-level tree", h, err)
	}
	dst := make([]geom.Point, 0, len(pts))
	for _, q := range []geom.Query3{
		{XLo: 0, XHi: 100000, YLo: 0},         // the whole tree: every node
		{XLo: 20000, XHi: 60000, YLo: 70000},  // a wide slab
		{XLo: 31000, XHi: 31500, YLo: 0},      // a narrow column to the leaves
		{XLo: 99999, XHi: 100000, YLo: 99999}, // (nearly) nothing
	} {
		store.ResetStats()
		var got []geom.Point
		n := testing.AllocsPerRun(10, func() {
			var err error
			if got, err = tr.Query3(dst[:0], q); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Errorf("Query3(%v) reading %d pages per run: %v allocs/op, want 0", q, store.Stats().Reads/11, n)
		}
		if !equalPts(sorted(got), brute3(m, q)) {
			t.Errorf("Query3(%v) into a reused dst: wrong result (%d points)", q, len(got))
		}
	}
	probe := pts[2500]
	if n := testing.AllocsPerRun(20, func() {
		if ok, err := tr.Contains(probe); err != nil || !ok {
			t.Fatalf("Contains(%v) = %v, %v", probe, ok, err)
		}
		if _, ok, err := tr.MaxY(); err != nil || !ok {
			t.Fatalf("MaxY: %v, %v", ok, err)
		}
		if n, err := tr.Len(); err != nil || n != len(m) {
			t.Fatalf("Len = %d, %v; want %d", n, err, len(m))
		}
	}); n != 0 {
		t.Errorf("Contains+MaxY+Len: %v allocs/op, want 0", n)
	}
}

// TestWalkersHoldOneNodePerLevel: whole-tree walks (the rebuild's collect,
// free and fill passes, All, CheckInvariants, Profile, AppendAllPages) and
// the bubble-up recursion give their decoded nodes back as they return, so
// the scratch's high-water mark is the tree's height, not its node count.
func TestWalkersHoldOneNodePerLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	store := eio.NewMemStore(128)
	pts := distinctPoints(rng, 3000, 1<<20)
	tr, err := Build(store, Options{A: 2, K: 4}, pts)
	if err != nil {
		t.Fatal(err)
	}
	sc := new(scratch) // fresh, so len(sc.nodes) is this test's high-water mark
	m, err := tr.loadMeta(sc)
	if err != nil {
		t.Fatal(err)
	}
	if m.height < 5 {
		t.Fatalf("height %d; the guard wants a tall tree", m.height)
	}
	perLevel := m.height + 1
	var all []geom.Point
	if err := tr.collect(sc, m.root, &all); err != nil || len(all) != len(pts) {
		t.Fatalf("collect: %d points, %v", len(all), err)
	}
	if _, err := tr.check(sc, m.root, m.height); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.appendSubtree(sc, nil, m.root); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := tr.extractTop(sc, m.root); err != nil || !ok {
		t.Fatalf("extractTop: %v, %v", ok, err)
	}
	m.live--
	if err := tr.rebuild(sc, &m); err != nil {
		t.Fatal(err)
	}
	if sc.used != 0 {
		t.Errorf("walkers left %d nodes held", sc.used)
	}
	if len(sc.nodes) > perLevel {
		t.Errorf("walkers held %d decoded nodes at once on a tree of height %d, want ≤ %d", len(sc.nodes), m.height, perLevel)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n, err := tr.Len(); err != nil || n != len(pts)-1 {
		t.Fatalf("Len after rebuild = %d, %v", n, err)
	}
}
