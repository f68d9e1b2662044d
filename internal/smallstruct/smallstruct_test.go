package smallstruct

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/eio/eiotest"
	"rangesearch/internal/geom"
)

// model is a brute-force reference implementation.
type model map[geom.Point]bool

func (m model) query3(q geom.Query3) []geom.Point {
	var out []geom.Point
	for p := range m {
		if q.Contains(p) {
			out = append(out, p)
		}
	}
	geom.SortByX(out)
	return out
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

func TestCreateQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	store := eio.NewMemStore(128) // B = 8
	pts := distinctPoints(rng, 200, 500)
	s, err := Create(store, 2, pts)
	if err != nil {
		t.Fatal(err)
	}
	m := model{}
	for _, p := range pts {
		m[p] = true
	}
	for i := 0; i < 100; i++ {
		a := rng.Int63n(500)
		b := a + rng.Int63n(500-a+1)
		c := rng.Int63n(500)
		q := geom.Query3{XLo: a, XHi: b, YLo: c}
		got, err := s.Query3(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		if !equalPts(sorted(got), m.query3(q)) {
			t.Fatalf("query %v mismatch: got %d want %d", q, len(got), len(m.query3(q)))
		}
	}
}

func TestCreateRejectsDuplicates(t *testing.T) {
	store := eio.NewMemStore(128)
	_, err := Create(store, 2, []geom.Point{{X: 1, Y: 1}, {X: 1, Y: 1}})
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("expected ErrDuplicate, got %v", err)
	}
}

// TestCheckBlocksCatchesBrokenBlocks rewrites one index block the way the
// query's block scan must never meet it and expects the audit to say so.
func TestCheckBlocksCatchesBrokenBlocks(t *testing.T) {
	for name, spoil := range map[string]func(pts []geom.Point, m blockMeta){
		"descending y": func(pts []geom.Point, _ blockMeta) { slices.Reverse(pts) },
		"x outside":    func(pts []geom.Point, m blockMeta) { pts[0].X = m.xhi + 1 },
		"stale topY":   func(pts []geom.Point, _ blockMeta) { pts[len(pts)-1].Y++ },
	} {
		t.Run(name, func(t *testing.T) {
			store := eio.NewMemStore(128) // B = 8
			s, err := Create(store, 2, distinctPoints(rand.New(rand.NewSource(3)), 200, 500))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.CheckBlocks(); err != nil {
				t.Fatalf("fresh structure: %v", err)
			}
			var sc Scratch
			cat, err := s.loadCatalog(&sc)
			if err != nil {
				t.Fatal(err)
			}
			m := cat.block(0)
			pts, err := eio.ReadPointBlock(nil, store, m.page, int(m.count), make([]byte, 128))
			if err != nil {
				t.Fatal(err)
			}
			spoil(pts, m)
			if _, err := eio.WritePointBlock(store, m.page, pts); err != nil {
				t.Fatal(err)
			}
			if err := s.CheckBlocks(); err == nil {
				t.Fatal("the audit passed a spoiled block")
			}
		})
	}
}

func TestDynamicAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	store := eio.NewMemStore(128) // B = 8
	s, err := Create(store, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := model{}
	universe := distinctPoints(rng, 300, 400)

	for op := 0; op < 3000; op++ {
		p := universe[rng.Intn(len(universe))]
		switch rng.Intn(3) {
		case 0, 1: // insert
			err := s.Insert(p)
			if m[p] {
				if !errors.Is(err, ErrDuplicate) {
					t.Fatalf("op %d: duplicate insert of %v: err=%v", op, p, err)
				}
			} else {
				if err != nil {
					t.Fatalf("op %d: insert %v: %v", op, p, err)
				}
				m[p] = true
			}
		case 2: // delete
			found, err := s.Delete(p)
			if err != nil {
				t.Fatalf("op %d: delete %v: %v", op, p, err)
			}
			if found != m[p] {
				t.Fatalf("op %d: delete %v: found=%v want %v", op, p, found, m[p])
			}
			delete(m, p)
		}
		if op%97 == 0 {
			a := rng.Int63n(400)
			b := a + rng.Int63n(400-a+1)
			c := rng.Int63n(400)
			q := geom.Query3{XLo: a, XHi: b, YLo: c}
			got, err := s.Query3(nil, q)
			if err != nil {
				t.Fatal(err)
			}
			if !equalPts(sorted(got), m.query3(q)) {
				t.Fatalf("op %d: query %v mismatch", op, q)
			}
			n, err := s.Len()
			if err != nil {
				t.Fatal(err)
			}
			if n != len(m) {
				t.Fatalf("op %d: Len=%d want %d", op, n, len(m))
			}
		}
	}
}

func TestMaxY(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	store := eio.NewMemStore(128)
	s, err := Create(store, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := model{}
	universe := distinctPoints(rng, 150, 250)
	check := func(op int) {
		got, ok, err := s.MaxY()
		if err != nil {
			t.Fatal(err)
		}
		if len(m) == 0 {
			if ok {
				t.Fatalf("op %d: MaxY found %v in empty structure", op, got)
			}
			return
		}
		var want geom.Point
		first := true
		for p := range m {
			if first || p.Y > want.Y || (p.Y == want.Y && p.X > want.X) {
				want, first = p, false
			}
		}
		if !ok || got != want {
			t.Fatalf("op %d: MaxY=%v,%v want %v", op, got, ok, want)
		}
	}
	for op := 0; op < 1500; op++ {
		p := universe[rng.Intn(len(universe))]
		if rng.Intn(3) != 0 {
			if !m[p] {
				if err := s.Insert(p); err != nil {
					t.Fatal(err)
				}
				m[p] = true
			}
		} else {
			if _, err := s.Delete(p); err != nil {
				t.Fatal(err)
			}
			delete(m, p)
		}
		if op%31 == 0 {
			check(op)
		}
	}
	check(-1)
}

func TestAllAndContains(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	store := eio.NewMemStore(128)
	pts := distinctPoints(rng, 100, 1000)
	s, err := Create(store, 2, pts)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate: delete 20, insert 10 fresh.
	for _, p := range pts[:20] {
		if _, err := s.Delete(p); err != nil {
			t.Fatal(err)
		}
	}
	fresh := distinctPoints(rng, 200, 1000)
	live := map[geom.Point]bool{}
	for _, p := range pts[20:] {
		live[p] = true
	}
	added := 0
	for _, p := range fresh {
		if live[p] {
			continue
		}
		if err := s.Insert(p); err != nil {
			t.Fatal(err)
		}
		live[p] = true
		if added++; added == 10 {
			break
		}
	}
	all, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(live) {
		t.Fatalf("All returned %d points, want %d", len(all), len(live))
	}
	for _, p := range all {
		if !live[p] {
			t.Fatalf("All returned dead point %v", p)
		}
	}
	ok, err := s.Contains(all[0])
	if err != nil || !ok {
		t.Fatalf("Contains(%v) = %v, %v", all[0], ok, err)
	}
	ok, err = s.Contains(pts[0]) // deleted
	if err != nil || ok {
		t.Fatalf("Contains(deleted) = %v, %v", ok, err)
	}
}

func TestOpenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	store := eio.NewMemStore(128)
	pts := distinctPoints(rng, 60, 100)
	s, err := Create(store, 2, pts)
	if err != nil {
		t.Fatal(err)
	}
	id := s.CatalogID()

	s2, err := Open(store, id, 2)
	if err != nil {
		t.Fatal(err)
	}
	all, err := s2.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(pts) {
		t.Fatalf("reopened structure has %d points, want %d", len(all), len(pts))
	}
	if _, err := Open(store, eio.PageID(12345), 2); err == nil {
		t.Fatal("Open of bogus catalog id succeeded")
	}
}

// TestLemma1IOBounds verifies the headline costs of Lemma 1 on a B²-point
// structure: O(B) blocks of space, O(1) catalog pages, queries in O(t+1)
// I/Os after the catalog read.
func TestLemma1IOBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	store := eio.NewMemStore(256) // B = 16
	b := 16
	n := b * b
	pts := distinctPoints(rng, n, 4096)
	s, err := Create(store, 2, pts)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := s.Blocks()
	if err != nil {
		t.Fatal(err)
	}
	if maxBlocks := 2 * (n/b + 1); blocks > maxBlocks { // r ≤ 1+1/(α−1) = 2
		t.Errorf("structure uses %d blocks for %d points (limit %d)", blocks, n, maxBlocks)
	}
	catPages, err := s.CatalogPages()
	if err != nil {
		t.Fatal(err)
	}
	// Catalog: ~56 bytes per block entry over 256-byte pages → ≈ blocks/4.
	if catPages > blocks/2+2 {
		t.Errorf("catalog occupies %d pages for %d blocks", catPages, blocks)
	}

	// Query I/O: reads = catalog pages + covered blocks ≤ cat + α²t+α+1.
	for i := 0; i < 100; i++ {
		a := rng.Int63n(4096)
		bb := a + rng.Int63n(4096-a+1)
		c := rng.Int63n(4096)
		q := geom.Query3{XLo: a, XHi: bb, YLo: c}
		store.ResetStats()
		got, err := s.Query3(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		reads := int(store.Stats().Reads)
		tb := (len(got) + b - 1) / b
		if limit := catPages + 4*tb + 3; reads > limit {
			t.Errorf("query %v: %d reads for t=%d (limit %d)", q, reads, tb, limit)
		}
	}
}

// TestAmortizedUpdateCost checks the O(1) amortized update bound: total
// I/Os over many updates divided by the update count stays bounded.
func TestAmortizedUpdateCost(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	store := eio.NewMemStore(256) // B = 16
	s, err := Create(store, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	store.ResetStats()
	const ops = 2000
	universe := distinctPoints(rng, 256, 10000)
	live := map[geom.Point]bool{}
	for op := 0; op < ops; op++ {
		p := universe[rng.Intn(len(universe))]
		if !live[p] {
			if err := s.Insert(p); err != nil {
				t.Fatal(err)
			}
			live[p] = true
		} else {
			if _, err := s.Delete(p); err != nil {
				t.Fatal(err)
			}
			delete(live, p)
		}
	}
	perOp := float64(store.Stats().IOs()) / ops
	// Catalog record is several pages (n ≈ 256 = B² points → ~2 pages of
	// metadata + 1 buffer page); each op reads+writes it, plus amortized
	// rebuild traffic. A generous constant bound:
	if perOp > 40 {
		t.Errorf("amortized update cost %.1f I/Os exceeds constant bound", perOp)
	}
}

func TestDestroyFreesEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	store := eio.NewMemStore(128)
	pts := distinctPoints(rng, 120, 300)
	s, err := Create(store, 2, pts)
	if err != nil {
		t.Fatal(err)
	}
	// Churn to create buffer state.
	for _, p := range pts[:10] {
		if _, err := s.Delete(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Destroy(); err != nil {
		t.Fatal(err)
	}
	if got := store.Pages(); got != 0 {
		t.Fatalf("%d pages leaked after Destroy", got)
	}
}

func TestRebuildPreservesContents(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	store := eio.NewMemStore(128)
	pts := distinctPoints(rng, 90, 200)
	s, err := Create(store, 2, pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[:5] {
		if _, err := s.Delete(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	all, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]geom.Point(nil), pts[5:]...)
	geom.SortByX(want)
	geom.SortByX(all)
	if !equalPts(all, want) {
		t.Fatal("rebuild changed contents")
	}
}

func TestQueryOrderIndependence(t *testing.T) {
	// Same point set inserted in different orders yields the same query
	// results (a functional-correctness property).
	rng := rand.New(rand.NewSource(55))
	pts := distinctPoints(rng, 64, 100)
	build := func(order []geom.Point) *Struct {
		store := eio.NewMemStore(128)
		s, err := Create(store, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range order {
			if err := s.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	s1 := build(pts)
	shuffled := append([]geom.Point(nil), pts...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	s2 := build(shuffled)
	for i := 0; i < 50; i++ {
		a := rng.Int63n(100)
		b := a + rng.Int63n(100-a+1)
		c := rng.Int63n(100)
		q := geom.Query3{XLo: a, XHi: b, YLo: c}
		g1, err := s1.Query3(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := s2.Query3(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		if !equalPts(sorted(g1), sorted(g2)) {
			t.Fatalf("query %v differs across insertion orders", q)
		}
	}
}

func TestFaultPropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	mem := eio.NewMemStore(128)
	faulty := eio.NewFaultStore(mem, eio.Fail, 0)
	pts := distinctPoints(rng, 50, 100)
	s, err := Create(faulty, 2, pts)
	if err != nil {
		t.Fatal(err)
	}
	faulty.Arm(2) // a query only reads
	_, err = s.Query3(nil, geom.Query3{XLo: 0, XHi: 100, YLo: 0})
	if !errors.Is(err, eio.ErrInjected) {
		t.Fatalf("expected injected fault to surface, got %v", err)
	}
	if _, err := s.Query3(nil, geom.Query3{XLo: 0, XHi: 100, YLo: 0}); err != nil {
		t.Fatalf("query after the one-shot fault: %v", err)
	}
}

func TestSortStability(t *testing.T) {
	// Guard: sort.Search contract used elsewhere assumes x-sorted blocks.
	pts := []geom.Point{{X: 3, Y: 1}, {X: 1, Y: 2}, {X: 2, Y: 0}}
	geom.SortByX(pts)
	if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].Less(pts[j]) }) {
		t.Fatal("not sorted")
	}
}

// TestQuery3AllocFree: a warm query into a pre-sized dst allocates nothing,
// however many catalog pages and blocks it visits and whatever sits in the
// update buffers — the catalog is read through a view, blocks are filtered
// from the scratch page straight into dst.
func TestQuery3AllocFree(t *testing.T) {
	if !eiotest.PoolsRecycle() {
		t.Skip("sync.Pool does not recycle on this build (race detector): the per-query scratch is sometimes rebuilt")
	}
	rng := rand.New(rand.NewSource(7))
	store := eio.NewMemStore(256) // B = 16
	pts := distinctPoints(rng, 1500, 4000)
	s, err := Create(store, 2, pts[:1400])
	if err != nil {
		t.Fatal(err)
	}
	s.SetBufferCap(1 << 20) // keep the buffered updates buffered
	for _, p := range pts[1400:] {
		if err := s.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range pts[:60] {
		if _, err := s.Delete(p); err != nil {
			t.Fatal(err)
		}
	}
	if pages, err := s.CatalogPages(); err != nil || pages < 3 {
		t.Fatalf("catalog occupies %d pages (%v); the guard wants a multi-page catalog", pages, err)
	}
	dst := make([]geom.Point, 0, len(pts))
	for _, q := range []geom.Query3{
		{XLo: 0, XHi: 4000, YLo: 0},       // everything: every block
		{XLo: 1000, XHi: 1400, YLo: 2000}, // a corner
		{XLo: 5, XHi: 5, YLo: 5},          // a probe
	} {
		store.ResetStats()
		var got []geom.Point
		n := testing.AllocsPerRun(20, func() {
			var err error
			if got, err = s.Query3(dst[:0], q); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Errorf("Query3(%v) reading %d pages per run: %v allocs/op, want 0",
				q, store.Stats().Reads/21, n)
		}
		want := 0
		for _, p := range pts[60:] {
			if q.Contains(p) {
				want++
			}
		}
		if len(got) != want {
			t.Errorf("Query3(%v) reported %d points, want %d", q, len(got), want)
		}
	}
}
