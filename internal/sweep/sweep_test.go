package sweep

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"rangesearch/internal/geom"
)

// brute3 returns the points of pts satisfying q.
func brute3(pts []geom.Point, q geom.Query3) []geom.Point {
	var out []geom.Point
	for _, p := range pts {
		if q.Contains(p) {
			out = append(out, p)
		}
	}
	geom.SortByX(out)
	return out
}

func randPoints(rng *rand.Rand, n int, coordRange int64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Int63n(coordRange), Y: rng.Int63n(coordRange)}
	}
	return pts
}

func checkQueries(t *testing.T, s *Scheme, pts []geom.Point, rng *rand.Rand, coordRange int64, trials int) {
	t.Helper()
	for i := 0; i < trials; i++ {
		a := rng.Int63n(coordRange)
		b := a + rng.Int63n(coordRange-a+1)
		c := rng.Int63n(coordRange)
		q := geom.Query3{XLo: a, XHi: b, YLo: c}
		got, _ := s.Query3(nil, q)
		geom.SortByX(got)
		want := brute3(pts, q)
		if len(got) != len(want) {
			t.Fatalf("query %v: got %d points, want %d", q, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("query %v: point %d: got %v want %v", q, j, got[j], want[j])
			}
		}
	}
}

func TestBuildEmpty(t *testing.T) {
	s, err := Build(nil, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumBlocks() != 0 {
		t.Fatalf("empty scheme has %d blocks", s.NumBlocks())
	}
	got, nb := s.Query3(nil, geom.Query3{XLo: 0, XHi: 10, YLo: 0})
	if len(got) != 0 || nb != 0 {
		t.Fatalf("query on empty scheme returned %d points, %d blocks", len(got), nb)
	}
}

func TestBuildRejectsBadParams(t *testing.T) {
	if _, err := Build(nil, 1, 2); err == nil {
		t.Error("B=1 accepted")
	}
	if _, err := Build(nil, 4, 1); err == nil {
		t.Error("alpha=1 accepted")
	}
}

func TestQueryCorrectnessRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 7, 64, 500, 2000} {
		for _, b := range []int{4, 16} {
			for _, alpha := range []int{2, 3, 4} {
				pts := randPoints(rng, n, 1000)
				s, err := Build(pts, b, alpha)
				if err != nil {
					t.Fatal(err)
				}
				checkQueries(t, s, pts, rng, 1000, 50)
			}
		}
	}
}

func TestQueryCorrectnessDuplicateX(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Many duplicate x-coordinates (only 10 distinct x values).
	pts := make([]geom.Point, 800)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Int63n(10), Y: rng.Int63n(500)}
	}
	s, err := Build(pts, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkQueries(t, s, pts, rng, 500, 100)
}

func TestQueryDegenerate(t *testing.T) {
	pts := []geom.Point{{X: 5, Y: 5}, {X: 5, Y: 6}, {X: 6, Y: 5}}
	s, err := Build(pts, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Full-range query.
	got, _ := s.Query3(nil, geom.Query3{XLo: geom.MinCoord, XHi: geom.MaxCoord, YLo: geom.MinCoord})
	if len(got) != 3 {
		t.Fatalf("full query returned %d points", len(got))
	}
	// Empty x-range.
	got, _ = s.Query3(nil, geom.Query3{XLo: 10, XHi: 5, YLo: 0})
	if len(got) != 0 {
		t.Fatalf("empty-range query returned %d points", len(got))
	}
	// Threshold above all points.
	got, nb := s.Query3(nil, geom.Query3{XLo: 0, XHi: 10, YLo: 100})
	if len(got) != 0 || nb != 0 {
		t.Fatalf("above-max query returned %d points via %d blocks", len(got), nb)
	}
}

func TestRedundancyBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, alpha := range []int{2, 3, 5, 8} {
		pts := randPoints(rng, 4000, 100000)
		s, err := Build(pts, 16, alpha)
		if err != nil {
			t.Fatal(err)
		}
		bound := 1 + 1/float64(alpha-1)
		// The paper's bound counts blocks against full occupancy; the final
		// (short) initial block adds at most one extra block. Allow that.
		slack := float64(s.B()) / float64(s.NumPoints())
		if r := s.Redundancy(); r > bound+slack+1e-9 {
			t.Errorf("alpha=%d: redundancy %.4f exceeds bound %.4f", alpha, r, bound)
		}
	}
}

func TestAccessOverheadBound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := randPoints(rng, 3000, 10000)
	b, alpha := 16, 2
	s, err := Build(pts, b, alpha)
	if err != nil {
		t.Fatal(err)
	}
	// k blocks read must satisfy k ≤ α²t + α + 1 (Section 2.2.1).
	for i := 0; i < 300; i++ {
		a := rng.Int63n(10000)
		bb := a + rng.Int63n(10000-a+1)
		c := rng.Int63n(10000)
		q := geom.Query3{XLo: a, XHi: bb, YLo: c}
		got, k := s.Query3(nil, q)
		tBlocks := (len(got) + b - 1) / b
		if limit := alpha*alpha*tBlocks + alpha + 1; k > limit {
			t.Errorf("query %v: read %d blocks for t=%d (limit %d)", q, k, tBlocks, limit)
		}
	}
}

// TestInvariantEveryLivePointCoveredOnce checks the core scheme property:
// at every threshold c, each point with y ≥ c is live in exactly one active
// block whose x-range contains it.
func TestActiveBlocksPartitionLivePoints(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randPoints(rng, 600, 300)
	s, err := Build(pts, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 60; trial++ {
		c := rng.Int63n(300)
		// Count, for each live point, how many active blocks contain it
		// among their stored points with y ≥ c.
		counts := make(map[geom.Point]int)
		for i := range s.Blocks() {
			blk := &s.Blocks()[i]
			if !blk.ActiveFor(c) {
				continue
			}
			seen := make(map[geom.Point]bool)
			for _, p := range blk.Points {
				if p.Y >= c && !seen[p] {
					seen[p] = true
					counts[p]++
				}
			}
		}
		for _, p := range pts {
			if p.Y >= c && counts[p] < 1 {
				t.Fatalf("threshold %d: live point %v not in any active block", c, p)
			}
		}
	}
}

// sameScheme reports the first difference between two schemes, block for
// block: contents in stored order and every piece of catalog metadata.
func sameScheme(got, want *Scheme) error {
	if got.NumPoints() != want.NumPoints() || got.MaxY() != want.MaxY() {
		return fmt.Errorf("n/maxY %d/%d, want %d/%d", got.NumPoints(), got.MaxY(), want.NumPoints(), want.MaxY())
	}
	if len(got.blocks) != len(want.blocks) {
		return fmt.Errorf("%d blocks, want %d", len(got.blocks), len(want.blocks))
	}
	for i := range want.blocks {
		g, w := &got.blocks[i], &want.blocks[i]
		if g.XLo != w.XLo || g.XHi != w.XHi || g.Initial != w.Initial || g.YAct != w.YAct ||
			g.RetiredAt != w.RetiredAt || (w.RetiredAt && g.YRet != w.YRet) {
			return fmt.Errorf("block %d metadata %+v, want %+v", i, *g, *w)
		}
		if len(g.Points) != len(w.Points) {
			return fmt.Errorf("block %d holds %d points, want %d", i, len(g.Points), len(w.Points))
		}
		for j := range w.Points {
			if g.Points[j] != w.Points[j] {
				return fmt.Errorf("block %d point %d = %v, want %v", i, j, g.Points[j], w.Points[j])
			}
		}
	}
	return nil
}

// distinctGrid draws n distinct points from a side×side grid, so x values
// and y values repeat freely while no point does.
func distinctGrid(rng *rand.Rand, n int, side int64) []geom.Point {
	seen := make(map[geom.Point]bool, n)
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		p := geom.Point{X: rng.Int63n(side), Y: rng.Int63n(side)}
		if !seen[p] {
			seen[p] = true
			pts = append(pts, p)
		}
	}
	return pts
}

// TestBuildMatchesReference: the merge construction emits, block for block,
// the scheme the sorting construction emitted — on sizes from 0 to B²,
// with heavily repeated x and y (on distinct points both orders are total,
// so there is exactly one right answer).
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, b := range []int{2, 16, 256} {
		sizes := []int{0, 1, b - 1, b, b + 1, 3*b + b/2, b * b / 3, b * b}
		if testing.Short() && b == 256 {
			sizes = sizes[:6]
		}
		for _, alpha := range []int{2, 3, 4} {
			for _, n := range sizes {
				for _, side := range []int64{int64(n)/4 + 2, 1 << 20} {
					if side*side < int64(n) {
						continue
					}
					pts := distinctGrid(rng, n, side)
					got, err := Build(pts, b, alpha)
					if err != nil {
						t.Fatal(err)
					}
					want, err := buildReference(pts, b, alpha)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameScheme(got, want); err != nil {
						t.Fatalf("b=%d alpha=%d n=%d side=%d: %v", b, alpha, n, side, err)
					}
				}
			}
		}
	}
}

// TestBuildIgnoresInputOrder: Build's scheme depends on each point's
// block, not on where in Pts the point sits — whether the ids are shuffled
// or laid out as smallstruct's gather hands them over: every block's
// survivors ascending in (y, x), block after block, then the buffered
// insertions in x order.
func TestBuildIgnoresInputOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var w Work
	for _, b := range []int{2, 16, 256} {
		sizes := []int{1, b - 1, b, b + 1, 3*b + b/2, b * b / 3, b * b}
		if testing.Short() && b == 256 {
			sizes = sizes[:5]
		}
		for _, alpha := range []int{2, 3, 4} {
			for _, n := range sizes {
				pts := distinctGrid(rng, n, int64(n)/4+2)
				want, err := buildReference(pts, b, alpha)
				if err != nil {
					t.Fatal(err)
				}
				for _, shape := range []string{"shuffled", "gathered"} {
					w.SetPoints(pts, b)
					if shape == "shuffled" {
						rng.Shuffle(n, func(i, j int) {
							w.Pts[i], w.Pts[j] = w.Pts[j], w.Pts[i]
							w.Block[i], w.Block[j] = w.Block[j], w.Block[i]
						})
					} else {
						gatherShape(rng, &w, rng.Intn(b/2+1))
					}
					got, err := w.Build(b, alpha)
					if err != nil {
						t.Fatal(err)
					}
					for i := range got.blocks {
						got.blocks[i].Points = got.AppendPoints(nil, i)
					}
					if err := sameScheme(got, want); err != nil {
						t.Fatalf("%s b=%d alpha=%d n=%d: %v", shape, b, alpha, n, err)
					}
				}
			}
		}
	}
}

// gatherShape reorders w's input (as SetPoints left it) the way
// smallstruct's gather lays it out: ins randomly chosen points go last, in
// x order; the others are grouped by block, each block ascending in (y, x).
func gatherShape(rng *rand.Rand, w *Work, ins int) {
	type tagged struct {
		p   geom.Point
		k   int32
		ins bool
	}
	all := make([]tagged, len(w.Pts))
	for i, p := range w.Pts {
		all[i] = tagged{p: p, k: w.Block[i]}
	}
	for _, i := range rng.Perm(len(all))[:min(ins, len(all))] {
		all[i].ins = true
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		switch {
		case a.ins != b.ins:
			return b.ins
		case a.ins:
			return false // insertions keep their x order
		case a.k != b.k:
			return a.k < b.k
		}
		return a.p.YLess(b.p)
	})
	for i, e := range all {
		w.Pts[i], w.Block[i] = e.p, e.k
	}
}

// TestWorkReuse: one Work builds different inputs back to back, each
// result equal to a fresh construction, and a warm Work allocates nothing.
func TestWorkReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var w Work
	for _, n := range []int{500, 30, 0, 900, 256} {
		pts := distinctGrid(rng, n, 64)
		w.SetPoints(pts, 16)
		got, err := w.Build(16, 2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := buildReference(pts, 16, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.blocks {
			got.blocks[i].Points = got.AppendPoints(nil, i)
		}
		if err := sameScheme(got, want); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
	pts := distinctGrid(rng, 900, 64)
	if a := testing.AllocsPerRun(5, func() {
		w.SetPoints(pts, 16)
		if _, err := w.Build(16, 2); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("warm Work.Build: %v allocs, want 0", a)
	}
}

// buildReference is the construction as it stood before the merge rebuild:
// sort by x, sort every block by y, sort everything by y, sort again inside
// every coalesce. It is kept, verbatim but for the names, as the oracle the
// differential tests hold Build to.
func buildReference(points []geom.Point, b, alpha int) (*Scheme, error) {
	if b < 2 {
		return nil, fmt.Errorf("sweep: block size %d < 2", b)
	}
	if alpha < 2 {
		return nil, fmt.Errorf("sweep: alpha %d < 2", alpha)
	}
	s := &Scheme{b: b, alpha: alpha, n: len(points)}
	if len(points) == 0 {
		return s, nil
	}

	pts := make([]geom.Point, len(points))
	copy(pts, points)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Less(pts[j]) })
	s.maxY = pts[0].Y
	for _, p := range pts {
		if p.Y > s.maxY {
			s.maxY = p.Y
		}
	}

	// Initial x-partition into blocks of b points.
	var head, tail *refEntry
	ptEntry := make([]*refEntry, len(pts))
	for lo := 0; lo < len(pts); lo += b {
		hi := min(lo+b, len(pts))
		blk := pts[lo:hi]
		byY := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			byY = append(byY, i)
		}
		sort.Slice(byY, func(i, j int) bool { return pts[byY[i]].YLess(pts[byY[j]]) })
		stored := make([]geom.Point, len(byY))
		for i, pid := range byY {
			stored[i] = pts[pid]
		}
		s.blocks = append(s.blocks, Block{
			Points:  stored,
			XLo:     blk[0].X,
			XHi:     blk[len(blk)-1].X,
			Initial: true,
		})
		e := &refEntry{
			blockIdx: len(s.blocks) - 1,
			pids:     byY,
			live:     len(byY),
			xlo:      blk[0].X,
			xhi:      blk[len(blk)-1].X,
		}
		for _, pid := range byY {
			ptEntry[pid] = e
		}
		if tail == nil {
			head, tail = e, e
		} else {
			tail.next, e.prev = e, tail
			tail = e
		}
	}

	// Sweep: process points in ascending y, whole y-groups at a time.
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return pts[order[i]].YLess(pts[order[j]]) })

	for gi := 0; gi < len(order); {
		y := pts[order[gi]].Y
		var touched []*refEntry
		for ; gi < len(order) && pts[order[gi]].Y == y; gi++ {
			e := ptEntry[order[gi]]
			e.live--
			if !e.queued {
				e.queued = true
				touched = append(touched, e)
			}
		}
		if gi == len(order) {
			// Final group: no threshold above it is meaningful, skip
			// invariant restoration (it would only create empty blocks).
			break
		}
		queue := touched
		for len(queue) > 0 {
			e := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			e.queued = false
			if e.retired {
				continue
			}
			if e.live == 0 {
				// A block with no points above the line is no longer
				// active: retire it and splice it out. Its neighbours may
				// now form a light run, so re-examine them.
				s.refRetire(e, y, &head)
				for _, nb := range []*refEntry{e.prev, e.next} {
					if nb != nil && !nb.retired && !nb.queued {
						nb.queued = true
						queue = append(queue, nb)
					}
				}
				continue
			}
			if !s.refLight(e) {
				continue
			}
			run := s.refLightRun(e)
			for len(run) >= alpha {
				ne := s.refCoalesce(run[:alpha], y, pts, ptEntry, &head)
				rest := run[alpha:]
				switch {
				case s.refLight(ne):
					run = s.refLightRun(ne)
				case len(rest) > 0:
					// The merged block is heavy but the tail of the run is
					// still light and consecutive; keep restoring there.
					run = s.refLightRun(rest[0])
				default:
					run = nil
				}
			}
		}
	}
	return s, nil
}

// retire marks e inactive as of sweep position y and splices it out of the
// active list.
func (s *Scheme) refRetire(e *refEntry, y int64, head **refEntry) {
	e.retired = true
	blk := &s.blocks[e.blockIdx]
	blk.RetiredAt = true
	blk.YRet = y
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		*head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
}

// refEntry is an active block during construction.
type refEntry struct {
	prev, next *refEntry
	blockIdx   int
	pids       []int // point ids sorted by ascending y (live = suffix with y > sweep)
	live       int
	xlo, xhi   int64
	retired    bool
	queued     bool
}

// light reports whether e has fewer than B/α live points.
func (s *Scheme) refLight(e *refEntry) bool { return e.live*s.alpha < s.b }

// lightRun returns the maximal run of consecutive light active entries
// containing e, in linear order.
func (s *Scheme) refLightRun(e *refEntry) []*refEntry {
	start := e
	for start.prev != nil && s.refLight(start.prev) {
		start = start.prev
	}
	var run []*refEntry
	for cur := start; cur != nil && s.refLight(cur); cur = cur.next {
		run = append(run, cur)
	}
	return run
}

// coalesce merges the given consecutive light entries (processed through
// sweep position y) into a new active block and returns its entry.
func (s *Scheme) refCoalesce(run []*refEntry, y int64, pts []geom.Point, ptEntry []*refEntry, head **refEntry) *refEntry {
	var livePids []int
	xlo, xhi := run[0].xlo, run[0].xhi
	for _, e := range run {
		for _, pid := range e.pids {
			if pts[pid].Y > y {
				livePids = append(livePids, pid)
			}
		}
		if e.xlo < xlo {
			xlo = e.xlo
		}
		if e.xhi > xhi {
			xhi = e.xhi
		}
	}
	sort.Slice(livePids, func(i, j int) bool { return pts[livePids[i]].YLess(pts[livePids[j]]) })
	stored := make([]geom.Point, len(livePids))
	for i, pid := range livePids {
		stored[i] = pts[pid]
	}
	s.blocks = append(s.blocks, Block{
		Points: stored,
		XLo:    xlo,
		XHi:    xhi,
		YAct:   y,
	})
	ne := &refEntry{
		blockIdx: len(s.blocks) - 1,
		pids:     livePids,
		live:     len(livePids),
		xlo:      xlo,
		xhi:      xhi,
	}
	for _, pid := range livePids {
		ptEntry[pid] = ne
	}
	// Retire the run and splice in the new entry.
	first, last := run[0], run[len(run)-1]
	for _, e := range run {
		e.retired = true
		blk := &s.blocks[e.blockIdx]
		blk.RetiredAt = true
		blk.YRet = y
	}
	ne.prev = first.prev
	ne.next = last.next
	if ne.prev != nil {
		ne.prev.next = ne
	} else {
		*head = ne
	}
	if ne.next != nil {
		ne.next.prev = ne
	}
	return ne
}
