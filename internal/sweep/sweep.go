// Package sweep implements the 3-sided indexing scheme of Section 2.2.1 of
// Arge, Samoladas & Vitter (PODS 1999): a sweep-line construction that
// places N points into at most n + n/(α−1) blocks of B points (redundancy
// r ≤ 1 + 1/(α−1)) such that every 3-sided query (a, b, c) — a ≤ x ≤ b,
// y ≥ c — is covered by at most α²·t + α + 1 blocks, i.e. constant access
// overhead A ≤ α² + α + 1.
//
// Construction: points are first partitioned by x into n initial blocks. A
// horizontal sweep line rises through the points; a block is "active" while
// it still has points above the line, and the invariant is maintained that
// among any α consecutive active blocks at least one holds ≥ B/α points
// above the line. When α consecutive active blocks all fall below B/α live
// points, they are coalesced: a new block is created holding exactly their
// live points (< B in total), the α old blocks are retired, and the new
// block takes their place in the linear order.
//
// Each block is annotated with its x-range and activity y-interval — the
// "catalog" information which internal/smallstruct packs into O(1) catalog
// blocks to answer queries in O(t + 1) I/Os (Lemma 1 of the paper).
package sweep

import (
	"fmt"
	"slices"

	"rangesearch/internal/geom"
)

// Block is one block of the scheme together with its catalog metadata.
type Block struct {
	// Points is the block's full contents (at most B points), sorted by
	// ascending y. Blocks retain their contents forever; queries filter.
	Points []geom.Point
	// XLo, XHi is the block's x-range.
	XLo, XHi int64
	// Initial marks the blocks of the starting x-partition, which are
	// active from the beginning of the sweep.
	Initial bool
	// YAct is the sweep position at which the block was created; the block
	// is active for query thresholds c > YAct. Meaningless if Initial.
	YAct int64
	// Retired y-position; the block is active for thresholds c ≤ YRet.
	// Meaningless unless RetiredAt is true.
	YRet      int64
	RetiredAt bool

	ids []int32 // the contents as point ids (see Scheme.AppendPoints)
}

// ActiveFor reports whether the block was active when the sweep line stood
// at threshold c (i.e. exactly the points with y ≥ c were above the line).
func (b *Block) ActiveFor(c int64) bool {
	if !b.Initial && c <= b.YAct {
		return false
	}
	return !b.RetiredAt || c <= b.YRet
}

// Scheme is a constructed 3-sided indexing scheme.
type Scheme struct {
	b      int
	alpha  int
	n      int // number of points
	maxY   int64
	blocks []Block
	pts    []geom.Point // point id → point, for Block.ids
}

// Build constructs the scheme for the given points with block size b ≥ 2
// and coalescing parameter alpha ≥ 2. The input slice is not modified.
func Build(points []geom.Point, b, alpha int) (*Scheme, error) {
	w := new(Work)
	if b >= 2 {
		w.SetPoints(points, b)
	}
	s, err := w.Build(b, alpha)
	if err != nil {
		return nil, err
	}
	for i := range s.blocks {
		s.blocks[i].Points = s.AppendPoints(make([]geom.Point, 0, len(s.blocks[i].ids)), i)
	}
	return s, nil
}

// Work is the working memory of a construction and the way to run one
// without sorting: the caller fills Pts and Block and calls Build, as
// smallstruct does with what it reads back from disk. The zero value is
// ready; a reused Work builds without allocating once it has grown.
type Work struct {
	// Pts holds the points in any order; a point's index is its id. Build
	// sorts each initial block's ids by (y, x) on their own, with a natural
	// merge sort, so an order in which each block's points form a few
	// ascending runs (as smallstruct's is) costs about one pass.
	Pts []geom.Point
	// Block maps a point id to its block of the initial x-partition, blocks
	// numbered by ascending x, at most b points each.
	Block []int32

	ids    []int32 // arena of the entries' id lists
	tmp    []int32 // sorting: the other half
	runs   []int32 // sort: run boundaries
	ents   []entry // ents[i] belongs to blocks[i]
	head   int32   // the first active entry
	events []event // min-heap on y
	stack  []int32 // entries whose invariant must be re-examined
	run    []int32 // the light run under repair
	sch    Scheme
}

// SetPoints makes points, sorted by x and cut into blocks of b, w's input.
func (w *Work) SetPoints(points []geom.Point, b int) {
	w.Pts = append(w.Pts[:0], points...)
	geom.SortByX(w.Pts)
	w.Block = w.Block[:0]
	for i := range w.Pts {
		w.Block = append(w.Block, int32(i/b))
	}
}

// entry is an active block during construction. Entries form a list in x
// order, linked by index (−1 ends it).
type entry struct {
	prev, next int32
	ids        []int32 // ascending (y, x); the live ones are the last live
	live       int
	retired    bool
	queued     bool
}

// event is a sweep position at which entry k turns light or empty.
type event struct {
	y int64
	k int32
}

// Build runs the sweep over w.Pts from the initial partition w.Block. The
// Scheme it returns lives in w: it is valid until w is built again, and its
// blocks carry no Points — read them with AppendPoints.
//
// The sweep rises through the y-groups (the points sharing one y), but
// stops only where an entry turns light or empty: everywhere else every
// touched entry is heavy, or light in a run shorter than α that has not
// changed since it was last repaired, so the repair loop would do nothing.
// Those heights are fixed when an entry is made, so they wait in a heap;
// at each one a walk of the active list brings every entry's live count
// up to the line and collects the touched entries in list order — the
// x order in which a (y, x)-ordered pass over the group would meet them.
func (w *Work) Build(b, alpha int) (*Scheme, error) {
	if b < 2 {
		return nil, fmt.Errorf("sweep: block size %d < 2", b)
	}
	if alpha < 2 {
		return nil, fmt.Errorf("sweep: alpha %d < 2", alpha)
	}
	pts, n := w.Pts, len(w.Pts)
	s := &w.sch
	*s = Scheme{b: b, alpha: alpha, n: n, blocks: s.blocks[:0], pts: pts}
	if n == 0 {
		return s, nil
	}
	// Bucket the ids by initial block in one stable counting pass, then
	// sort each bucket on its own. Coalesced lists are appended behind
	// them in w.ids, α live suffixes at a time: at most n/(α−1) + b ids
	// more.
	w.ents, w.events, w.head = w.ents[:0], w.events[:0], 0
	s.maxY = pts[0].Y
	for id, k := range w.Block {
		for int(k) >= len(w.ents) {
			w.ents = append(w.ents, entry{prev: int32(len(w.ents)) - 1, next: int32(len(w.ents)) + 1})
			s.blocks = append(s.blocks, Block{XLo: geom.MaxCoord, XHi: geom.MinCoord, Initial: true})
		}
		w.ents[k].live++
		blk, p := &s.blocks[k], pts[id]
		blk.XLo, blk.XHi = min(blk.XLo, p.X), max(blk.XHi, p.X)
		s.maxY = max(s.maxY, p.Y)
	}
	w.ents[len(w.ents)-1].next = -1
	w.ids = slices.Grow(w.ids[:0], 2*n+b)[:n]
	off, most := 0, 0
	for k := range w.ents {
		e := &w.ents[k]
		e.ids = w.ids[off : off : off+e.live]
		off += e.live
		most = max(most, e.live)
	}
	for id, k := range w.Block {
		w.ents[k].ids = append(w.ents[k].ids, int32(id))
	}
	w.tmp = slices.Grow(w.tmp[:0], most)[:most]
	for k := range w.ents {
		w.sortIDs(w.ents[k].ids, w.tmp)
		s.blocks[k].ids = w.ents[k].ids
		w.pushEvents(int32(k))
	}

	for len(w.events) > 0 {
		y := w.events[0].y
		if y >= s.maxY {
			// Final group: no threshold above it is meaningful, skip
			// invariant restoration (it would only create empty blocks).
			break
		}
		due := false // an event of an entry still active
		for len(w.events) > 0 && w.events[0].y == y {
			if k := w.popEvent(); !w.ents[k].retired {
				due = true
			}
		}
		if !due {
			continue
		}
		stack := w.stack[:0]
		for k := w.head; k >= 0; k = w.ents[k].next {
			e := &w.ents[k]
			i := len(e.ids) - e.live
			for i < len(e.ids) && pts[e.ids[i]].Y < y {
				i++
			}
			j := i
			for j < len(e.ids) && pts[e.ids[j]].Y == y {
				j++
			}
			e.live = len(e.ids) - j
			if j > i {
				e.queued = true
				stack = append(stack, k)
			}
		}
		for len(stack) > 0 {
			k := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			e := &w.ents[k]
			e.queued = false
			if e.retired {
				continue
			}
			if e.live == 0 {
				// A block with no points above the line is no longer
				// active: retire it and splice it out. Its neighbours may
				// now form a light run, so re-examine them.
				w.retire(k, y)
				for _, nb := range [2]int32{e.prev, e.next} {
					if nb >= 0 && !w.ents[nb].retired && !w.ents[nb].queued {
						w.ents[nb].queued = true
						stack = append(stack, nb)
					}
				}
				continue
			}
			if !w.light(k) {
				continue
			}
			run := w.lightRun(k)
			for len(run) >= alpha {
				ne := w.coalesce(run[:alpha], y)
				switch {
				case w.light(ne):
					run = w.lightRun(ne)
				case len(run) > alpha:
					// The merged block is heavy but the tail of the run is
					// still light and consecutive; keep restoring there.
					run = w.lightRun(run[alpha])
				default:
					run = nil
				}
			}
		}
		w.stack = stack
	}
	return s, nil
}

// pushEvents queues the heights at which the new entry k, all of whose ids
// are live, turns light and turns empty: the y of its (⌊(b−1)/α⌋+1)-th
// highest point and of its highest. An entry light from the start turns
// "light" at its lowest point, where the sweep first examines it.
func (w *Work) pushEvents(k int32) {
	ids := w.ents[k].ids
	if len(ids) == 0 {
		return
	}
	light := max(len(ids)-1-(w.sch.b-1)/w.sch.alpha, 0)
	yl, ye := w.Pts[ids[light]].Y, w.Pts[ids[len(ids)-1]].Y
	w.pushEvent(event{yl, k})
	if ye != yl {
		w.pushEvent(event{ye, k})
	}
}

// pushEvent and popEvent keep w.events a binary min-heap on y.
func (w *Work) pushEvent(ev event) {
	h := append(w.events, ev)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].y <= ev.y {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	w.events = h
}

func (w *Work) popEvent() int32 {
	h := w.events
	k, last := h[0].k, len(h)-1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && h[c+1].y < h[c].y {
			c++
		}
		if h[i].y <= h[c].y {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	w.events = h
	return k
}

// sortIDs orders ids by the (y, x) order of their points, with tmp (at
// least as long as ids) to work in: a natural merge sort — the ascending
// runs ids already consists of are merged pairwise, pass after pass — so k
// sorted runs cost O(n log k) comparisons and a sorted input n. It is
// stable.
func (w *Work) sortIDs(ids, tmp []int32) {
	pts, n := w.Pts, int32(len(ids))
	runs := append(w.runs[:0], 0)
	for i := int32(1); i < n; i++ {
		if pts[ids[i]].YLess(pts[ids[i-1]]) {
			runs = append(runs, i)
		}
	}
	runs = append(runs, n)
	a, t := ids, tmp
	for ; len(runs) > 2; a, t = t, a {
		k := 0
		for r := 0; r+1 < len(runs); r += 2 {
			lo, mid, hi := runs[r], runs[r+1], n
			if r+2 < len(runs) {
				hi = runs[r+2]
			}
			i, j, o := lo, mid, lo
			for ; i < mid && j < hi; o++ {
				if pts[a[j]].YLess(pts[a[i]]) {
					t[o] = a[j]
					j++
				} else {
					t[o] = a[i]
					i++
				}
			}
			o += int32(copy(t[o:], a[i:mid]))
			copy(t[o:], a[j:hi])
			runs[k] = lo
			k++
		}
		runs[k] = n
		runs = runs[:k+1]
	}
	if n > 0 && &a[0] != &ids[0] {
		copy(ids, a)
	}
	w.runs = runs
}

// retire marks entry k inactive as of sweep position y and splices it out
// of the active list.
func (w *Work) retire(k int32, y int64) {
	e := &w.ents[k]
	e.retired = true
	w.sch.blocks[k].RetiredAt, w.sch.blocks[k].YRet = true, y
	if e.prev >= 0 {
		w.ents[e.prev].next = e.next
	} else {
		w.head = e.next
	}
	if e.next >= 0 {
		w.ents[e.next].prev = e.prev
	}
}

// light reports whether entry k has fewer than B/α live points.
func (w *Work) light(k int32) bool { return w.ents[k].live*w.sch.alpha < w.sch.b }

// lightRun returns the maximal run of consecutive light active entries
// containing k, in linear order. It is valid until the next lightRun.
func (w *Work) lightRun(k int32) []int32 {
	for p := w.ents[k].prev; p >= 0 && w.light(p); p = w.ents[k].prev {
		k = p
	}
	w.run = w.run[:0]
	for ; k >= 0 && w.light(k); k = w.ents[k].next {
		w.run = append(w.run, k)
	}
	return w.run
}

// coalesce merges the given consecutive light entries (processed through
// sweep position y) into a new active block and returns its entry. Each
// entry's live ids are the tail of a list already in (y, x) order, so
// sorting their concatenation is an α-way merge.
func (w *Work) coalesce(run []int32, y int64) int32 {
	ne := int32(len(w.ents))
	blk := Block{XLo: geom.MaxCoord, XHi: geom.MinCoord, YAct: y}
	from := len(w.ids)
	for _, k := range run {
		e := &w.ents[k]
		w.ids = append(w.ids, e.ids[len(e.ids)-e.live:]...)
		old := &w.sch.blocks[k]
		blk.XLo, blk.XHi = min(blk.XLo, old.XLo), max(blk.XHi, old.XHi)
		// Retire the run; the new entry is spliced in below.
		e.retired = true
		old.RetiredAt, old.YRet = true, y
	}
	blk.ids = w.ids[from:len(w.ids):len(w.ids)]
	w.tmp = slices.Grow(w.tmp[:0], len(blk.ids))[:len(blk.ids)]
	w.sortIDs(blk.ids, w.tmp)
	w.sch.blocks = append(w.sch.blocks, blk)
	first, last := w.ents[run[0]].prev, w.ents[run[len(run)-1]].next
	w.ents = append(w.ents, entry{prev: first, next: last, ids: blk.ids, live: len(blk.ids)})
	if first >= 0 {
		w.ents[first].next = ne
	} else {
		w.head = ne
	}
	if last >= 0 {
		w.ents[last].prev = ne
	}
	w.pushEvents(ne)
	return ne
}

// AppendPoints appends block i's contents, in ascending (y, x) order, to
// dst.
func (s *Scheme) AppendPoints(dst []geom.Point, i int) []geom.Point {
	for _, id := range s.blocks[i].ids {
		dst = append(dst, s.pts[id])
	}
	return dst
}

// B returns the block size.
func (s *Scheme) B() int { return s.b }

// Alpha returns the coalescing parameter.
func (s *Scheme) Alpha() int { return s.alpha }

// NumPoints returns N.
func (s *Scheme) NumPoints() int { return s.n }

// NumBlocks returns the total number of blocks created.
func (s *Scheme) NumBlocks() int { return len(s.blocks) }

// BlockSize returns B (indexability.Scheme interface).
func (s *Scheme) BlockSize() int { return s.b }

// Blocks exposes the blocks with their catalog metadata.
func (s *Scheme) Blocks() []Block { return s.blocks }

// MaxY returns the largest y-coordinate indexed.
func (s *Scheme) MaxY() int64 { return s.maxY }

// Redundancy returns r = B·|blocks|/N.
func (s *Scheme) Redundancy() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.b*len(s.blocks)) / float64(s.n)
}

// CoverIndexes returns the indexes of the blocks covering the 3-sided query
// q: the blocks active at threshold q.YLo whose x-ranges intersect
// [q.XLo, q.XHi].
func (s *Scheme) CoverIndexes(q geom.Query3) []int {
	if q.Empty() || s.n == 0 || q.YLo > s.maxY {
		return nil
	}
	var out []int
	for i := range s.blocks {
		b := &s.blocks[i]
		if b.ActiveFor(q.YLo) && b.XLo <= q.XHi && b.XHi >= q.XLo {
			out = append(out, i)
		}
	}
	return out
}

// Query3 returns all indexed points satisfying q, appended to dst, along
// with the number of blocks read.
func (s *Scheme) Query3(dst []geom.Point, q geom.Query3) ([]geom.Point, int) {
	idx := s.CoverIndexes(q)
	for _, i := range idx {
		dst = geom.Filter3(dst, s.blocks[i].Points, q)
	}
	return dst, len(idx)
}

// Cover implements indexability.Scheme for 3-sided workloads: the rectangle
// must be open-topped (YHi = MaxCoord).
func (s *Scheme) Cover(q geom.Rect) ([][]geom.Point, error) {
	if q.YHi != geom.MaxCoord {
		return nil, fmt.Errorf("sweep: query %v is not 3-sided (YHi must be MaxCoord)", q)
	}
	idx := s.CoverIndexes(geom.Query3{XLo: q.XLo, XHi: q.XHi, YLo: q.YLo})
	out := make([][]geom.Point, len(idx))
	for i, bi := range idx {
		out[i] = s.blocks[bi].Points
	}
	return out, nil
}
