package baseline

import (
	"encoding/binary"
	"fmt"
	"sort"

	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
)

// RTree is an external R-tree — the most widely deployed member of the
// heuristic family the paper's introduction surveys. This implementation
// uses Sort-Tile-Recursive (STR) bulk loading and classic insertion
// (least-area-enlargement descent, linear split on overflow). Like all
// R-variants it offers linear space and good average behaviour but no
// worst-case reporting guarantee: overlapping bounding boxes force
// multi-path descents that experiment E11 measures against the paper's
// optimal structures.
type RTree struct {
	store eio.Store
	rs    *eio.RecordStore
	hdr   eio.PageID
	m     int // max entries per node (leaf: points, internal: child boxes)
}

var _ Index = (*RTree)(nil)

// rtNode is a decoded R-tree node.
type rtNode struct {
	leaf    bool
	pts     []geom.Point // leaves
	entries []rtEntry    // internal nodes
	count   int64        // points under this node
}

type rtEntry struct {
	mbr   geom.Rect
	child eio.PageID
	count int64
}

// NewRTree creates an empty R-tree; m ≤ 0 selects the page-derived fanout.
func NewRTree(store eio.Store, m int) (*RTree, error) {
	if m <= 0 {
		m = eio.BlockCapacity(store.PageSize())
		if m < 4 {
			m = 4
		}
	}
	if m < 4 {
		return nil, fmt.Errorf("baseline: rtree fanout %d < 4", m)
	}
	t := &RTree{store: store, rs: eio.NewRecordStore(store), m: m}
	root, err := t.writeNode(eio.NilPage, &rtNode{leaf: true})
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint64(hdr[0:], uint64(root))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(m))
	t.hdr, err = t.rs.Put(hdr)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// BuildRTree bulk-loads an R-tree over pts (distinct) with STR packing.
func BuildRTree(store eio.Store, m int, pts []geom.Point) (*RTree, error) {
	t, err := NewRTree(store, m)
	if err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return t, nil
	}
	root, _, err := t.loadHdr()
	if err != nil {
		return nil, err
	}
	if err := t.rs.Delete(root); err != nil {
		return nil, err
	}

	// STR: sort by x, slice into vertical strips of √(n/m) leaves, sort
	// each strip by y, pack leaves of m points.
	sorted := append([]geom.Point(nil), pts...)
	geom.SortByX(sorted)
	nLeaves := (len(sorted) + t.m - 1) / t.m
	strips := 1
	for strips*strips < nLeaves {
		strips++
	}
	perStrip := (len(sorted) + strips - 1) / strips
	type packed struct {
		id    eio.PageID
		mbr   geom.Rect
		count int64
	}
	var level []packed
	for s := 0; s < len(sorted); s += perStrip {
		strip := sorted[s:min(s+perStrip, len(sorted))]
		sort.Slice(strip, func(i, j int) bool { return strip[i].YLess(strip[j]) })
		for l := 0; l < len(strip); l += t.m {
			leafPts := strip[l:min(l+t.m, len(strip))]
			n := &rtNode{leaf: true, pts: append([]geom.Point(nil), leafPts...)}
			id, err := t.writeNode(eio.NilPage, n)
			if err != nil {
				return nil, err
			}
			level = append(level, packed{id: id, mbr: mbrOfPoints(leafPts), count: int64(len(leafPts))})
		}
	}
	for len(level) > 1 {
		var up []packed
		for s := 0; s < len(level); s += t.m {
			group := level[s:min(s+t.m, len(level))]
			n := &rtNode{}
			box := group[0].mbr
			for _, g := range group {
				n.entries = append(n.entries, rtEntry{mbr: g.mbr, child: g.id, count: g.count})
				box = union(box, g.mbr)
				n.count += g.count
			}
			id, err := t.writeNode(eio.NilPage, n)
			if err != nil {
				return nil, err
			}
			up = append(up, packed{id: id, mbr: box, count: n.count})
		}
		level = up
	}
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint64(hdr[0:], uint64(level[0].id))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(t.m))
	return t, t.rs.Update(t.hdr, hdr, nil)
}

// OpenRTree re-attaches to an R-tree.
func OpenRTree(store eio.Store, hdr eio.PageID) (*RTree, error) {
	t := &RTree{store: store, rs: eio.NewRecordStore(store), hdr: hdr}
	_, m, err := t.loadHdr()
	if err != nil {
		return nil, err
	}
	t.m = m
	return t, nil
}

// HeaderID identifies the index on its store.
func (t *RTree) HeaderID() eio.PageID { return t.hdr }

func (t *RTree) loadHdr() (eio.PageID, int, error) {
	raw, err := t.rs.Get(t.hdr, nil)
	if err != nil {
		return eio.NilPage, 0, fmt.Errorf("baseline: rtree header: %w", err)
	}
	if len(raw) != 16 {
		return eio.NilPage, 0, fmt.Errorf("baseline: rtree header length %d", len(raw))
	}
	return eio.PageID(binary.LittleEndian.Uint64(raw[0:])), int(binary.LittleEndian.Uint64(raw[8:])), nil
}

func mbrOfPoints(pts []geom.Point) geom.Rect {
	r := geom.Rect{XLo: pts[0].X, XHi: pts[0].X, YLo: pts[0].Y, YHi: pts[0].Y}
	for _, p := range pts[1:] {
		r = union(r, geom.Rect{XLo: p.X, XHi: p.X, YLo: p.Y, YHi: p.Y})
	}
	return r
}

func union(a, b geom.Rect) geom.Rect {
	if a.XLo > b.XLo {
		a.XLo = b.XLo
	}
	if a.XHi < b.XHi {
		a.XHi = b.XHi
	}
	if a.YLo > b.YLo {
		a.YLo = b.YLo
	}
	if a.YHi < b.YHi {
		a.YHi = b.YHi
	}
	return a
}

// area returns the (saturating) area of r, for enlargement comparisons.
func area(r geom.Rect) float64 {
	return float64(r.XHi-r.XLo) * float64(r.YHi-r.YLo)
}

// Insert implements Index.
func (t *RTree) Insert(p geom.Point) error {
	root, _, err := t.loadHdr()
	if err != nil {
		return err
	}
	// Reject duplicates (Index contract) with a containment query first.
	dup, err := t.Query(nil, geom.Rect{XLo: p.X, XHi: p.X, YLo: p.Y, YHi: p.Y})
	if err != nil {
		return err
	}
	for _, q := range dup {
		if q == p {
			return fmt.Errorf("baseline: insert %v: %w", p, ErrDuplicate)
		}
	}
	type el struct {
		id  eio.PageID
		n   *rtNode
		idx int
	}
	var path []el
	id := root
	for {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		if n.leaf {
			path = append(path, el{id: id, n: n})
			break
		}
		// Least-area-enlargement descent.
		best, bestGrow, bestArea := 0, -1.0, 0.0
		pr := geom.Rect{XLo: p.X, XHi: p.X, YLo: p.Y, YHi: p.Y}
		for i := range n.entries {
			grow := area(union(n.entries[i].mbr, pr)) - area(n.entries[i].mbr)
			if bestGrow < 0 || grow < bestGrow || (grow == bestGrow && area(n.entries[i].mbr) < bestArea) {
				best, bestGrow, bestArea = i, grow, area(n.entries[i].mbr)
			}
		}
		path = append(path, el{id: id, n: n, idx: best})
		id = n.entries[best].child
	}

	leaf := path[len(path)-1].n
	leaf.pts = append(leaf.pts, p)

	// Walk up, splitting overflowing nodes and refreshing MBRs/counts.
	type carryT struct {
		id    eio.PageID
		mbr   geom.Rect
		count int64
	}
	var carry *carryT
	for i := len(path) - 1; i >= 0; i-- {
		e := path[i]
		n := e.n
		if !n.leaf {
			n.entries[e.idx].mbr = union(n.entries[e.idx].mbr, geom.Rect{XLo: p.X, XHi: p.X, YLo: p.Y, YHi: p.Y})
			n.entries[e.idx].count++
			n.count++
			if carry != nil {
				// Child below split: fix its entry and add the sibling.
				left, err := t.readNode(n.entries[e.idx].child)
				if err != nil {
					return err
				}
				n.entries[e.idx].mbr = t.nodeMBR(left)
				n.entries[e.idx].count = left.count
				n.entries = append(n.entries, rtEntry{mbr: carry.mbr, child: carry.id, count: carry.count})
				carry = nil
			}
		} else {
			n.count = int64(len(n.pts))
		}

		if (n.leaf && len(n.pts) > t.m) || (!n.leaf && len(n.entries) > t.m) {
			right := t.split(n)
			rightID, err := t.writeNode(eio.NilPage, right)
			if err != nil {
				return err
			}
			if err := t.writeBack(e.id, n); err != nil {
				return err
			}
			if i > 0 {
				carry = &carryT{id: rightID, mbr: t.nodeMBR(right), count: right.count}
				continue
			}
			// Root split.
			newRoot := &rtNode{
				entries: []rtEntry{
					{mbr: t.nodeMBR(n), child: e.id, count: n.count},
					{mbr: t.nodeMBR(right), child: rightID, count: right.count},
				},
				count: n.count + right.count,
			}
			rootID, err := t.writeNode(eio.NilPage, newRoot)
			if err != nil {
				return err
			}
			hdr := make([]byte, 16)
			binary.LittleEndian.PutUint64(hdr[0:], uint64(rootID))
			binary.LittleEndian.PutUint64(hdr[8:], uint64(t.m))
			if err := t.rs.Update(t.hdr, hdr, nil); err != nil {
				return err
			}
			continue
		}
		if err := t.writeBack(e.id, n); err != nil {
			return err
		}
	}
	return nil
}

// split performs a linear split along the longer MBR axis; n keeps the
// lower half, the returned node takes the upper.
func (t *RTree) split(n *rtNode) *rtNode {
	box := t.nodeMBR(n)
	byX := box.XHi-box.XLo >= box.YHi-box.YLo
	if n.leaf {
		sort.Slice(n.pts, func(i, j int) bool {
			if byX {
				return n.pts[i].Less(n.pts[j])
			}
			return n.pts[i].YLess(n.pts[j])
		})
		mid := len(n.pts) / 2
		right := &rtNode{leaf: true, pts: append([]geom.Point(nil), n.pts[mid:]...)}
		right.count = int64(len(right.pts))
		n.pts = n.pts[:mid]
		n.count = int64(len(n.pts))
		return right
	}
	sort.Slice(n.entries, func(i, j int) bool {
		if byX {
			return n.entries[i].mbr.XLo < n.entries[j].mbr.XLo
		}
		return n.entries[i].mbr.YLo < n.entries[j].mbr.YLo
	})
	mid := len(n.entries) / 2
	right := &rtNode{entries: append([]rtEntry(nil), n.entries[mid:]...)}
	for _, e := range right.entries {
		right.count += e.count
	}
	n.entries = n.entries[:mid]
	n.count = 0
	for _, e := range n.entries {
		n.count += e.count
	}
	return right
}

func (t *RTree) nodeMBR(n *rtNode) geom.Rect {
	if n.leaf {
		if len(n.pts) == 0 {
			return geom.Rect{XLo: 1, XHi: 0, YLo: 1, YHi: 0} // empty
		}
		return mbrOfPoints(n.pts)
	}
	box := n.entries[0].mbr
	for _, e := range n.entries[1:] {
		box = union(box, e.mbr)
	}
	return box
}

// Delete implements Index. The point is removed from its leaf; MBRs are
// not shrunk (standard R-tree laziness — another degradation E11 can
// expose under churn).
func (t *RTree) Delete(p geom.Point) (bool, error) {
	root, _, err := t.loadHdr()
	if err != nil {
		return false, err
	}
	return t.deleteRec(root, p)
}

func (t *RTree) deleteRec(id eio.PageID, p geom.Point) (bool, error) {
	n, err := t.readNode(id)
	if err != nil {
		return false, err
	}
	if n.leaf {
		for i, q := range n.pts {
			if q == p {
				n.pts = append(n.pts[:i], n.pts[i+1:]...)
				n.count = int64(len(n.pts))
				return true, t.writeBack(id, n)
			}
		}
		return false, nil
	}
	pr := geom.Rect{XLo: p.X, XHi: p.X, YLo: p.Y, YHi: p.Y}
	for i := range n.entries {
		if !n.entries[i].mbr.Intersects(pr) {
			continue
		}
		found, err := t.deleteRec(n.entries[i].child, p)
		if err != nil {
			return false, err
		}
		if found {
			n.entries[i].count--
			n.count--
			return true, t.writeBack(id, n)
		}
	}
	return false, nil
}

// Query implements Index.
func (t *RTree) Query(dst []geom.Point, q geom.Rect) ([]geom.Point, error) {
	if q.Empty() {
		return dst, nil
	}
	root, _, err := t.loadHdr()
	if err != nil {
		return dst, err
	}
	return t.queryRec(root, dst, q)
}

func (t *RTree) queryRec(id eio.PageID, dst []geom.Point, q geom.Rect) ([]geom.Point, error) {
	n, err := t.readNode(id)
	if err != nil {
		return dst, err
	}
	if n.leaf {
		return geom.Filter4(dst, n.pts, q), nil
	}
	for i := range n.entries {
		if n.entries[i].mbr.Intersects(q) {
			dst, err = t.queryRec(n.entries[i].child, dst, q)
			if err != nil {
				return dst, err
			}
		}
	}
	return dst, nil
}

// Len implements Index.
func (t *RTree) Len() (int, error) {
	root, _, err := t.loadHdr()
	if err != nil {
		return 0, err
	}
	n, err := t.readNode(root)
	if err != nil {
		return 0, err
	}
	return int(n.count), nil
}

// Destroy implements Index.
func (t *RTree) Destroy() error {
	root, _, err := t.loadHdr()
	if err != nil {
		return err
	}
	if err := t.freeRec(root); err != nil {
		return err
	}
	return t.rs.Delete(t.hdr)
}

func (t *RTree) freeRec(id eio.PageID) error {
	n, err := t.readNode(id)
	if err != nil {
		return err
	}
	if !n.leaf {
		for i := range n.entries {
			if err := t.freeRec(n.entries[i].child); err != nil {
				return err
			}
		}
	}
	return t.rs.Delete(id)
}

// --- serialization ---

func (t *RTree) readNode(id eio.PageID) (*rtNode, error) {
	raw, err := t.rs.Get(id, nil)
	if err != nil {
		return nil, fmt.Errorf("baseline: rtree node: %w", err)
	}
	if len(raw) < 16 {
		return nil, fmt.Errorf("baseline: rtree node too short")
	}
	n := &rtNode{}
	n.leaf = binary.LittleEndian.Uint32(raw[0:]) == 1
	cnt := int(binary.LittleEndian.Uint32(raw[4:]))
	n.count = int64(binary.LittleEndian.Uint64(raw[8:]))
	off := 16
	if n.leaf {
		if len(raw) != 16+eio.PointSize*cnt {
			return nil, fmt.Errorf("baseline: rtree leaf length %d", len(raw))
		}
		n.pts = make([]geom.Point, cnt)
		for i := range n.pts {
			n.pts[i] = eio.GetPoint(raw, off)
			off += eio.PointSize
		}
		return n, nil
	}
	const es = 32 + 8 + 8
	if len(raw) != 16+es*cnt {
		return nil, fmt.Errorf("baseline: rtree node length %d", len(raw))
	}
	n.entries = make([]rtEntry, cnt)
	for i := range n.entries {
		n.entries[i] = rtEntry{
			mbr: geom.Rect{
				XLo: int64(binary.LittleEndian.Uint64(raw[off:])),
				XHi: int64(binary.LittleEndian.Uint64(raw[off+8:])),
				YLo: int64(binary.LittleEndian.Uint64(raw[off+16:])),
				YHi: int64(binary.LittleEndian.Uint64(raw[off+24:])),
			},
			child: eio.PageID(binary.LittleEndian.Uint64(raw[off+32:])),
			count: int64(binary.LittleEndian.Uint64(raw[off+40:])),
		}
		off += es
	}
	return n, nil
}

func (t *RTree) writeNode(id eio.PageID, n *rtNode) (eio.PageID, error) {
	var raw []byte
	if n.leaf {
		raw = make([]byte, 16+eio.PointSize*len(n.pts))
		binary.LittleEndian.PutUint32(raw[0:], 1)
		binary.LittleEndian.PutUint32(raw[4:], uint32(len(n.pts)))
		binary.LittleEndian.PutUint64(raw[8:], uint64(int64(len(n.pts))))
		off := 16
		for _, p := range n.pts {
			eio.PutPoint(raw, off, p)
			off += eio.PointSize
		}
	} else {
		const es = 32 + 8 + 8
		raw = make([]byte, 16+es*len(n.entries))
		binary.LittleEndian.PutUint32(raw[0:], 0)
		binary.LittleEndian.PutUint32(raw[4:], uint32(len(n.entries)))
		binary.LittleEndian.PutUint64(raw[8:], uint64(n.count))
		off := 16
		for _, e := range n.entries {
			binary.LittleEndian.PutUint64(raw[off:], uint64(e.mbr.XLo))
			binary.LittleEndian.PutUint64(raw[off+8:], uint64(e.mbr.XHi))
			binary.LittleEndian.PutUint64(raw[off+16:], uint64(e.mbr.YLo))
			binary.LittleEndian.PutUint64(raw[off+24:], uint64(e.mbr.YHi))
			binary.LittleEndian.PutUint64(raw[off+32:], uint64(e.child))
			binary.LittleEndian.PutUint64(raw[off+40:], uint64(e.count))
			off += es
		}
	}
	if id == eio.NilPage {
		return t.rs.Put(raw)
	}
	return id, t.rs.Update(id, raw, nil)
}

func (t *RTree) writeBack(id eio.PageID, n *rtNode) error {
	_, err := t.writeNode(id, n)
	return err
}
