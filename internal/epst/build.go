package epst

import (
	"fmt"
	"sort"

	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
)

// bulkBuild writes a fresh tree over pts (sorted by composite (x, y),
// distinct) and returns its root and height. The skeleton mirrors the
// weight-balanced construction; auxiliary structures are filled top-down:
// every node takes the min(B, available) topmost points of each child's
// subtree into the child's Y-set, and the remainder trickles down —
// exactly the invariants of Section 3.3.
func (t *Tree) bulkBuild(sc *scratch, pts []geom.Point) (eio.PageID, int, error) {
	type built struct {
		id     eio.PageID
		maxKey geom.Point
		weight int64
	}
	if len(pts) == 0 {
		id, err := t.writeNode(sc, eio.NilPage, &node{level: 0})
		return id, 0, err
	}

	// Leaves: evenly sized near 1.5k, within [1, 2k−1]. Flags are set
	// during the fill pass; initialize to "stored here".
	g := (len(pts) + (t.k + t.k/2) - 1) / (t.k + t.k/2)
	if g < 1 {
		g = 1
	}
	for len(pts) > g*(2*t.k-1) {
		g++
	}
	var level []built
	var leafIDs []eio.PageID
	for i := 0; i < g; i++ {
		lo := i * len(pts) / g
		hi := (i + 1) * len(pts) / g
		if lo == hi {
			continue
		}
		n := &node{level: 0, keys: make([]keyEntry, hi-lo)}
		for j := lo; j < hi; j++ {
			n.keys[j-lo] = keyEntry{p: pts[j], here: true}
		}
		id, err := t.writeNode(sc, eio.NilPage, n)
		if err != nil {
			return eio.NilPage, 0, err
		}
		leafIDs = append(leafIDs, id)
		level = append(level, built{id: id, maxKey: pts[hi-1], weight: int64(hi - lo)})
	}

	// Internal levels: weight-packed toward a^ℓ·k per node, Y-sets empty
	// for now (q = NilPage placeholder replaced during fill).
	height := 0
	for len(level) > 1 {
		height++
		target := t.levelCap(height)
		var up []built
		cur := &node{level: height}
		var curW int64
		flush := func() error {
			if len(cur.entries) == 0 {
				return nil
			}
			id, err := t.writeNode(sc, eio.NilPage, cur)
			if err != nil {
				return err
			}
			up = append(up, built{id: id, maxKey: cur.entries[len(cur.entries)-1].maxKey, weight: curW})
			cur = &node{level: height}
			curW = 0
			return nil
		}
		for _, c := range level {
			if curW+c.weight > target && len(cur.entries) > 0 {
				if err := flush(); err != nil {
					return eio.NilPage, 0, err
				}
			}
			cur.entries = append(cur.entries, entry{maxKey: c.maxKey, child: c.id, weight: c.weight})
			curW += c.weight
		}
		if err := flush(); err != nil {
			return eio.NilPage, 0, err
		}
		level = up
	}
	root := level[0].id

	// Fill pass: distribute points into Y-sets top-down.
	if err := t.fill(sc, root, pts); err != nil {
		return eio.NilPage, 0, err
	}
	_ = leafIDs
	return root, height, nil
}

// levelCap returns a^ℓ·k, saturating.
func (t *Tree) levelCap(level int) int64 {
	cap := int64(t.k)
	for i := 0; i < level; i++ {
		if cap > (1<<62)/int64(t.a) {
			return 1 << 62
		}
		cap *= int64(t.a)
	}
	return cap
}

// fill assigns pts (the points of id's subtree not absorbed above, sorted
// by composite key) to id's auxiliary structures.
func (t *Tree) fill(sc *scratch, id eio.PageID, pts []geom.Point) error {
	defer sc.release(sc.used)
	n, err := t.readNode(sc, id)
	if err != nil {
		return err
	}
	if n.level == 0 {
		present := make(map[geom.Point]bool, len(pts))
		for _, p := range pts {
			present[p] = true
		}
		for i := range n.keys {
			n.keys[i].here = present[n.keys[i].p]
		}
		return t.writeBack(sc, n)
	}
	// Partition pts among children by composite range (pts is sorted, and
	// child ranges are consecutive).
	var qPoints []geom.Point
	start := 0
	for i := range n.entries {
		hiKey := n.entries[i].maxKey
		end := start
		if i == len(n.entries)-1 {
			end = len(pts)
		} else {
			end = start + sort.Search(len(pts)-start, func(j int) bool { return hiKey.Less(pts[start+j]) })
		}
		childPts := pts[start:end]
		start = end

		// Y(child) = the min(B, |childPts|) topmost by (y, x).
		take := t.b
		if take > len(childPts) {
			take = len(childPts)
		}
		ys := topByY(childPts, take)
		qPoints = append(qPoints, ys...)
		n.entries[i].ysize = int32(len(ys))

		rest := subtract(childPts, ys)
		if err := t.fill(sc, n.entries[i].child, rest); err != nil {
			return err
		}
	}
	q, err := t.createQ(qPoints)
	if err != nil {
		return err
	}
	n.q = q
	return t.writeBack(sc, n)
}

// createQ builds a small structure over pts and returns its catalog id.
func (t *Tree) createQ(pts []geom.Point) (eio.PageID, error) {
	q, err := newSmall(t, pts)
	if err != nil {
		return eio.NilPage, err
	}
	return q.CatalogID(), nil
}

// topByY returns the k points of pts with the highest (y, x) order.
func topByY(pts []geom.Point, k int) []geom.Point {
	cp := append([]geom.Point(nil), pts...)
	sort.Slice(cp, func(i, j int) bool { return cp[j].YLess(cp[i]) })
	return cp[:k]
}

// subtract returns the points of pts not in drop, preserving order.
func subtract(pts, drop []geom.Point) []geom.Point {
	if len(drop) == 0 {
		return pts
	}
	dropSet := make(map[geom.Point]bool, len(drop))
	for _, p := range drop {
		dropSet[p] = true
	}
	var out []geom.Point
	for _, p := range pts {
		if !dropSet[p] {
			out = append(out, p)
		}
	}
	return out
}

// collect appends every stored point in id's subtree to out.
func (t *Tree) collect(sc *scratch, id eio.PageID, out *[]geom.Point) error {
	defer sc.release(sc.used)
	n, err := t.readNode(sc, id)
	if err != nil {
		return err
	}
	if n.level == 0 {
		for _, ke := range n.keys {
			if ke.here {
				*out = append(*out, ke.p)
			}
		}
		return nil
	}
	q := t.openQ(sc, n.q)
	pts, err := q.All()
	if err != nil {
		return err
	}
	*out = append(*out, pts...)
	for i := range n.entries {
		if err := t.collect(sc, n.entries[i].child, out); err != nil {
			return err
		}
	}
	return nil
}

// freeSubtree releases every record and small structure under id.
func (t *Tree) freeSubtree(sc *scratch, id eio.PageID) error {
	defer sc.release(sc.used)
	n, err := t.readNode(sc, id)
	if err != nil {
		return err
	}
	if n.level > 0 {
		q := t.openQ(sc, n.q)
		if err := q.Destroy(); err != nil {
			return err
		}
		for i := range n.entries {
			if err := t.freeSubtree(sc, n.entries[i].child); err != nil {
				return err
			}
		}
	}
	return t.rs.Delete(id)
}

// rebuild reconstructs the whole tree from its live points (the paper's
// global rebuilding step for lazy deletions).
func (t *Tree) rebuild(sc *scratch, m *meta) error {
	var pts []geom.Point
	if err := t.collect(sc, m.root, &pts); err != nil {
		return err
	}
	if err := t.freeSubtree(sc, m.root); err != nil {
		return err
	}
	geom.SortByX(pts)
	root, height, err := t.bulkBuild(sc, pts)
	if err != nil {
		return err
	}
	m.root = root
	m.height = height
	m.live = int64(len(pts))
	m.basis = m.live
	return t.storeMeta(sc, m)
}

// Destroy frees the whole tree including its header.
func (t *Tree) Destroy() error {
	sc := getScratch()
	defer putScratch(sc)
	m, err := t.loadMeta(sc)
	if err != nil {
		return err
	}
	if err := t.freeSubtree(sc, m.root); err != nil {
		return err
	}
	return t.rs.Delete(t.hdr)
}

// All returns every stored point (unordered).
func (t *Tree) All() ([]geom.Point, error) {
	sc := getScratch()
	defer putScratch(sc)
	m, err := t.loadMeta(sc)
	if err != nil {
		return nil, err
	}
	var pts []geom.Point
	if err := t.collect(sc, m.root, &pts); err != nil {
		return nil, err
	}
	if int64(len(pts)) != m.live {
		return nil, fmt.Errorf("epst: collected %d points, header says %d", len(pts), m.live)
	}
	return pts, nil
}
