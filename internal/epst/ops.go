package epst

import (
	"slices"

	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
	"rangesearch/internal/smallstruct"
)

// Query3 appends every stored point satisfying q to dst (Section 3.3.1).
// Cost: O(log_B N + T/B) I/Os. Points are filtered from page buffers
// straight into dst; with room in dst a query allocates nothing.
func (t *Tree) Query3(dst []geom.Point, q geom.Query3) ([]geom.Point, error) {
	if q.Empty() {
		return dst, nil
	}
	sc := getScratch()
	defer putScratch(sc)
	m, err := t.loadMeta(sc)
	if err != nil {
		return dst, err
	}
	return t.query(sc, m.root, 0, dst, q)
}

func (t *Tree) query(sc *scratch, id eio.PageID, depth int, dst []geom.Point, q geom.Query3) ([]geom.Point, error) {
	n, err := t.viewNodeAt(sc, id, depth)
	if err != nil {
		return dst, err
	}
	if n.level == 0 {
		// Keys ascend in (x, y): start at the first with x ≥ XLo, stop at
		// the first with x > XHi, and test only presence and y between.
		for i := lowerBoundKey(n, geom.Point{X: q.XLo, Y: geom.MinCoord}); i < n.n; i++ {
			ke := n.key(i)
			if ke.p.X > q.XHi {
				break
			}
			if ke.here && ke.p.Y >= q.YLo {
				dst = append(dst, ke.p)
			}
		}
		return dst, nil
	}
	qs := t.openQ(sc, n.q())
	// This node's own results are dst[from:to]; the children append after
	// them (and may move dst), so they are addressed by index.
	from := len(dst)
	dst, err = qs.Query3(dst, q)
	if err != nil {
		return dst, err
	}
	to := len(dst)

	leftIdx := routeChild(n, geom.Point{X: q.XLo, Y: geom.MinCoord})
	rightIdx := routeChild(n, geom.Point{X: q.XHi, Y: geom.MaxCoord})
	for i := leftIdx; i <= rightIdx; i++ {
		e := n.entry(i)
		visit := false
		if i == leftIdx || i == rightIdx {
			// Children on the search paths for x = a and x = b.
			visit = true
		} else if ys := int(e.ysize); ys > 0 {
			// Interior child: visit only when its entire Y-set satisfied
			// the query. Y-sets smaller than B/2 imply (by the paper's
			// third invariant) that nothing is stored below, so such
			// children never need a visit even when fully reported.
			if 2*ys >= t.b {
				lo, hi, loOpen := childRange(n, i)
				cnt := 0
				for _, p := range dst[from:to] {
					if inKeyRange(lo, hi, loOpen, p) {
						cnt++
					}
				}
				visit = cnt == ys
			}
		}
		if visit {
			dst, err = t.query(sc, e.child, depth+1, dst, q)
			if err != nil {
				return dst, err
			}
		}
	}
	return dst, nil
}

// Contains reports whether p is stored. A point is live exactly when its
// key is present in its leaf, so a single root-to-leaf search suffices.
func (t *Tree) Contains(p geom.Point) (bool, error) {
	sc := getScratch()
	defer putScratch(sc)
	return t.contains(sc, p)
}

func (t *Tree) contains(sc *scratch, p geom.Point) (bool, error) {
	m, err := t.loadMeta(sc)
	if err != nil {
		return false, err
	}
	id := m.root
	for {
		// The search never looks back at a node, so one buffer serves the
		// whole path.
		n, err := t.viewNodeAt(sc, id, 0)
		if err != nil {
			return false, err
		}
		if n.level == 0 {
			i := lowerBoundKey(n, p)
			return i < n.n && n.key(i).p == p, nil
		}
		id = n.entry(routeChild(n, p)).child
	}
}

// MaxY returns the stored point with the largest (y, x); ok is false when
// the tree is empty. Cost: O(1) small-structure reads at the root (the
// global top always lives in the root's structure, or in the root leaf).
func (t *Tree) MaxY() (geom.Point, bool, error) {
	sc := getScratch()
	defer putScratch(sc)
	m, err := t.loadMeta(sc)
	if err != nil {
		return geom.Point{}, false, err
	}
	n, err := t.viewNodeAt(sc, m.root, 0)
	if err != nil {
		return geom.Point{}, false, err
	}
	if n.level == 0 {
		var best geom.Point
		found := false
		for i := 0; i < n.n; i++ {
			if ke := n.key(i); ke.here && (!found || best.YLess(ke.p)) {
				best, found = ke.p, true
			}
		}
		return best, found, nil
	}
	q := t.openQ(sc, n.q())
	return q.MaxY()
}

// splitPath writes path — the search path of a key just inserted into its
// leaf — bottom-up, splitting every overweight node on the way and
// reorganizing the auxiliary structures around each split (Figure 5). It
// re-reads: refilling the Y-sets of two split halves bubbles points up from
// subtrees whose path nodes were written a moment before.
func (t *Tree) splitPath(sc *scratch, m *meta, path []*node) error {
	var halves *[2]entry // the entries of a child that has just split
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if halves != nil {
			n.entries[n.idx] = halves[0]
			n.entries = slices.Insert(n.entries, n.idx+1, halves[1])
			halves = nil
		}

		// Split if overweight.
		var right *node
		switch {
		case n.level == 0 && len(n.keys) >= 2*t.k:
			right = &node{level: 0, keys: append([]keyEntry(nil), n.keys[t.k:]...)}
			n.keys = n.keys[:t.k]
		case n.level > 0 && nodeWeight(n) >= 2*t.levelCap(n.level):
			right = t.splitEntries(n)
		}
		if right == nil {
			if err := t.writeBack(sc, n); err != nil {
				return err
			}
			continue
		}

		boundary := nodeMaxKey(n)
		if n.level > 0 {
			// Split Q_v by the boundary: Y-sets never straddle it, so each
			// child keeps its Y-set intact on its side.
			qv := t.openQ(sc, n.q)
			all, err := qv.All()
			if err != nil {
				return err
			}
			if err := qv.Destroy(); err != nil {
				return err
			}
			var leftPts, rightPts []geom.Point
			for _, pt := range all {
				if boundary.Less(pt) {
					rightPts = append(rightPts, pt)
				} else {
					leftPts = append(leftPts, pt)
				}
			}
			if n.q, err = t.createQ(leftPts); err != nil {
				return err
			}
			if right.q, err = t.createQ(rightPts); err != nil {
				return err
			}
		}
		rightID, err := t.writeNode(sc, eio.NilPage, right)
		if err != nil {
			return err
		}
		if err := t.writeBack(sc, n); err != nil {
			return err
		}
		halves = &[2]entry{
			{maxKey: boundary, child: n.id, weight: nodeWeight(n)},
			{maxKey: nodeMaxKey(right), child: rightID, weight: nodeWeight(right)},
		}

		// The halves' Y-sets live in the parent's structure, which holds
		// Y(v) to divide between them by the boundary — or, when the root
		// has split, in a new root's, empty so far. Either way both are
		// then refilled to B/2 by bubbling points up from the respective
		// subtrees (Figure 5(b)).
		var qid eio.PageID
		if i > 0 {
			qid = path[i-1].q
		} else if qid, err = t.createQ(nil); err != nil {
			return err
		}
		qp := t.openQ(sc, qid)
		if i > 0 {
			if sc.ys, err = t.ySet(sc.ys, &qp, path[i-1], path[i-1].idx); err != nil {
				return err
			}
			for _, pt := range sc.ys {
				if boundary.Less(pt) {
					halves[1].ysize++
				} else {
					halves[0].ysize++
				}
			}
		}
		for h := range halves {
			e := &halves[h]
			if e.ysize, err = t.refillY(sc, &qp, e.child, e.ysize); err != nil {
				return err
			}
		}
		if i == 0 {
			newRoot := &node{level: n.level + 1, q: qid, entries: halves[:]}
			if m.root, err = t.writeNode(sc, eio.NilPage, newRoot); err != nil {
				return err
			}
			m.height = newRoot.level
		}
	}
	return nil
}

// refillY bubbles points up from the subtree rooted at childID into the
// parent structure qp until the Y-set holds B/2 points or the subtree runs
// dry. It returns the resulting Y-set size.
func (t *Tree) refillY(sc *scratch, qp *smallstruct.Struct, childID eio.PageID, ysize int32) (int32, error) {
	for int(ysize) < t.yHalf() {
		top, ok, err := t.extractTop(sc, &sc.small, childID)
		if err != nil {
			return ysize, err
		}
		if !ok {
			break
		}
		if err := qp.Add(top); err != nil { // top came from below: not in qp
			return ysize, err
		}
		ysize++
	}
	return ysize, nil
}

// splitEntries splits an internal node's children by weight; n keeps the
// left half, the returned node takes the right.
func (t *Tree) splitEntries(n *node) *node {
	total := nodeWeight(n)
	half := total / 2
	acc := int64(0)
	cut := 1
	bestDiff := int64(1) << 62
	for i := 0; i < len(n.entries)-1; i++ {
		acc += n.entries[i].weight
		diff := acc - half
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			bestDiff = diff
			cut = i + 1
		}
	}
	right := &node{level: n.level, entries: append([]entry(nil), n.entries[cut:]...)}
	n.entries = n.entries[:cut]
	return right
}

func nodeWeight(n *node) int64 {
	if n.level == 0 {
		return int64(len(n.keys))
	}
	var w int64
	for i := range n.entries {
		w += n.entries[i].weight
	}
	return w
}

func nodeMaxKey(n *node) geom.Point {
	if n.level == 0 {
		return n.keys[len(n.keys)-1].p
	}
	return n.entries[len(n.entries)-1].maxKey
}

// belowAll reports whether p is strictly below (in (y, x) order) every
// point of ys.
func belowAll(p geom.Point, ys []geom.Point) bool {
	for _, y := range ys {
		if !p.YLess(y) {
			return false
		}
	}
	return true
}

// extractTop removes and returns the topmost stored point of id's subtree,
// bubbling up a replacement from below when the donor Y-set falls under
// B/2 (the bubble-up operation of Section 3.3.2). ok is false if the
// subtree stores nothing. The node structures it opens work in ss.
func (t *Tree) extractTop(sc *scratch, ss *smallstruct.Scratch, id eio.PageID) (geom.Point, bool, error) {
	defer sc.release(sc.used)
	n, err := t.readNode(sc, id)
	if err != nil {
		return geom.Point{}, false, err
	}
	if n.level == 0 {
		best := -1
		for i, ke := range n.keys {
			if ke.here && (best < 0 || n.keys[best].p.YLess(ke.p)) {
				best = i
			}
		}
		if best < 0 {
			return geom.Point{}, false, nil
		}
		n.keys[best].here = false
		if err := t.writeBack(sc, n); err != nil {
			return geom.Point{}, false, err
		}
		return n.keys[best].p, true, nil
	}
	q := smallstruct.OpenScratch(t.store, n.q, t.alpha, ss)
	top, ok, err := q.MaxY()
	if err != nil || !ok {
		return geom.Point{}, false, err
	}
	if err := q.Remove(top); err != nil {
		return geom.Point{}, false, err
	}
	i := routeChild(n, top)
	n.entries[i].ysize--
	if 2*int(n.entries[i].ysize) < t.b {
		r, ok2, err := t.extractTop(sc, ss, n.entries[i].child)
		if err != nil {
			return geom.Point{}, false, err
		}
		if ok2 {
			if err := q.Add(r); err != nil {
				return geom.Point{}, false, err
			}
			n.entries[i].ysize++
		}
	}
	if err := t.writeBack(sc, n); err != nil {
		return geom.Point{}, false, err
	}
	return top, true, nil
}
