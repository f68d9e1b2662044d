package epst

import (
	"fmt"

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
		for i := 0; i < n.n; i++ {
			if ke := n.key(i); ke.here && q.Contains(ke.p) {
				dst = append(dst, ke.p)
			}
		}
		return dst, nil
	}
	qs, err := t.openQ(sc, n.q())
	if err != nil {
		return dst, err
	}
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
	q, err := t.openQ(sc, n.q())
	if err != nil {
		return geom.Point{}, false, err
	}
	return q.MaxY()
}

// Insert adds p in O(log_B N) amortized I/Os (Section 3.3.2): the key
// enters the weight-balanced base tree (splitting nodes and reorganizing
// their auxiliary structures as needed), then the point trickles down
// through Y-sets to its proper depth.
func (t *Tree) Insert(p geom.Point) error {
	sc := getScratch()
	defer putScratch(sc)
	ok, err := t.contains(sc, p)
	if err != nil {
		return err
	}
	if ok {
		return fmt.Errorf("epst: insert %v: %w", p, ErrDuplicate)
	}
	m, err := t.loadMeta(sc)
	if err != nil {
		return err
	}
	if err := t.insertKey(sc, &m, p); err != nil {
		return err
	}
	if err := t.place(sc, m.root, p); err != nil {
		return err
	}
	m.live++
	if m.live > m.basis {
		m.basis = m.live
	}
	return t.storeMeta(sc, &m)
}

// insertKey inserts p's key into the base tree, splitting overweight nodes
// bottom-up and reorganizing their auxiliary structures (Figure 5).
func (t *Tree) insertKey(sc *scratch, m *meta, p geom.Point) error {
	type pathEl struct {
		id  eio.PageID
		n   *node
		idx int
	}
	var path []pathEl
	id := m.root
	for {
		n, err := t.readNode(sc, id)
		if err != nil {
			return err
		}
		if n.level == 0 {
			path = append(path, pathEl{id: id, n: n})
			break
		}
		idx := routeChild(n, p)
		path = append(path, pathEl{id: id, n: n, idx: idx})
		id = n.entries[idx].child
	}

	// Add the key to the leaf; the point itself is placed by place()
	// afterwards, so the key starts as "absorbed above".
	leaf := path[len(path)-1].n
	pos := lowerBoundKey(leaf, p)
	leaf.keys = append(leaf.keys, keyEntry{})
	copy(leaf.keys[pos+1:], leaf.keys[pos:])
	leaf.keys[pos] = keyEntry{p: p, here: false}

	type carryT struct {
		leftWeight  int64
		leftMax     geom.Point
		leftYsize   int32
		rightID     eio.PageID
		rightWeight int64
		rightMax    geom.Point
		rightYsize  int32
	}
	var carry *carryT
	for i := len(path) - 1; i >= 0; i-- {
		el := path[i]
		n := el.n
		if n.level > 0 {
			e := &n.entries[el.idx]
			if carry != nil {
				e.weight = carry.leftWeight
				e.maxKey = carry.leftMax
				e.ysize = carry.leftYsize
				n.entries = append(n.entries, entry{})
				copy(n.entries[el.idx+2:], n.entries[el.idx+1:])
				n.entries[el.idx+1] = entry{
					maxKey: carry.rightMax,
					child:  carry.rightID,
					weight: carry.rightWeight,
					ysize:  carry.rightYsize,
				}
				carry = nil
			} else {
				e.weight++
				if e.maxKey.Less(p) {
					e.maxKey = p
				}
			}
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
			if err := t.writeBack(sc, el.id, n); err != nil {
				return err
			}
			continue
		}

		boundary := nodeMaxKey(n)
		if n.level > 0 {
			// Split Q_v by the boundary: Y-sets never straddle it, so each
			// child keeps its Y-set intact on its side.
			qv, err := t.openQ(sc, n.q)
			if err != nil {
				return err
			}
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
		if err := t.writeBack(sc, el.id, n); err != nil {
			return err
		}

		if i > 0 {
			// Split Y(v) in the parent: count the old Y-set on each side
			// of the boundary, then refill both halves to B/2 by bubbling
			// points up from the respective subtrees (Figure 5(b)).
			parent := path[i-1]
			qp, err := t.openQ(sc, parent.n.q)
			if err != nil {
				return err
			}
			yv, err := t.ySet(sc, &qp, parent.n, parent.idx)
			if err != nil {
				return err
			}
			var leftCnt int32
			for _, pt := range yv {
				if !boundary.Less(pt) {
					leftCnt++
				}
			}
			leftY, rightY := leftCnt, int32(len(yv))-leftCnt
			leftY, err = t.refillY(sc, &qp, el.id, leftY)
			if err != nil {
				return err
			}
			rightY, err = t.refillY(sc, &qp, rightID, rightY)
			if err != nil {
				return err
			}
			carry = &carryT{
				leftWeight:  nodeWeight(n),
				leftMax:     boundary,
				leftYsize:   leftY,
				rightID:     rightID,
				rightWeight: nodeWeight(right),
				rightMax:    nodeMaxKey(right),
				rightYsize:  rightY,
			}
			continue
		}

		// Root split: a new root with an initially empty query structure;
		// both halves' Y-sets are bubbled up from scratch.
		qRoot, err := t.createQ(nil)
		if err != nil {
			return err
		}
		newRoot := &node{
			level: n.level + 1,
			q:     qRoot,
			entries: []entry{
				{maxKey: boundary, child: el.id, weight: nodeWeight(n)},
				{maxKey: nodeMaxKey(right), child: rightID, weight: nodeWeight(right)},
			},
		}
		qr, err := t.openQ(sc, qRoot)
		if err != nil {
			return err
		}
		if newRoot.entries[0].ysize, err = t.refillY(sc, &qr, el.id, 0); err != nil {
			return err
		}
		if newRoot.entries[1].ysize, err = t.refillY(sc, &qr, rightID, 0); err != nil {
			return err
		}
		rootID, err := t.writeNode(sc, eio.NilPage, newRoot)
		if err != nil {
			return err
		}
		m.root = rootID
		m.height = newRoot.level
	}
	return nil
}

// refillY bubbles points up from the subtree rooted at childID into the
// parent structure qp until the Y-set holds B/2 points or the subtree runs
// dry. It returns the resulting Y-set size.
func (t *Tree) refillY(sc *scratch, qp *smallstruct.Struct, childID eio.PageID, ysize int32) (int32, error) {
	for int(ysize) < t.yHalf() {
		top, ok, err := t.extractTop(sc, childID)
		if err != nil {
			return ysize, err
		}
		if !ok {
			break
		}
		if err := qp.Insert(top); err != nil {
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

// place trickles point p down from the root into its proper Y-set or leaf
// (the recursive procedure at the start of Section 3.3.2).
func (t *Tree) place(sc *scratch, rootID eio.PageID, p geom.Point) error {
	id := rootID
	for {
		n, err := t.readNode(sc, id)
		if err != nil {
			return err
		}
		if n.level == 0 {
			i := lowerBoundKey(n, p)
			if i >= len(n.keys) || n.keys[i].p != p {
				return fmt.Errorf("epst: place: key %v missing from leaf", p)
			}
			n.keys[i].here = true
			return t.writeBack(sc, id, n)
		}
		i := routeChild(n, p)
		q, err := t.openQ(sc, n.q)
		if err != nil {
			return err
		}
		ys, err := t.ySet(sc, &q, n, i)
		if err != nil {
			return err
		}
		if len(ys) >= t.yHalf() && belowAll(p, ys) {
			// Y(v_i) is healthy and p lies below it: p belongs deeper.
			id = n.entries[i].child
			continue
		}
		// p joins Y(v_i).
		if err := q.Insert(p); err != nil {
			return err
		}
		n.entries[i].ysize++
		if int(n.entries[i].ysize) <= t.b {
			return t.writeBack(sc, id, n)
		}
		// Overflow: the lowest point of Y(v_i) is evicted and trickles
		// into the child.
		low := p
		for _, y := range ys {
			if y.YLess(low) {
				low = y
			}
		}
		if _, err := q.Delete(low); err != nil {
			return err
		}
		n.entries[i].ysize--
		if err := t.writeBack(sc, id, n); err != nil {
			return err
		}
		p = low
		id = n.entries[i].child
	}
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
// subtree stores nothing.
func (t *Tree) extractTop(sc *scratch, id eio.PageID) (geom.Point, bool, error) {
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
		if err := t.writeBack(sc, id, n); err != nil {
			return geom.Point{}, false, err
		}
		return n.keys[best].p, true, nil
	}
	q, err := t.openQ(sc, n.q)
	if err != nil {
		return geom.Point{}, false, err
	}
	top, ok, err := q.MaxY()
	if err != nil || !ok {
		return geom.Point{}, false, err
	}
	if _, err := q.Delete(top); err != nil {
		return geom.Point{}, false, err
	}
	i := routeChild(n, top)
	n.entries[i].ysize--
	if 2*int(n.entries[i].ysize) < t.b {
		r, ok2, err := t.extractTop(sc, n.entries[i].child)
		if err != nil {
			return geom.Point{}, false, err
		}
		if ok2 {
			if err := q.Insert(r); err != nil {
				return geom.Point{}, false, err
			}
			n.entries[i].ysize++
		}
	}
	if err := t.writeBack(sc, id, n); err != nil {
		return geom.Point{}, false, err
	}
	return top, true, nil
}

// Delete removes p, reporting whether it was present. The point is removed
// wherever it lives (a Y-set along the path or the leaf), the depleted
// Y-set is refilled by a bubble-up, the key leaves the base tree, and a
// global rebuild runs once the live count halves (Section 3.3.2).
func (t *Tree) Delete(p geom.Point) (bool, error) {
	sc := getScratch()
	defer putScratch(sc)
	m, err := t.loadMeta(sc)
	if err != nil {
		return false, err
	}
	// Locate pass (read-only): find the node whose Q holds p, if any, and
	// confirm the key exists.
	type pathEl struct {
		id  eio.PageID
		n   *node
		idx int
	}
	var path []pathEl
	storedAt := -1 // index into path of the node whose Q stores p
	id := m.root
	for {
		n, err := t.readNode(sc, id)
		if err != nil {
			return false, err
		}
		if n.level == 0 {
			pos := lowerBoundKey(n, p)
			if pos >= len(n.keys) || n.keys[pos].p != p {
				return false, nil
			}
			path = append(path, pathEl{id: id, n: n, idx: pos})
			break
		}
		idx := routeChild(n, p)
		if storedAt < 0 {
			q, err := t.openQ(sc, n.q)
			if err != nil {
				return false, err
			}
			ys, err := t.ySet(sc, &q, n, idx)
			if err != nil {
				return false, err
			}
			for _, y := range ys {
				if y == p {
					storedAt = len(path)
					break
				}
			}
		}
		path = append(path, pathEl{id: id, n: n, idx: idx})
		id = n.entries[idx].child
	}

	// Mutation pass, bottom-up so that bubble-up writes into descendants
	// are never clobbered by stale path copies.
	leafEl := path[len(path)-1]
	leafEl.n.keys = append(leafEl.n.keys[:leafEl.idx], leafEl.n.keys[leafEl.idx+1:]...)
	if err := t.writeBack(sc, leafEl.id, leafEl.n); err != nil {
		return false, err
	}
	for i := len(path) - 2; i >= 0; i-- {
		el := path[i]
		el.n.entries[el.idx].weight--
		if storedAt == i {
			q, err := t.openQ(sc, el.n.q)
			if err != nil {
				return false, err
			}
			if _, err := q.Delete(p); err != nil {
				return false, err
			}
			el.n.entries[el.idx].ysize--
			if 2*int(el.n.entries[el.idx].ysize) < t.b {
				r, ok, err := t.extractTop(sc, el.n.entries[el.idx].child)
				if err != nil {
					return false, err
				}
				if ok {
					if err := q.Insert(r); err != nil {
						return false, err
					}
					el.n.entries[el.idx].ysize++
				}
			}
		}
		if err := t.writeBack(sc, el.id, el.n); err != nil {
			return false, err
		}
	}

	m.live--
	if m.live*2 < m.basis {
		if err := t.rebuild(sc, &m); err != nil {
			return false, err
		}
		return true, nil
	}
	return true, t.storeMeta(sc, &m)
}
