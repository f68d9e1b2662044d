package epst

import (
	"fmt"
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
		for i := 0; i < n.n; i++ {
			if ke := n.key(i); ke.here && q.Contains(ke.p) {
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

// Insert adds p in O(log_B N) amortized I/Os (Section 3.3.2): the key
// enters the weight-balanced base tree (splitting nodes and reorganizing
// their auxiliary structures as needed), then the point trickles down
// through Y-sets to its proper depth.
//
// It is one descent: the search path is read and decoded once; the
// duplicate check, the key insertion, the weight and maxKey maintenance and
// the trickle edit that loaded path; then every page that changed is
// written once, deepest first. Only a split re-reads (see splitPath).
func (t *Tree) Insert(p geom.Point) error {
	sc := getScratch()
	defer putScratch(sc)
	m, err := t.loadMeta(sc)
	if err != nil {
		return err
	}
	path, err := t.descend(sc, m.root, p)
	if err != nil {
		return err
	}
	leaf := path[len(path)-1]
	pos := lowerBoundKey(leaf, p)
	if pos < len(leaf.keys) && leaf.keys[pos].p == p {
		return fmt.Errorf("epst: insert %v: %w", p, ErrDuplicate)
	}
	// The key enters its leaf "absorbed above"; the trickle sets the flag
	// if the point comes to rest there.
	leaf.keys = slices.Insert(leaf.keys, pos, keyEntry{p: p})
	leaf.dirty = true
	split := len(leaf.keys) >= 2*t.k
	for _, n := range path[:len(path)-1] {
		e := &n.entries[n.idx]
		e.weight++
		if e.maxKey.Less(p) {
			e.maxKey = p
		}
		n.dirty = true
		split = split || nodeWeight(n) >= 2*t.levelCap(n.level)
	}
	if split {
		// The split moves keys, Y-sets and maybe the root: write the path
		// out through it and load the new one for the trickle.
		if err := t.splitPath(sc, &m, path); err != nil {
			return err
		}
		sc.release(0)
		if path, err = t.descend(sc, m.root, p); err != nil {
			return err
		}
	}
	if err := t.trickle(sc, path, p); err != nil {
		return err
	}
	if err := t.flush(sc); err != nil {
		return err
	}
	m.live++
	if m.live > m.basis {
		m.basis = m.live
	}
	return t.storeMeta(sc, &m)
}

// descend reads the search path for p from root — root first, leaf last —
// and returns it. Every node on it is decoded, held in sc, and, if
// internal, knows in idx which child the path takes.
func (t *Tree) descend(sc *scratch, root eio.PageID, p geom.Point) ([]*node, error) {
	mark := sc.used
	for id := root; ; {
		n, err := t.readNode(sc, id)
		if err != nil {
			return nil, err
		}
		if n.level == 0 {
			return sc.nodes[mark:sc.used], nil
		}
		n.idx = routeChild(n, p)
		id = n.entries[n.idx].child
	}
}

// flush writes the dirty nodes the operation holds, each once, deepest
// first (nodes are held in the order they were read).
func (t *Tree) flush(sc *scratch) error {
	for i := sc.used - 1; i >= 0; i-- {
		if n := sc.nodes[i]; n.dirty {
			if err := t.writeBack(sc, n); err != nil {
				return err
			}
		}
	}
	return nil
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
			yv, err := t.ySet(sc, &qp, path[i-1], path[i-1].idx)
			if err != nil {
				return err
			}
			for _, pt := range yv {
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
		top, ok, err := t.extractTop(sc, childID)
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

// trickle moves point p down from the root into its proper Y-set or leaf
// (the recursive procedure at the start of Section 3.3.2). path is p's
// search path, already loaded: the walk stays on it while the point in hand
// is p and may leave it, reading the nodes it then visits, once a full
// Y-set has passed an evicted point down instead. The Y-set fetched to
// decide where the point goes is all of Q_v in the child's key range, so
// the insertion that follows needs no membership probe.
func (t *Tree) trickle(sc *scratch, path []*node, p geom.Point) error {
	n := path[0]
	for depth := 0; ; depth++ {
		if n.level == 0 {
			i := lowerBoundKey(n, p)
			if i >= len(n.keys) || n.keys[i].p != p {
				return fmt.Errorf("epst: place: key %v missing from leaf", p)
			}
			n.keys[i].here = true
			n.dirty = true
			return nil
		}
		i := routeChild(n, p)
		e := &n.entries[i]
		q := t.openQ(sc, n.q)
		ys, err := t.ySet(sc, &q, n, i)
		if err != nil {
			return err
		}
		switch {
		case len(ys) >= t.yHalf() && belowAll(p, ys):
			// Y(v_i) is healthy and p lies below it: p belongs deeper.
		case int(e.ysize) < t.b:
			// p joins Y(v_i).
			e.ysize++
			n.dirty = true
			return q.Add(p)
		default:
			// p joins a full Y(v_i): its lowest point is evicted and
			// trickles into the child in p's place.
			low := p
			for _, y := range ys {
				if y.YLess(low) {
					low = y
				}
			}
			if err := q.Swap(p, low); err != nil {
				return err
			}
			p = low
		}
		if depth+1 < len(path) && path[depth+1].id == e.child {
			n = path[depth+1]
		} else if n, err = t.readNode(sc, e.child); err != nil {
			return err
		}
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
		if err := t.writeBack(sc, n); err != nil {
			return geom.Point{}, false, err
		}
		return n.keys[best].p, true, nil
	}
	q := t.openQ(sc, n.q)
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
		r, ok2, err := t.extractTop(sc, n.entries[i].child)
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

// Delete removes p, reporting whether it was present. The point is removed
// wherever it lives (a Y-set along the path or the leaf), the depleted
// Y-set is refilled by a bubble-up, the key leaves the base tree, and a
// global rebuild runs once the live count halves (Section 3.3.2).
//
// Like Insert it is one descent: the path is loaded once — looking, at each
// internal node until the point is found, into the Y-set it would be in —
// edited in memory and written once, deepest first. Only a bubble-up
// re-reads, after the nodes below it are written, so it sees (and rewrites)
// their new contents, not a stale path copy.
func (t *Tree) Delete(p geom.Point) (bool, error) {
	sc := getScratch()
	defer putScratch(sc)
	m, err := t.loadMeta(sc)
	if err != nil {
		return false, err
	}
	var holder *node          // the node whose Q stores p, if one does
	var hq smallstruct.Struct // its Q, the catalog still loaded in sc.small
	var n *node
	for id := m.root; ; id = n.entries[n.idx].child {
		if n, err = t.readNode(sc, id); err != nil {
			return false, err
		}
		if n.level == 0 {
			break
		}
		n.idx = routeChild(n, p)
		n.entries[n.idx].weight--
		n.dirty = true
		if holder == nil {
			q := t.openQ(sc, n.q)
			ys, err := t.ySet(sc, &q, n, n.idx)
			if err != nil {
				return false, err
			}
			if slices.Contains(ys, p) {
				holder, hq = n, q
			}
		}
	}
	pos := lowerBoundKey(n, p)
	if pos >= len(n.keys) || n.keys[pos].p != p {
		if holder != nil {
			return false, fmt.Errorf("epst: delete: %v is stored but has no key", p)
		}
		return false, nil
	}
	n.keys = slices.Delete(n.keys, pos, pos+1)
	n.dirty = true

	for i := sc.used - 1; i >= 0; i-- {
		n := sc.nodes[i]
		if n == holder {
			e := &n.entries[n.idx]
			if err := hq.Remove(p); err != nil {
				return false, err
			}
			e.ysize--
			if 2*int(e.ysize) < t.b {
				r, ok, err := t.extractTop(sc, e.child)
				if err != nil {
					return false, err
				}
				if ok {
					if err := hq.Add(r); err != nil {
						return false, err
					}
					e.ysize++
				}
			}
		}
		if err := t.writeBack(sc, n); err != nil {
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
