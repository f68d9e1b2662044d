package epst

import (
	"fmt"

	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
)

// CheckInvariants exhaustively audits the structural invariants of
// Section 3.3 (used by tests and by cmd/rsinspect):
//
//  1. every internal node's Q holds exactly the Y-sets recorded in its
//     child entries, each of at most B points inside the child's range;
//  2. if anything is stored below child w, |Y(w)| ≥ B/2;
//  3. Y(w) are the topmost points of w's subtree not absorbed above
//     (no stored point below w lies above min Y(w));
//  4. subtree weights equal key counts, keys are sorted and in range,
//     leaves respect the 2k−1 cap;
//  5. every point is stored exactly once and every key has its point.
func (t *Tree) CheckInvariants() error {
	sc := getScratch()
	defer putScratch(sc)
	m, err := t.loadMeta(sc)
	if err != nil {
		return err
	}
	res, err := t.check(sc, m.root, m.height)
	if err != nil {
		return err
	}
	if res.weight != m.live {
		return fmt.Errorf("epst: header live=%d but tree holds %d keys", m.live, res.weight)
	}
	if int64(res.stored) != m.live {
		return fmt.Errorf("epst: %d keys but %d stored points", m.live, res.stored)
	}
	return nil
}

type checkRes struct {
	weight int64
	stored int          // points stored in this subtree (at any depth)
	maxKey geom.Point   // true max key
	minKey geom.Point   // true min key
	points []geom.Point // all stored points of the subtree
	keys   []geom.Point // all keys of the subtree
}

func (t *Tree) check(sc *scratch, id eio.PageID, level int) (*checkRes, error) {
	defer sc.release(sc.used)
	n, err := t.readNode(sc, id)
	if err != nil {
		return nil, err
	}
	if n.level != level {
		return nil, fmt.Errorf("epst: node level %d, expected %d", n.level, level)
	}
	res := &checkRes{}
	if n.level == 0 {
		if len(n.keys) > 2*t.k-1 {
			return nil, fmt.Errorf("epst: leaf holds %d keys (max %d)", len(n.keys), 2*t.k-1)
		}
		for i, ke := range n.keys {
			if i > 0 && !n.keys[i-1].p.Less(ke.p) {
				return nil, fmt.Errorf("epst: leaf keys out of order at %d", i)
			}
			res.keys = append(res.keys, ke.p)
			if ke.here {
				res.points = append(res.points, ke.p)
				res.stored++
			}
		}
		res.weight = int64(len(n.keys))
		if len(n.keys) > 0 {
			res.minKey = n.keys[0].p
			res.maxKey = n.keys[len(n.keys)-1].p
		}
		return res, nil
	}

	q := t.openQ(sc, n.q)
	qAll, err := q.All()
	if err != nil {
		return nil, err
	}
	qSet := make(map[geom.Point]bool, len(qAll))
	for _, p := range qAll {
		if qSet[p] {
			return nil, fmt.Errorf("epst: duplicate %v in Q", p)
		}
		qSet[p] = true
	}
	res.stored = len(qAll)
	res.points = append(res.points, qAll...)

	var totalY int
	for i := range n.entries {
		e := &n.entries[i]
		sub, err := t.check(sc, e.child, level-1)
		if err != nil {
			return nil, err
		}
		if sub.weight != e.weight {
			return nil, fmt.Errorf("epst: entry %d weight %d, subtree has %d", i, e.weight, sub.weight)
		}
		// All subtree keys must lie within the child's composite range.
		for _, kp := range sub.keys {
			if !inChildRange(n, i, kp) {
				return nil, fmt.Errorf("epst: key %v outside child %d range", kp, i)
			}
		}
		// Y(child i): the Q points within the child's range.
		var ys []geom.Point
		for _, p := range qAll {
			if inChildRange(n, i, p) {
				ys = append(ys, p)
			}
		}
		if len(ys) != int(e.ysize) {
			return nil, fmt.Errorf("epst: entry %d records ysize=%d, Q holds %d", i, e.ysize, len(ys))
		}
		if len(ys) > t.b {
			return nil, fmt.Errorf("epst: Y-set of child %d has %d > B=%d points", i, len(ys), t.b)
		}
		totalY += len(ys)
		// Invariant 3: nonempty below ⇒ |Y| ≥ B/2.
		if sub.stored > 0 && len(ys) < t.yHalf() {
			return nil, fmt.Errorf("epst: child %d stores %d points below but Y-set has only %d < B/2=%d", i, sub.stored, len(ys), t.yHalf())
		}
		// Topmost property: every stored point below is ≤ every Y point
		// in (y, x) order.
		if len(ys) > 0 && len(sub.points) > 0 {
			minY := ys[0]
			for _, p := range ys[1:] {
				if p.YLess(minY) {
					minY = p
				}
			}
			for _, p := range sub.points {
				if minY.YLess(p) {
					return nil, fmt.Errorf("epst: point %v below child %d lies above Y-set min %v", p, i, minY)
				}
			}
		}
		res.weight += sub.weight
		res.stored += sub.stored
		res.points = append(res.points, sub.points...)
		res.keys = append(res.keys, sub.keys...)
	}
	if totalY != len(qAll) {
		return nil, fmt.Errorf("epst: Q holds %d points but Y-sets account for %d", len(qAll), totalY)
	}

	// Every stored point must have its key, exactly once.
	keySet := make(map[geom.Point]bool, len(res.keys))
	for _, kp := range res.keys {
		if keySet[kp] {
			return nil, fmt.Errorf("epst: duplicate key %v", kp)
		}
		keySet[kp] = true
	}
	pointSeen := make(map[geom.Point]bool, len(res.points))
	for _, p := range res.points {
		if pointSeen[p] {
			return nil, fmt.Errorf("epst: point %v stored twice", p)
		}
		pointSeen[p] = true
		if !keySet[p] {
			return nil, fmt.Errorf("epst: stored point %v has no key", p)
		}
	}
	if len(res.keys) > 0 {
		res.minKey = res.keys[0]
		res.maxKey = res.keys[0]
		for _, kp := range res.keys {
			if kp.Less(res.minKey) {
				res.minKey = kp
			}
			if res.maxKey.Less(kp) {
				res.maxKey = kp
			}
		}
	}
	return res, nil
}

// SpaceStats reports the structure's disk footprint.
type SpaceStats struct {
	Points int // live points
	Pages  int // pages allocated on the store (whole store)
	B      int
}

// BlocksPerPoint returns pages·B/points, the space blow-up versus packed
// storage (Theorem 6 promises O(1)).
func (s SpaceStats) BlocksPerPoint() float64 {
	if s.Points == 0 {
		return 0
	}
	return float64(s.Pages*s.B) / float64(s.Points)
}

// Space returns the current footprint. Pages counts every live page on the
// tree's store, so it is only meaningful when the tree is the sole tenant.
func (t *Tree) Space() (SpaceStats, error) {
	n, err := t.Len()
	if err != nil {
		return SpaceStats{}, err
	}
	return SpaceStats{Points: n, Pages: t.store.Pages(), B: t.b}, nil
}

// LevelProfile describes one level of the tree.
type LevelProfile struct {
	Level     int
	Nodes     int
	Keys      int64   // keys routed through this level (leaves: stored keys)
	Stored    int     // points stored in this level's structures
	AvgYFill  float64 // mean |Y(child)|/B over children (internal levels)
	MinYFill  float64
	QBlocks   int // small-structure index blocks at this level
	QCatPages int // small-structure catalog pages at this level
}

// Profile walks the tree and returns a per-level breakdown — the data
// behind cmd/rsinspect's report.
func (t *Tree) Profile() ([]LevelProfile, error) {
	sc := getScratch()
	defer putScratch(sc)
	m, err := t.loadMeta(sc)
	if err != nil {
		return nil, err
	}
	prof := make([]LevelProfile, m.height+1)
	for i := range prof {
		prof[i].Level = i
		prof[i].MinYFill = 1
	}
	var walk func(id eio.PageID) error
	walk = func(id eio.PageID) error {
		defer sc.release(sc.used)
		n, err := t.readNode(sc, id)
		if err != nil {
			return err
		}
		lp := &prof[n.level]
		lp.Nodes++
		if n.level == 0 {
			lp.Keys += int64(len(n.keys))
			for _, ke := range n.keys {
				if ke.here {
					lp.Stored++
				}
			}
			return nil
		}
		q := t.openQ(sc, n.q)
		qn, err := q.Len()
		if err != nil {
			return err
		}
		lp.Stored += qn
		blocks, err := q.Blocks()
		if err != nil {
			return err
		}
		lp.QBlocks += blocks
		cat, err := q.CatalogPages()
		if err != nil {
			return err
		}
		lp.QCatPages += cat
		for i := range n.entries {
			lp.Keys += n.entries[i].weight
			fill := float64(n.entries[i].ysize) / float64(t.b)
			lp.AvgYFill += fill
			if n.entries[i].weight > 0 && fill < lp.MinYFill {
				lp.MinYFill = fill
			}
			if err := walk(n.entries[i].child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(m.root); err != nil {
		return nil, err
	}
	// Normalize AvgYFill by child count per level.
	counts := make([]int, m.height+1)
	var countChildren func(id eio.PageID) error
	countChildren = func(id eio.PageID) error {
		defer sc.release(sc.used)
		n, err := t.readNode(sc, id)
		if err != nil {
			return err
		}
		if n.level == 0 {
			return nil
		}
		counts[n.level] += len(n.entries)
		for i := range n.entries {
			if err := countChildren(n.entries[i].child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := countChildren(m.root); err != nil {
		return nil, err
	}
	for i := range prof {
		if counts[i] > 0 {
			prof[i].AvgYFill /= float64(counts[i])
		} else {
			prof[i].MinYFill = 0
		}
	}
	return prof, nil
}
