// Package wbtree implements the weight-balanced B-tree of Arge and Vitter,
// reviewed in Section 3.2 of Arge, Samoladas & Vitter (PODS 1999) and used
// there as the base-tree skeleton of the external priority search tree.
//
// The tree stores a set of points ordered by geom.Point.Less — callers that
// want a one-dimensional key set (e.g. a y-sorted list) store transposed
// points. Unlike an ordinary B-tree, rebalancing is driven by node
// *weights*: a leaf holds between k and 2k−1 items, and an internal node at
// level ℓ (except the root) has weight between a^ℓk/2 and 2a^ℓk, where a is
// the branching parameter. This yields the properties the paper's update
// analysis rests on (Lemma 2): after a node at level ℓ splits, Ω(a^ℓk)
// inserts must pass through it before it splits again.
//
// All nodes are serialized to eio pages through a record store: a search or
// insert touches O(log_a N) node records of O(1) pages each, i.e.
// O(log_B N) I/Os for a = Θ(B) (Lemma 3).
//
// Deletions follow the paper's prescription for the priority search tree:
// the item is removed from its leaf and weights are decremented, but no
// fusing is performed; instead the tree is rebuilt globally once the live
// size halves, giving O(log_B N) amortized deletes while search stays
// worst-case optimal.
package wbtree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
)

// ErrDuplicate reports insertion of an item already present.
var ErrDuplicate = errors.New("wbtree: duplicate item")

// Tree is a handle to a weight-balanced B-tree stored on an eio.Store.
type Tree struct {
	store  eio.Store
	rs     *eio.RecordStore
	header eio.PageID
	a      int // branching parameter
	k      int // leaf parameter
}

// meta is the persistent header.
type meta struct {
	root   eio.PageID
	height int   // 0 = root is a leaf
	live   int64 // items currently stored
	basis  int64 // live size at last rebuild (global-rebuild trigger)
	a, k   int32
}

const metaSize = 8 + 4 + 8 + 8 + 4 + 4

// node is the decoded form of a tree node.
type node struct {
	level   int          // 0 for leaves
	entries []entry      // internal nodes
	items   []geom.Point // leaves, sorted by Less
}

type entry struct {
	maxKey geom.Point // largest item in the child's subtree
	child  eio.PageID
	weight int64
}

// DefaultParams returns the branching and leaf parameters used when zero
// values are passed to Create: a = max(2, B/4) and k = max(2, B), which
// keep every node within O(1) pages.
func DefaultParams(pageSize int) (a, k int) {
	b := eio.BlockCapacity(pageSize)
	a = b / 4
	if a < 2 {
		a = 2
	}
	k = b
	if k < 2 {
		k = 2
	}
	return a, k
}

// Create makes an empty tree on store. Zero a or k select DefaultParams.
func Create(store eio.Store, a, k int) (*Tree, error) {
	da, dk := DefaultParams(store.PageSize())
	if a == 0 {
		a = da
	}
	if k == 0 {
		k = dk
	}
	if a < 2 || k < 1 {
		return nil, fmt.Errorf("wbtree: invalid parameters a=%d k=%d", a, k)
	}
	t := &Tree{store: store, rs: eio.NewRecordStore(store), a: a, k: k}
	rootID, err := t.writeNode(eio.NilPage, &node{level: 0})
	if err != nil {
		return nil, err
	}
	m := &meta{root: rootID, a: int32(a), k: int32(k)}
	t.header, err = t.rs.Put(encodeMeta(m))
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Open attaches to a tree previously created on store.
func Open(store eio.Store, header eio.PageID) (*Tree, error) {
	t := &Tree{store: store, rs: eio.NewRecordStore(store), header: header}
	m, err := t.loadMeta()
	if err != nil {
		return nil, err
	}
	t.a, t.k = int(m.a), int(m.k)
	return t, nil
}

// HeaderID identifies the tree on its store; pass it to Open to re-attach.
func (t *Tree) HeaderID() eio.PageID { return t.header }

// Params returns the branching and leaf parameters.
func (t *Tree) Params() (a, k int) { return t.a, t.k }

func (t *Tree) loadMeta() (*meta, error) {
	raw, err := t.rs.Get(t.header, nil)
	if err != nil {
		return nil, fmt.Errorf("wbtree: load header: %w", err)
	}
	return decodeMeta(raw)
}

func (t *Tree) storeMeta(m *meta) error {
	if err := t.rs.Update(t.header, encodeMeta(m), nil); err != nil {
		return fmt.Errorf("wbtree: store header: %w", err)
	}
	return nil
}

// Len returns the number of stored items.
func (t *Tree) Len() (int, error) {
	m, err := t.loadMeta()
	if err != nil {
		return 0, err
	}
	return int(m.live), nil
}

// Height returns the tree height (0 when the root is a leaf).
func (t *Tree) Height() (int, error) {
	m, err := t.loadMeta()
	if err != nil {
		return 0, err
	}
	return m.height, nil
}

// Contains reports whether p is stored.
func (t *Tree) Contains(p geom.Point) (bool, error) {
	m, err := t.loadMeta()
	if err != nil {
		return false, err
	}
	id := m.root
	for {
		n, err := t.readNode(id)
		if err != nil {
			return false, err
		}
		if n.level == 0 {
			for _, q := range n.items {
				if q == p {
					return true, nil
				}
			}
			return false, nil
		}
		id = n.entries[routeChild(n, p)].child
	}
}

// routeChild returns the index of the child whose subtree p belongs to:
// the first child with maxKey ≥ p, or the last child.
func routeChild(n *node, p geom.Point) int {
	for i := range n.entries {
		if !n.entries[i].maxKey.Less(p) {
			return i
		}
	}
	return len(n.entries) - 1
}

// Insert adds p, returning ErrDuplicate if already present.
func (t *Tree) Insert(p geom.Point) error {
	m, err := t.loadMeta()
	if err != nil {
		return err
	}

	// Descend to the leaf, recording the path.
	type pathEl struct {
		id  eio.PageID
		n   *node
		idx int // child index taken
	}
	var path []pathEl
	id := m.root
	for {
		n, err := t.readNode(id)
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

	// Insert into the leaf in sorted position.
	leaf := path[len(path)-1].n
	pos := lowerBound(leaf.items, p)
	if pos < len(leaf.items) && leaf.items[pos] == p {
		return fmt.Errorf("wbtree: insert %v: %w", p, ErrDuplicate)
	}
	leaf.items = append(leaf.items, geom.Point{})
	copy(leaf.items[pos+1:], leaf.items[pos:])
	leaf.items[pos] = p

	// Walk back up: update weights and maxKeys, splitting as needed.
	// carry describes a child split performed one level below: the left
	// half's exact weight/maxKey and the new right sibling to add.
	type carryT struct {
		leftWeight  int64
		leftMax     geom.Point
		rightID     eio.PageID
		rightWeight int64
		rightMax    geom.Point
	}
	var carry *carryT
	for i := len(path) - 1; i >= 0; i-- {
		el := path[i]
		n := el.n
		if n.level > 0 {
			e := &n.entries[el.idx]
			if carry != nil {
				// Exact bookkeeping for the split child (its new weight
				// already includes the inserted item) plus the sibling.
				e.weight = carry.leftWeight
				e.maxKey = carry.leftMax
				n.entries = append(n.entries, entry{})
				copy(n.entries[el.idx+2:], n.entries[el.idx+1:])
				n.entries[el.idx+1] = entry{maxKey: carry.rightMax, child: carry.rightID, weight: carry.rightWeight}
				carry = nil
			} else {
				e.weight++
				if e.maxKey.Less(p) {
					e.maxKey = p
				}
			}
		}

		var right *node
		switch {
		case n.level == 0 && len(n.items) >= 2*t.k:
			right = &node{level: 0, items: append([]geom.Point(nil), n.items[t.k:]...)}
			n.items = n.items[:t.k]
		case n.level > 0 && nodeWeight(n) >= 2*t.levelCap(n.level):
			right = t.splitInternal(n)
		}

		if right == nil {
			if err := t.writeBack(el.id, n); err != nil {
				return err
			}
			continue
		}
		rightID, err := t.writeNode(eio.NilPage, right)
		if err != nil {
			return err
		}
		if err := t.writeBack(el.id, n); err != nil {
			return err
		}
		if i > 0 {
			carry = &carryT{
				leftWeight:  nodeWeight(n),
				leftMax:     nodeMaxKey(n),
				rightID:     rightID,
				rightWeight: nodeWeight(right),
				rightMax:    nodeMaxKey(right),
			}
			continue
		}
		// Root split: grow the tree.
		newRoot := &node{
			level: n.level + 1,
			entries: []entry{
				{maxKey: nodeMaxKey(n), child: el.id, weight: nodeWeight(n)},
				{maxKey: nodeMaxKey(right), child: rightID, weight: nodeWeight(right)},
			},
		}
		rootID, err := t.writeNode(eio.NilPage, newRoot)
		if err != nil {
			return err
		}
		m.root = rootID
		m.height = newRoot.level
	}

	m.live++
	if m.live > m.basis {
		m.basis = m.live
	}
	return t.storeMeta(m)
}

// levelCap returns a^ℓ·k, the weight unit for level ℓ, saturating to avoid
// overflow on deep trees.
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

// splitInternal splits n by weight: the split point is the child boundary
// closest to half the node's weight. It returns the new right node; n keeps
// the left half.
func (t *Tree) splitInternal(n *node) *node {
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
		return int64(len(n.items))
	}
	var w int64
	for i := range n.entries {
		w += n.entries[i].weight
	}
	return w
}

func nodeMaxKey(n *node) geom.Point {
	if n.level == 0 {
		return n.items[len(n.items)-1]
	}
	return n.entries[len(n.entries)-1].maxKey
}

// Delete removes p, reporting whether it was present. The leaf shrinks in
// place; once the live size falls below half the rebuild basis, the whole
// tree is rebuilt (O(log_B N) amortized).
func (t *Tree) Delete(p geom.Point) (bool, error) {
	m, err := t.loadMeta()
	if err != nil {
		return false, err
	}
	type pathEl struct {
		id  eio.PageID
		n   *node
		idx int
	}
	var path []pathEl
	id := m.root
	for {
		n, err := t.readNode(id)
		if err != nil {
			return false, err
		}
		if n.level == 0 {
			path = append(path, pathEl{id: id, n: n})
			break
		}
		idx := routeChild(n, p)
		path = append(path, pathEl{id: id, n: n, idx: idx})
		id = n.entries[idx].child
	}
	leaf := path[len(path)-1].n
	pos := lowerBound(leaf.items, p)
	if pos >= len(leaf.items) || leaf.items[pos] != p {
		return false, nil
	}
	leaf.items = append(leaf.items[:pos], leaf.items[pos+1:]...)
	for i := len(path) - 1; i >= 0; i-- {
		el := path[i]
		if el.n.level > 0 {
			el.n.entries[el.idx].weight--
			// maxKey may now be stale (too large); routing stays correct
			// because maxKey only ever over-approximates the subtree.
		}
		if err := t.writeBack(el.id, el.n); err != nil {
			return false, err
		}
	}
	m.live--
	if m.live*2 < m.basis {
		if err := t.rebuild(m); err != nil {
			return false, err
		}
		return true, nil
	}
	return true, t.storeMeta(m)
}

// rebuild bulk-reconstructs the tree from its live items.
func (t *Tree) rebuild(m *meta) error {
	var items []geom.Point
	if err := t.scanSubtree(m.root, &items); err != nil {
		return err
	}
	// Shadow-paging order: build the replacement tree and commit the new
	// root before freeing the old one. A failure mid-build then leaves the
	// previous tree fully intact (the half-built pages leak, which is
	// recoverable), instead of a committed root pointing at freed pages.
	oldRoot := m.root
	rootID, height, err := t.bulkBuild(items)
	if err != nil {
		return err
	}
	m.root = rootID
	m.height = height
	m.live = int64(len(items))
	m.basis = m.live
	if err := t.storeMeta(m); err != nil {
		return err
	}
	return t.freeSubtree(oldRoot)
}

// BulkLoad replaces the tree contents with items (which must be sorted by
// Less and distinct). It is the fastest way to build a large tree.
func (t *Tree) BulkLoad(items []geom.Point) error {
	for i := 1; i < len(items); i++ {
		if !items[i-1].Less(items[i]) {
			return fmt.Errorf("wbtree: bulk load items not sorted/distinct at %d", i)
		}
	}
	m, err := t.loadMeta()
	if err != nil {
		return err
	}
	// Shadow-paging order (as in rebuild): build and commit the new tree
	// before freeing the old one, so a failure mid-build cannot leave the
	// committed root pointing at freed pages.
	oldRoot := m.root
	rootID, height, err := t.bulkBuild(items)
	if err != nil {
		return err
	}
	m.root = rootID
	m.height = height
	m.live = int64(len(items))
	m.basis = m.live
	if err := t.storeMeta(m); err != nil {
		return err
	}
	return t.freeSubtree(oldRoot)
}

// bulkBuild writes a tree over sorted items and returns its root and
// height. Leaves are evenly sized around 1.5k items; internal levels are
// packed by weight toward a^ℓ·k per node, leaving slack in both directions.
func (t *Tree) bulkBuild(items []geom.Point) (eio.PageID, int, error) {
	type built struct {
		id     eio.PageID
		maxKey geom.Point
		weight int64
	}
	if len(items) == 0 {
		id, err := t.writeNode(eio.NilPage, &node{level: 0})
		return id, 0, err
	}
	// Even leaf distribution: g leaves of size n/g ± 1, with g chosen so
	// every leaf is within [1, 2k−1] and near 1.5k when possible.
	g := (len(items) + (t.k + t.k/2) - 1) / (t.k + t.k/2)
	if g < 1 {
		g = 1
	}
	for len(items) > g*(2*t.k-1) {
		g++
	}
	var level []built
	for i := 0; i < g; i++ {
		lo := i * len(items) / g
		hi := (i + 1) * len(items) / g
		if lo == hi {
			continue
		}
		n := &node{level: 0, items: append([]geom.Point(nil), items[lo:hi]...)}
		id, err := t.writeNode(eio.NilPage, n)
		if err != nil {
			return eio.NilPage, 0, err
		}
		level = append(level, built{id: id, maxKey: n.items[len(n.items)-1], weight: int64(len(n.items))})
	}
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
			id, err := t.writeNode(eio.NilPage, cur)
			if err != nil {
				return err
			}
			up = append(up, built{id: id, maxKey: nodeMaxKey(cur), weight: nodeWeight(cur)})
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
	return level[0].id, height, nil
}

// Range calls fn for every stored item q with lo ≤ q ≤ hi (in Less order),
// stopping early if fn returns false.
func (t *Tree) Range(lo, hi geom.Point, fn func(geom.Point) bool) error {
	if hi.Less(lo) {
		return nil
	}
	m, err := t.loadMeta()
	if err != nil {
		return err
	}
	_, err = t.rangeRec(m.root, lo, hi, fn)
	return err
}

func (t *Tree) rangeRec(id eio.PageID, lo, hi geom.Point, fn func(geom.Point) bool) (bool, error) {
	n, err := t.readNode(id)
	if err != nil {
		return false, err
	}
	if n.level == 0 {
		for _, q := range n.items {
			if q.Less(lo) {
				continue
			}
			if hi.Less(q) {
				return false, nil
			}
			if !fn(q) {
				return false, nil
			}
		}
		return true, nil
	}
	for i := range n.entries {
		e := &n.entries[i]
		// maxKey over-approximates the subtree maximum (deletions leave it
		// stale high), so it may only be used to *skip* children below the
		// range — never to stop early. Termination beyond hi is driven by
		// the leaf scan returning false at the first item above hi.
		if e.maxKey.Less(lo) {
			continue
		}
		cont, err := t.rangeRec(e.child, lo, hi, fn)
		if err != nil {
			return false, err
		}
		if !cont {
			return false, nil
		}
	}
	return true, nil
}

// Min returns the smallest item; ok is false when empty.
func (t *Tree) Min() (geom.Point, bool, error) {
	var out geom.Point
	found := false
	err := t.Range(geom.Point{X: geom.MinCoord, Y: geom.MinCoord}, geom.Point{X: geom.MaxCoord, Y: geom.MaxCoord}, func(p geom.Point) bool {
		out = p
		found = true
		return false
	})
	return out, found, err
}

// Max returns the largest item; ok is false when empty.
func (t *Tree) Max() (geom.Point, bool, error) {
	m, err := t.loadMeta()
	if err != nil {
		return geom.Point{}, false, err
	}
	id := m.root
	for {
		n, err := t.readNode(id)
		if err != nil {
			return geom.Point{}, false, err
		}
		if n.level == 0 {
			if len(n.items) == 0 {
				return geom.Point{}, false, nil
			}
			return n.items[len(n.items)-1], true, nil
		}
		// Deleted maxima can leave trailing empty subtrees; walk from the
		// heaviest valid entry.
		idx := len(n.entries) - 1
		for idx > 0 && n.entries[idx].weight == 0 {
			idx--
		}
		id = n.entries[idx].child
	}
}

// scanSubtree appends every item under id to out, in order.
func (t *Tree) scanSubtree(id eio.PageID, out *[]geom.Point) error {
	n, err := t.readNode(id)
	if err != nil {
		return err
	}
	if n.level == 0 {
		*out = append(*out, n.items...)
		return nil
	}
	for i := range n.entries {
		if err := t.scanSubtree(n.entries[i].child, out); err != nil {
			return err
		}
	}
	return nil
}

// freeSubtree releases every record under and including id.
func (t *Tree) freeSubtree(id eio.PageID) error {
	n, err := t.readNode(id)
	if err != nil {
		return err
	}
	if n.level > 0 {
		for i := range n.entries {
			if err := t.freeSubtree(n.entries[i].child); err != nil {
				return err
			}
		}
	}
	return t.rs.Delete(id)
}

// Destroy frees the whole tree including its header.
func (t *Tree) Destroy() error {
	m, err := t.loadMeta()
	if err != nil {
		return err
	}
	if err := t.freeSubtree(m.root); err != nil {
		return err
	}
	return t.rs.Delete(t.header)
}

// CheckInvariants walks the tree verifying ordering, weights, and (for
// trees that have seen no deletions) the weight-balance constraints.
// strict enables the lower-bound weight checks.
func (t *Tree) CheckInvariants(strict bool) error {
	m, err := t.loadMeta()
	if err != nil {
		return err
	}
	var walk func(id eio.PageID, level int, isRoot bool) (int64, geom.Point, error)
	walk = func(id eio.PageID, level int, isRoot bool) (int64, geom.Point, error) {
		n, err := t.readNode(id)
		if err != nil {
			return 0, geom.Point{}, err
		}
		if n.level != level {
			return 0, geom.Point{}, fmt.Errorf("wbtree: node at level %d recorded as %d", level, n.level)
		}
		if n.level == 0 {
			for i := 1; i < len(n.items); i++ {
				if !n.items[i-1].Less(n.items[i]) {
					return 0, geom.Point{}, fmt.Errorf("wbtree: leaf items out of order")
				}
			}
			if len(n.items) > 2*t.k-1 {
				return 0, geom.Point{}, fmt.Errorf("wbtree: leaf has %d items (max %d)", len(n.items), 2*t.k-1)
			}
			if strict && !isRoot && len(n.items) < t.k {
				return 0, geom.Point{}, fmt.Errorf("wbtree: leaf has %d items (min %d)", len(n.items), t.k)
			}
			var mk geom.Point
			if len(n.items) > 0 {
				mk = n.items[len(n.items)-1]
			}
			return int64(len(n.items)), mk, nil
		}
		if len(n.entries) == 0 {
			return 0, geom.Point{}, fmt.Errorf("wbtree: internal node with no children")
		}
		var w int64
		var prevMax geom.Point
		for i := range n.entries {
			cw, cmk, err := walk(n.entries[i].child, level-1, false)
			if err != nil {
				return 0, geom.Point{}, err
			}
			if cw != n.entries[i].weight {
				return 0, geom.Point{}, fmt.Errorf("wbtree: entry weight %d, subtree weight %d", n.entries[i].weight, cw)
			}
			if cw > 0 {
				if cmk.Less(prevMax) && i > 0 {
					return 0, geom.Point{}, fmt.Errorf("wbtree: children out of order")
				}
				if n.entries[i].maxKey.Less(cmk) {
					return 0, geom.Point{}, fmt.Errorf("wbtree: maxKey %v under-approximates subtree max %v", n.entries[i].maxKey, cmk)
				}
				prevMax = cmk
			}
			w += cw
		}
		cap := t.levelCap(level)
		if w > 2*cap {
			return 0, geom.Point{}, fmt.Errorf("wbtree: level-%d node weight %d exceeds %d", level, w, 2*cap)
		}
		if strict && !isRoot && w < cap/4 {
			return 0, geom.Point{}, fmt.Errorf("wbtree: level-%d node weight %d below %d", level, w, cap/4)
		}
		return w, n.entries[len(n.entries)-1].maxKey, nil
	}
	w, _, err := walk(m.root, m.height, true)
	if err != nil {
		return err
	}
	if w != m.live {
		return fmt.Errorf("wbtree: live count %d, tree holds %d", m.live, w)
	}
	return nil
}

// lowerBound returns the first index i with items[i] ≥ p.
func lowerBound(items []geom.Point, p geom.Point) int {
	lo, hi := 0, len(items)
	for lo < hi {
		mid := (lo + hi) / 2
		if items[mid].Less(p) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// --- serialization ---

func (t *Tree) readNode(id eio.PageID) (*node, error) {
	raw, err := t.rs.Get(id, nil)
	if err != nil {
		return nil, fmt.Errorf("wbtree: read node: %w", err)
	}
	return decodeNode(raw)
}

// writeNode stores n, allocating a record when id is NilPage; it returns
// the record id.
func (t *Tree) writeNode(id eio.PageID, n *node) (eio.PageID, error) {
	raw := encodeNode(n)
	if id == eio.NilPage {
		nid, err := t.rs.Put(raw)
		if err != nil {
			return eio.NilPage, fmt.Errorf("wbtree: write node: %w", err)
		}
		return nid, nil
	}
	if err := t.rs.Update(id, raw, nil); err != nil {
		return eio.NilPage, fmt.Errorf("wbtree: update node: %w", err)
	}
	return id, nil
}

func (t *Tree) writeBack(id eio.PageID, n *node) error {
	_, err := t.writeNode(id, n)
	return err
}

const entrySize = 16 + 8 + 8

func encodeNode(n *node) []byte {
	if n.level == 0 {
		out := make([]byte, 8+eio.PointSize*len(n.items))
		binary.LittleEndian.PutUint32(out[0:], uint32(n.level))
		binary.LittleEndian.PutUint32(out[4:], uint32(len(n.items)))
		off := 8
		for _, p := range n.items {
			eio.PutPoint(out, off, p)
			off += eio.PointSize
		}
		return out
	}
	out := make([]byte, 8+entrySize*len(n.entries))
	binary.LittleEndian.PutUint32(out[0:], uint32(n.level))
	binary.LittleEndian.PutUint32(out[4:], uint32(len(n.entries)))
	off := 8
	for i := range n.entries {
		e := &n.entries[i]
		eio.PutPoint(out, off, e.maxKey)
		binary.LittleEndian.PutUint64(out[off+16:], uint64(e.child))
		binary.LittleEndian.PutUint64(out[off+24:], uint64(e.weight))
		off += entrySize
	}
	return out
}

func decodeNode(raw []byte) (*node, error) {
	if len(raw) < 8 {
		return nil, fmt.Errorf("wbtree: node record too short")
	}
	level := int(binary.LittleEndian.Uint32(raw[0:]))
	count := int(binary.LittleEndian.Uint32(raw[4:]))
	n := &node{level: level}
	off := 8
	if level == 0 {
		if len(raw) != 8+eio.PointSize*count {
			return nil, fmt.Errorf("wbtree: leaf record length %d for %d items", len(raw), count)
		}
		n.items = make([]geom.Point, count)
		for i := 0; i < count; i++ {
			n.items[i] = eio.GetPoint(raw, off)
			off += eio.PointSize
		}
		return n, nil
	}
	if len(raw) != 8+entrySize*count {
		return nil, fmt.Errorf("wbtree: node record length %d for %d entries", len(raw), count)
	}
	n.entries = make([]entry, count)
	for i := 0; i < count; i++ {
		n.entries[i] = entry{
			maxKey: eio.GetPoint(raw, off),
			child:  eio.PageID(binary.LittleEndian.Uint64(raw[off+16:])),
			weight: int64(binary.LittleEndian.Uint64(raw[off+24:])),
		}
		off += entrySize
	}
	return n, nil
}

func encodeMeta(m *meta) []byte {
	out := make([]byte, metaSize)
	binary.LittleEndian.PutUint64(out[0:], uint64(m.root))
	binary.LittleEndian.PutUint32(out[8:], uint32(m.height))
	binary.LittleEndian.PutUint64(out[12:], uint64(m.live))
	binary.LittleEndian.PutUint64(out[20:], uint64(m.basis))
	binary.LittleEndian.PutUint32(out[28:], uint32(m.a))
	binary.LittleEndian.PutUint32(out[32:], uint32(m.k))
	return out
}

func decodeMeta(raw []byte) (*meta, error) {
	if len(raw) != metaSize {
		return nil, fmt.Errorf("wbtree: header length %d", len(raw))
	}
	return &meta{
		root:   eio.PageID(binary.LittleEndian.Uint64(raw[0:])),
		height: int(binary.LittleEndian.Uint32(raw[8:])),
		live:   int64(binary.LittleEndian.Uint64(raw[12:])),
		basis:  int64(binary.LittleEndian.Uint64(raw[20:])),
		a:      int32(binary.LittleEndian.Uint32(raw[28:])),
		k:      int32(binary.LittleEndian.Uint32(raw[32:])),
	}, nil
}
