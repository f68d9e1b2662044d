// Package epst implements the external priority search tree of Section 3.3
// of Arge, Samoladas & Vitter (PODS 1999) — the paper's central result
// (Theorem 6): a dynamic structure for 3-sided range queries
// (a ≤ x ≤ b, y ≥ c) storing N points in O(N/B) disk blocks that answers
// queries in O(log_B N + T/B) I/Os and performs updates in O(log_B N) I/Os
// amortized.
//
// Architecture, following the paper exactly:
//
//   - The skeleton is a weight-balanced B-tree (Section 3.2) over the
//     points' x-order (composite (x, y) keys, so duplicate x-coordinates
//     are supported). Leaves own between k and 2k−1 keys; an internal node
//     at level ℓ weighs between a^ℓk/2 and 2a^ℓk.
//
//   - Every internal node v carries a query structure Q_v — the Θ(B²)-point
//     Lemma-1 structure of internal/smallstruct — holding the Y-sets of
//     v's children: for each child w, the ≤ B points with the highest
//     y-coordinates in w's subtree not already stored higher (Figure 3).
//     If anything is stored below w, |Y(w)| ≥ B/2.
//
//   - Each leaf stores the keys in its x-range together with a flag per
//     key: whether the point is stored here or absorbed by an ancestor.
//
// Queries descend the two search paths for x = a and x = b, report from
// each visited node's Q_v in O(1 + t_v) I/Os, and enter an interior child
// only when its entire (≥ B/2-point) Y-set satisfied the query — so every
// interior visit is paid for by Θ(B) reported points (Section 3.3.1).
//
// Updates follow Section 3.3.2 (the amortized variant, which the paper
// notes is the practical choice; the worst-case scheduling machinery of
// Section 3.3.3 exists to de-amortize exactly the costs measured by the
// benchmark suite's update-tail experiment): inserts trickle points down
// through Y-sets; base-tree splits move Y-set points between the split
// halves and refill them with bubble-up promotions; deletions remove the
// point wherever it lives, refill the depleted Y-set by promoting the
// topmost point from below, and trigger a global rebuild once the live
// size halves.
//
// Duplicate-x behaviour: children of a node may share a boundary
// x-coordinate (keys are composite). Y-set retrieval queries Q_v by the
// x-interval and filters by composite range; with heavily duplicated
// x-coordinates this reads extra blocks, degrading update constants but
// never correctness.
package epst

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
	"rangesearch/internal/smallstruct"
)

// ErrDuplicate reports insertion of a point already present.
var ErrDuplicate = errors.New("epst: duplicate point")

// Tree is a handle to an external priority search tree on an eio.Store. It
// holds no data and no buffers, so any number of goroutines may query one
// Tree at once; every operation works in a scratch of its own.
type Tree struct {
	store eio.Store
	rs    *eio.RecordStore
	hdr   eio.PageID
	b     int // block capacity (points per page)
	a     int // branching parameter
	k     int // leaf parameter
	alpha int // smallstruct sweep parameter
}

// scratch is the working memory of one tree operation, taken from
// scratchPool at the public entry point and returned when it ends. It is
// per operation and not per Tree because one Tree (a reader's epoch view)
// serves concurrent queries. A run of updates (Run) is one operation.
// Buffers are recycled between operations, their contents never are: every
// view below is re-read from the store.
type scratch struct {
	small smallstruct.Scratch // node structures work here, but a Run's held nodes in their own
	hdr   eio.RecordBuf       // the header record
	// path holds node records: a query's node at each depth (root = 0), its
	// view valid while the search is below it; an update's held node i, so
	// that writing it back finds the record's pages without walking them.
	path  []eio.RecordBuf
	nodes []*node      // update path: decoded nodes, recycled with their slices
	used  int          // nodes[:used] are held by the running operation
	ys    []geom.Point // the Y-set splitPath divides between two halves
	enc   []byte       // the record being written
	run   Run          // the running update run, if any
}

// scratchPool lends the scratches of queries and walks, runPool those of
// update runs. A run's held nodes keep their node structures' catalogs and
// page buffers, memory no query needs: with one pool it spread, run by
// run, into every scratch the concurrent readers hold.
var scratchPool, runPool = newScratchPool(), newScratchPool()

func newScratchPool() *sync.Pool { return &sync.Pool{New: func() any { return new(scratch) }} }

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(sc *scratch) { putScratchTo(scratchPool, sc) }

func putScratchTo(pool *sync.Pool, sc *scratch) {
	sc.used = 0
	sc.small.Reset() // the next operation may see another store, or this one changed
	pool.Put(sc)
}

// newNode returns an empty node that is held until release gives it back
// or the operation ends. Nodes held at the same time are distinct (an
// update holds its whole root-to-leaf path while it recurses below it);
// nodes and their slices are reused once released.
func (sc *scratch) newNode(level int) *node {
	if sc.used == len(sc.nodes) {
		sc.nodes = append(sc.nodes, new(node))
	}
	n := sc.nodes[sc.used]
	n.level, n.q, n.entries, n.keys = level, eio.NilPage, n.entries[:0], n.keys[:0]
	n.id, n.slot, n.idx, n.dirty = eio.NilPage, sc.used, 0, false
	n.ys, n.edits = n.ys[:0], n.edits[:0]
	n.small.Reset()
	sc.used++
	return n
}

// release gives back every node decoded since sc.used was mark. A walker
// that keeps no node past its own return starts with
// `defer sc.release(sc.used)`, so a whole-tree walk holds one node per
// level, not one per tree node; only the nodes a Run's update loaded on
// its way down stay held, until an update leaves them or the run ends.
func (sc *scratch) release(mark int) { sc.used = mark }

// pathBuf returns record buffer i.
func (sc *scratch) pathBuf(i int) *eio.RecordBuf {
	for len(sc.path) <= i {
		sc.path = append(sc.path, eio.RecordBuf{})
	}
	return &sc.path[i]
}

// meta is the persistent header.
type meta struct {
	root   eio.PageID
	height int
	live   int64
	basis  int64
	a, k   int32
}

const metaSize = 8 + 4 + 8 + 8 + 4 + 4

// node is a decoded tree node. Exactly one of entries/keys is used.
type node struct {
	level   int
	q       eio.PageID // smallstruct catalog (internal nodes)
	entries []entry
	keys    []keyEntry // leaves: sorted by composite (x, y)

	// Bookkeeping of the update that holds the node (see Run.descend).
	id    eio.PageID // the record the node was read from
	slot  int        // its index among the held nodes = its record buffer
	idx   int        // internal node on a search path: the child taken
	dirty bool       // differs from the record; settle writes it

	// What a Run keeps of a held internal node from one update to the next.
	small smallstruct.Scratch // Q_v's catalog stays loaded here
	ys    []yset              // the Y-sets fetched for its children
	edits []smallstruct.Edit  // Q_v edits not yet written, in order
}

// yset is Y(child) of a node a Run holds, as Q_v holds it with the node's
// queued edits applied.
type yset struct {
	child int
	pts   []geom.Point
}

type entry struct {
	maxKey geom.Point
	child  eio.PageID
	weight int64
	ysize  int32 // |Y(child)| inside this node's Q
}

type keyEntry struct {
	p    geom.Point
	here bool // point stored in this leaf (vs. absorbed by an ancestor)
}

// Options configures Create/Build.
type Options struct {
	// A is the branching parameter (default max(2, B/4)).
	A int
	// K is the leaf parameter (default B).
	K int
	// Alpha is the sweep coalescing parameter of the per-node small
	// structures (default smallstruct.DefaultAlpha).
	Alpha int
}

func (o *Options) fill(pageSize int) (a, k, alpha int, err error) {
	b := eio.BlockCapacity(pageSize)
	a, k, alpha = o.A, o.K, o.Alpha
	if a == 0 {
		a = b / 4
		if a < 2 {
			a = 2
		}
	}
	if k == 0 {
		k = b
		if k < 2 {
			k = 2
		}
	}
	if alpha == 0 {
		alpha = smallstruct.DefaultAlpha
	}
	if a < 2 || k < 2 || alpha < 2 {
		return 0, 0, 0, fmt.Errorf("epst: invalid parameters a=%d k=%d alpha=%d", a, k, alpha)
	}
	return a, k, alpha, nil
}

// yHalf is the Y-set refill threshold B/2 from the paper.
func (t *Tree) yHalf() int { return t.b / 2 }

// Create makes an empty tree on store.
func Create(store eio.Store, opts Options) (*Tree, error) {
	return Build(store, opts, nil)
}

// Build bulk-loads a tree over pts (distinct points; the slice is not
// modified).
func Build(store eio.Store, opts Options, pts []geom.Point) (*Tree, error) {
	a, k, alpha, err := opts.fill(store.PageSize())
	if err != nil {
		return nil, err
	}
	t := &Tree{
		store: store,
		rs:    eio.NewRecordStore(store),
		b:     eio.BlockCapacity(store.PageSize()),
		a:     a, k: k, alpha: alpha,
	}
	if t.b < 2 {
		return nil, fmt.Errorf("epst: page size %d holds fewer than 2 points", store.PageSize())
	}
	seen := make(map[geom.Point]bool, len(pts))
	for _, p := range pts {
		if seen[p] {
			return nil, fmt.Errorf("epst: build with duplicate %v: %w", p, ErrDuplicate)
		}
		seen[p] = true
	}
	sorted := make([]geom.Point, len(pts))
	copy(sorted, pts)
	geom.SortByX(sorted)
	sc := getScratch()
	defer putScratch(sc)
	root, height, err := t.bulkBuild(sc, sorted)
	if err != nil {
		return nil, err
	}
	m := &meta{root: root, height: height, live: int64(len(pts)), basis: int64(len(pts)), a: int32(a), k: int32(k)}
	t.hdr, err = t.rs.Put(encodeMeta(nil, m))
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Open attaches to a tree previously created on store. opts must carry the
// same Alpha it was created with (A and K are read from the header).
func Open(store eio.Store, hdr eio.PageID, alpha int) (*Tree, error) {
	t := &Tree{
		store: store,
		rs:    eio.NewRecordStore(store),
		b:     eio.BlockCapacity(store.PageSize()),
		hdr:   hdr,
	}
	if alpha == 0 {
		alpha = smallstruct.DefaultAlpha
	}
	t.alpha = alpha
	sc := getScratch()
	defer putScratch(sc)
	m, err := t.loadMeta(sc)
	if err != nil {
		return nil, err
	}
	t.a, t.k = int(m.a), int(m.k)
	return t, nil
}

// HeaderID identifies the tree on its store.
func (t *Tree) HeaderID() eio.PageID { return t.hdr }

// B returns the block capacity in points.
func (t *Tree) B() int { return t.b }

// Params returns the branching and leaf parameters.
func (t *Tree) Params() (a, k int) { return t.a, t.k }

// Len returns the number of stored points.
func (t *Tree) Len() (int, error) {
	sc := getScratch()
	defer putScratch(sc)
	m, err := t.loadMeta(sc)
	return int(m.live), err
}

// Height returns the base-tree height (0 = root is a leaf).
func (t *Tree) Height() (int, error) {
	sc := getScratch()
	defer putScratch(sc)
	m, err := t.loadMeta(sc)
	return m.height, err
}

func (t *Tree) loadMeta(sc *scratch) (meta, error) {
	raw, err := t.rs.Get(t.hdr, &sc.hdr)
	if err != nil {
		return meta{}, fmt.Errorf("epst: load header: %w", err)
	}
	if len(raw) != metaSize {
		return meta{}, fmt.Errorf("epst: header length %d", len(raw))
	}
	return meta{
		root:   eio.PageID(binary.LittleEndian.Uint64(raw[0:])),
		height: int(binary.LittleEndian.Uint32(raw[8:])),
		live:   int64(binary.LittleEndian.Uint64(raw[12:])),
		basis:  int64(binary.LittleEndian.Uint64(raw[20:])),
		a:      int32(binary.LittleEndian.Uint32(raw[28:])),
		k:      int32(binary.LittleEndian.Uint32(raw[32:])),
	}, nil
}

func (t *Tree) storeMeta(sc *scratch, m *meta) error {
	sc.enc = encodeMeta(sc.enc[:0], m)
	if err := t.rs.Update(t.hdr, sc.enc, &sc.hdr); err != nil {
		return fmt.Errorf("epst: store header: %w", err)
	}
	return nil
}

// encodeMeta appends the serialized header to dst.
func encodeMeta(dst []byte, m *meta) []byte {
	dst, out := extend(dst, metaSize)
	binary.LittleEndian.PutUint64(out[0:], uint64(m.root))
	binary.LittleEndian.PutUint32(out[8:], uint32(m.height))
	binary.LittleEndian.PutUint64(out[12:], uint64(m.live))
	binary.LittleEndian.PutUint64(out[20:], uint64(m.basis))
	binary.LittleEndian.PutUint32(out[28:], uint32(m.a))
	binary.LittleEndian.PutUint32(out[32:], uint32(m.k))
	return dst
}

// extend grows dst by n zeroed bytes and returns it with the new tail.
func extend(dst []byte, n int) (whole, tail []byte) {
	off := len(dst)
	dst = slices.Grow(dst, n)[:off+n]
	clear(dst[off:])
	return dst, dst[off:]
}

// openQ attaches to a node's small structure, which works in sc.small. It
// reads nothing: the catalog is loaded by the handle's first operation and
// kept for the ones that follow on the same structure.
func (t *Tree) openQ(sc *scratch, id eio.PageID) smallstruct.Struct {
	return smallstruct.OpenScratch(t.store, id, t.alpha, &sc.small)
}

// newSmall creates a small structure over pts on the tree's store.
func newSmall(t *Tree, pts []geom.Point) (*smallstruct.Struct, error) {
	return smallstruct.Create(t.store, t.alpha, pts)
}

// keyRange returns the composite key range (lo, hi] of a child given its
// own maxKey and its left neighbour's: keys strictly greater than prev and
// at most own. The first child's range is closed at −∞ (prev is ignored),
// the last child's hi is +∞.
func keyRange(prev, own geom.Point, first, last bool) (lo, hi geom.Point, loOpen bool) {
	hi = own
	if last {
		hi = geom.Point{X: geom.MaxCoord, Y: geom.MaxCoord}
	}
	if first {
		return geom.Point{X: geom.MinCoord, Y: geom.MinCoord}, hi, false
	}
	return prev, hi, true
}

// inKeyRange reports whether p lies in the range keyRange returned.
func inKeyRange(lo, hi geom.Point, loOpen bool, p geom.Point) bool {
	if loOpen {
		if !lo.Less(p) {
			return false
		}
	} else if p.Less(lo) {
		return false
	}
	return !hi.Less(p)
}

// keyed is what the in-node searches read of a node. The record view and
// the decoded node both provide it, so each search below exists once; the
// type parameter keeps a nodeView from being boxed on the query path.
type keyed interface {
	count() int              // children (internal node) or keys (leaf)
	maxKey(i int) geom.Point // internal node: child i's maxKey
	keyAt(i int) geom.Point  // leaf: key i's point
}

// routeChild returns the index of the child whose composite range contains
// p: the first child with maxKey ≥ p (maxKeys ascend), or the last child.
func routeChild[N keyed](n N, p geom.Point) int {
	lo, hi := 0, n.count()-1
	for lo < hi {
		mid := (lo + hi) / 2
		if n.maxKey(mid).Less(p) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lowerBoundKey returns the first index i of a leaf with keyAt(i) ≥ p.
func lowerBoundKey[N keyed](n N, p geom.Point) int {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keyAt(mid).Less(p) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childRange returns the composite key range of child i of n.
func childRange[N keyed](n N, i int) (lo, hi geom.Point, loOpen bool) {
	var prev geom.Point
	if i > 0 {
		prev = n.maxKey(i - 1)
	}
	return keyRange(prev, n.maxKey(i), i == 0, i == n.count()-1)
}

// inChildRange reports whether p belongs to child i's composite range.
func inChildRange[N keyed](n N, i int, p geom.Point) bool {
	lo, hi, loOpen := childRange(n, i)
	return inKeyRange(lo, hi, loOpen, p)
}

func (n *node) count() int {
	if n.level == 0 {
		return len(n.keys)
	}
	return len(n.entries)
}
func (n *node) maxKey(i int) geom.Point { return n.entries[i].maxKey }
func (n *node) keyAt(i int) geom.Point  { return n.keys[i].p }

// ySet retrieves Y(child i) of node n from q into dst[:0]: the points of Q
// within the child's composite range. It queries by x-interval and filters
// by composite range, so shared boundary x-values cost extra reads but stay
// correct.
func (t *Tree) ySet(dst []geom.Point, q *smallstruct.Struct, n *node, i int) ([]geom.Point, error) {
	lo, hi, loOpen := childRange(n, i)
	raw, err := q.Query3(dst[:0], geom.Query3{XLo: lo.X, XHi: hi.X, YLo: geom.MinCoord})
	if err != nil {
		return raw[:0], err
	}
	out := raw[:0]
	for _, p := range raw {
		if inKeyRange(lo, hi, loOpen, p) {
			out = append(out, p)
		}
	}
	return out, nil
}

// --- node serialization ---

const nodeEntrySize = 16 + 8 + 8 + 4

// Record layouts. A leaf is level(4) count(4) then leafKeySize bytes per
// key (point, stored-here flag); an internal node is level(4) count(4)
// q(8) then nodeEntrySize bytes per child (maxKey, child, weight, ysize).
const (
	leafHdrSize = 8
	leafKeySize = eio.PointSize + 1
	nodeHdrSize = 16
)

// encodeNode appends the serialized node to dst.
func encodeNode(dst []byte, n *node) []byte {
	if n.level == 0 {
		dst, out := extend(dst, leafHdrSize+leafKeySize*len(n.keys))
		binary.LittleEndian.PutUint32(out[0:], uint32(n.level))
		binary.LittleEndian.PutUint32(out[4:], uint32(len(n.keys)))
		off := leafHdrSize
		for _, ke := range n.keys {
			eio.PutPoint(out, off, ke.p)
			if ke.here {
				out[off+eio.PointSize] = 1
			}
			off += leafKeySize
		}
		return dst
	}
	dst, out := extend(dst, nodeHdrSize+nodeEntrySize*len(n.entries))
	binary.LittleEndian.PutUint32(out[0:], uint32(n.level))
	binary.LittleEndian.PutUint32(out[4:], uint32(len(n.entries)))
	binary.LittleEndian.PutUint64(out[8:], uint64(n.q))
	off := nodeHdrSize
	for i := range n.entries {
		e := &n.entries[i]
		eio.PutPoint(out, off, e.maxKey)
		binary.LittleEndian.PutUint64(out[off+16:], uint64(e.child))
		binary.LittleEndian.PutUint64(out[off+24:], uint64(e.weight))
		binary.LittleEndian.PutUint32(out[off+32:], uint32(e.ysize))
		off += nodeEntrySize
	}
	return dst
}

// nodeView reads a node record in place: entry(i) and key(i) decode one
// child entry or leaf key from the record bytes on demand, and the in-node
// searches (routeChild, childRange, lowerBoundKey) read the bytes through
// keyed, so visiting a node allocates nothing. A view is
// valid as long as the bytes it was made from.
type nodeView struct {
	raw   []byte
	level int
	n     int // child entries (level > 0) or keys (level 0)
}

// viewNode validates raw's framing and returns a view of it.
func viewNode(raw []byte) (nodeView, error) {
	if len(raw) < leafHdrSize {
		return nodeView{}, fmt.Errorf("epst: node record too short")
	}
	v := nodeView{
		raw:   raw,
		level: int(binary.LittleEndian.Uint32(raw[0:])),
		n:     int(binary.LittleEndian.Uint32(raw[4:])),
	}
	if v.level == 0 {
		if len(raw) != leafHdrSize+leafKeySize*v.n {
			return nodeView{}, fmt.Errorf("epst: leaf record length %d for %d keys", len(raw), v.n)
		}
		return v, nil
	}
	if len(raw) != nodeHdrSize+nodeEntrySize*v.n {
		return nodeView{}, fmt.Errorf("epst: node record length %d for %d entries", len(raw), v.n)
	}
	return v, nil
}

// q returns an internal node's small-structure catalog id.
func (v nodeView) q() eio.PageID { return eio.PageID(binary.LittleEndian.Uint64(v.raw[8:])) }

func (v nodeView) count() int { return v.n }

// maxKey returns child entry i's maxKey.
func (v nodeView) maxKey(i int) geom.Point { return eio.GetPoint(v.raw, nodeHdrSize+i*nodeEntrySize) }

// keyAt returns the point of leaf key i.
func (v nodeView) keyAt(i int) geom.Point { return eio.GetPoint(v.raw, leafHdrSize+i*leafKeySize) }

// entry decodes child entry i of an internal node.
func (v nodeView) entry(i int) entry {
	off := nodeHdrSize + i*nodeEntrySize
	return entry{
		maxKey: eio.GetPoint(v.raw, off),
		child:  eio.PageID(binary.LittleEndian.Uint64(v.raw[off+16:])),
		weight: int64(binary.LittleEndian.Uint64(v.raw[off+24:])),
		ysize:  int32(binary.LittleEndian.Uint32(v.raw[off+32:])),
	}
}

// key decodes key i of a leaf.
func (v nodeView) key(i int) keyEntry {
	off := leafHdrSize + i*leafKeySize
	return keyEntry{p: eio.GetPoint(v.raw, off), here: v.raw[off+eio.PointSize] == 1}
}

// decode copies the node out of the record bytes into a node of sc: the
// mutable form the update path edits and re-encodes.
func (v nodeView) decode(sc *scratch) *node {
	n := sc.newNode(v.level)
	if v.level == 0 {
		for i := 0; i < v.n; i++ {
			n.keys = append(n.keys, v.key(i))
		}
		return n
	}
	n.q = v.q()
	for i := 0; i < v.n; i++ {
		n.entries = append(n.entries, v.entry(i))
	}
	return n
}

// viewNodeAt reads node id into the path buffer for depth and returns a
// view of it, valid until the operation reads another node at that depth.
func (t *Tree) viewNodeAt(sc *scratch, id eio.PageID, depth int) (nodeView, error) {
	raw, err := t.rs.Get(id, sc.pathBuf(depth))
	if err != nil {
		return nodeView{}, fmt.Errorf("epst: read node: %w", err)
	}
	return viewNode(raw)
}

// readNode reads and decodes node id for the update path. The node is held
// (see newNode) and remembers where it came from, for writeBack.
func (t *Tree) readNode(sc *scratch, id eio.PageID) (*node, error) {
	raw, err := t.rs.Get(id, sc.pathBuf(sc.used))
	if err != nil {
		return nil, fmt.Errorf("epst: read node: %w", err)
	}
	v, err := viewNode(raw)
	if err != nil {
		return nil, err
	}
	n := v.decode(sc)
	n.id = id
	return n, nil
}

func (t *Tree) writeNode(sc *scratch, id eio.PageID, n *node) (eio.PageID, error) {
	sc.enc = encodeNode(sc.enc[:0], n)
	if id == eio.NilPage {
		nid, err := t.rs.Put(sc.enc)
		if err != nil {
			return eio.NilPage, fmt.Errorf("epst: write node: %w", err)
		}
		return nid, nil
	}
	// Through the buffer the node was read into, which knows the record's
	// pages (RecordStore.Update checks that it still holds this record).
	if err := t.rs.Update(id, sc.enc, sc.pathBuf(n.slot)); err != nil {
		return eio.NilPage, fmt.Errorf("epst: update node: %w", err)
	}
	return id, nil
}

// writeBack writes a node that readNode returned over its record.
func (t *Tree) writeBack(sc *scratch, n *node) error {
	n.dirty = false
	_, err := t.writeNode(sc, n.id, n)
	return err
}
