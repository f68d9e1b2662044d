// Package range4 implements the dynamic 4-sided range search structure of
// Section 4 of Arge, Samoladas & Vitter (PODS 1999) (Theorem 7): general
// orthogonal range queries [a,b]×[c,d] over N points in
// O(n·log n / log log_B N) disk blocks with O(log_B N + t) reporting and
// O(log_B N · log n / log log_B N) updates.
//
// A weight-balanced base tree with fan-out ρ = Θ(log_B N) partitions the
// points by x. Every internal node stores the points of its x-range in
// auxiliary structures (so each point is replicated once per level — the
// source of the log n / log ρ space factor):
//
//   - a left-open 3-sided structure (external priority search tree over
//     points transposed to (y, −x)) answering x ≤ b ∧ c ≤ y ≤ d;
//   - a right-open 3-sided structure (transposed to (y, x)) answering
//     x ≥ a ∧ c ≤ y ≤ d;
//   - a y-sorted list (weight-balanced B-tree keyed (y, x)).
//
// A query finds the lowest node whose x-range covers [a, b]; the two
// boundary children answer their parts through their 3-sided structures in
// O(log_B N + t) I/Os, and each fully-spanned child reports its y-slab from
// its y-sorted list.
//
// Substitution note (recorded in DESIGN.md): the paper links each spanned
// child's y-list entry point through an external interval tree over y-link
// segments, making all ρ entry lookups cost O(log_B N + ρ) together. Those
// links require raw block pointers between structures; this implementation
// instead enters each spanned child's y-list by search, paying
// O(log_B weight) per spanned child — an additive O(ρ·log_B N) term in the
// worst case, measured by experiment E10. Space, updates, and the
// output-linear O(t) term match the paper.
package range4

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rangesearch/internal/eio"
	"rangesearch/internal/epst"
	"rangesearch/internal/geom"
	"rangesearch/internal/wbtree"
)

// ErrDuplicate reports insertion of a point already present.
var ErrDuplicate = errors.New("range4: duplicate point")

// ErrCoordRange reports a point using a reserved sentinel coordinate.
var ErrCoordRange = errors.New("range4: coordinate out of storable range")

// Tree is a handle to a 4-sided range search structure on an eio.Store.
type Tree struct {
	store eio.Store
	rs    *eio.RecordStore
	hdr   eio.PageID
	b     int
	rho   int // base-tree fan-out parameter
	k     int // leaf parameter
}

// Options configures Create/Build.
type Options struct {
	// Rho is the base-tree fan-out (default max(2, B/4); the paper
	// suggests Θ(log_B N), which callers targeting a known N can pass).
	Rho int
	// K is the leaf parameter (default B).
	K int
}

func (o *Options) fill(pageSize int) (rho, k int, err error) {
	b := eio.BlockCapacity(pageSize)
	rho, k = o.Rho, o.K
	if rho == 0 {
		rho = b / 4
		if rho < 2 {
			rho = 2
		}
	}
	if k == 0 {
		k = b
		if k < 2 {
			k = 2
		}
	}
	if rho < 2 || k < 2 {
		return 0, 0, fmt.Errorf("range4: invalid parameters rho=%d k=%d", rho, k)
	}
	return rho, k, nil
}

type meta struct {
	root   eio.PageID
	height int
	live   int64
	basis  int64
	rho, k int32
}

const metaSize = 8 + 4 + 8 + 8 + 4 + 4

// node is a decoded base-tree node.
type node struct {
	level   int
	left    eio.PageID // left-open EPST header (internal only)
	right   eio.PageID // right-open EPST header
	ylist   eio.PageID // y-sorted wbtree header
	entries []entry
	pts     []geom.Point // leaves: sorted by (x, y)
}

type entry struct {
	maxKey geom.Point
	child  eio.PageID
	weight int64
}

// Coordinate transforms between original and stored orientations.

func toRight(p geom.Point) geom.Point   { return geom.Point{X: p.Y, Y: p.X} }
func fromRight(p geom.Point) geom.Point { return geom.Point{X: p.Y, Y: p.X} }
func toLeft(p geom.Point) geom.Point    { return geom.Point{X: p.Y, Y: -p.X} }
func fromLeft(p geom.Point) geom.Point  { return geom.Point{X: -p.Y, Y: p.X} }

func checkCoord(p geom.Point) error {
	if p.X == geom.MinCoord || p.X == geom.MaxCoord || p.Y == geom.MinCoord || p.Y == geom.MaxCoord {
		return fmt.Errorf("range4: %v: %w", p, ErrCoordRange)
	}
	return nil
}

// Create makes an empty tree on store.
func Create(store eio.Store, opts Options) (*Tree, error) {
	return Build(store, opts, nil)
}

// Build bulk-loads a tree over pts (distinct points with non-sentinel
// coordinates; the slice is not modified).
func Build(store eio.Store, opts Options, pts []geom.Point) (*Tree, error) {
	rho, k, err := opts.fill(store.PageSize())
	if err != nil {
		return nil, err
	}
	t := &Tree{
		store: store,
		rs:    eio.NewRecordStore(store),
		b:     eio.BlockCapacity(store.PageSize()),
		rho:   rho, k: k,
	}
	seen := make(map[geom.Point]bool, len(pts))
	for _, p := range pts {
		if err := checkCoord(p); err != nil {
			return nil, err
		}
		if seen[p] {
			return nil, fmt.Errorf("range4: build with duplicate %v: %w", p, ErrDuplicate)
		}
		seen[p] = true
	}
	sorted := make([]geom.Point, len(pts))
	copy(sorted, pts)
	geom.SortByX(sorted)
	root, height, err := t.bulkBuild(sorted)
	if err != nil {
		return nil, err
	}
	m := &meta{root: root, height: height, live: int64(len(pts)), basis: int64(len(pts)), rho: int32(rho), k: int32(k)}
	t.hdr, err = t.rs.Put(encodeMeta(m))
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Open re-attaches to a tree previously created on store.
func Open(store eio.Store, hdr eio.PageID) (*Tree, error) {
	t := &Tree{
		store: store,
		rs:    eio.NewRecordStore(store),
		b:     eio.BlockCapacity(store.PageSize()),
		hdr:   hdr,
	}
	m, err := t.loadMeta()
	if err != nil {
		return nil, err
	}
	t.rho, t.k = int(m.rho), int(m.k)
	return t, nil
}

// HeaderID identifies the tree on its store.
func (t *Tree) HeaderID() eio.PageID { return t.hdr }

// Params returns the fan-out and leaf parameters.
func (t *Tree) Params() (rho, k int) { return t.rho, t.k }

// Len returns the number of stored points.
func (t *Tree) Len() (int, error) {
	m, err := t.loadMeta()
	if err != nil {
		return 0, err
	}
	return int(m.live), nil
}

// Height returns the base-tree height.
func (t *Tree) Height() (int, error) {
	m, err := t.loadMeta()
	if err != nil {
		return 0, err
	}
	return m.height, nil
}

func (t *Tree) loadMeta() (*meta, error) {
	raw, err := t.rs.Get(t.hdr, nil)
	if err != nil {
		return nil, fmt.Errorf("range4: load header: %w", err)
	}
	if len(raw) != metaSize {
		return nil, fmt.Errorf("range4: header length %d", len(raw))
	}
	return &meta{
		root:   eio.PageID(binary.LittleEndian.Uint64(raw[0:])),
		height: int(binary.LittleEndian.Uint32(raw[8:])),
		live:   int64(binary.LittleEndian.Uint64(raw[12:])),
		basis:  int64(binary.LittleEndian.Uint64(raw[20:])),
		rho:    int32(binary.LittleEndian.Uint32(raw[28:])),
		k:      int32(binary.LittleEndian.Uint32(raw[32:])),
	}, nil
}

func (t *Tree) storeMeta(m *meta) error {
	if err := t.rs.Update(t.hdr, encodeMeta(m), nil); err != nil {
		return fmt.Errorf("range4: store header: %w", err)
	}
	return nil
}

func encodeMeta(m *meta) []byte {
	out := make([]byte, metaSize)
	binary.LittleEndian.PutUint64(out[0:], uint64(m.root))
	binary.LittleEndian.PutUint32(out[8:], uint32(m.height))
	binary.LittleEndian.PutUint64(out[12:], uint64(m.live))
	binary.LittleEndian.PutUint64(out[20:], uint64(m.basis))
	binary.LittleEndian.PutUint32(out[28:], uint32(m.rho))
	binary.LittleEndian.PutUint32(out[32:], uint32(m.k))
	return out
}

// --- node serialization ---

const entrySize = 16 + 8 + 8

func encodeNode(n *node) []byte {
	if n.level == 0 {
		out := make([]byte, 8+eio.PointSize*len(n.pts))
		binary.LittleEndian.PutUint32(out[0:], uint32(n.level))
		binary.LittleEndian.PutUint32(out[4:], uint32(len(n.pts)))
		off := 8
		for _, p := range n.pts {
			eio.PutPoint(out, off, p)
			off += eio.PointSize
		}
		return out
	}
	out := make([]byte, 32+entrySize*len(n.entries))
	binary.LittleEndian.PutUint32(out[0:], uint32(n.level))
	binary.LittleEndian.PutUint32(out[4:], uint32(len(n.entries)))
	binary.LittleEndian.PutUint64(out[8:], uint64(n.left))
	binary.LittleEndian.PutUint64(out[16:], uint64(n.right))
	binary.LittleEndian.PutUint64(out[24:], uint64(n.ylist))
	off := 32
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
		return nil, fmt.Errorf("range4: node record too short")
	}
	level := int(binary.LittleEndian.Uint32(raw[0:]))
	count := int(binary.LittleEndian.Uint32(raw[4:]))
	n := &node{level: level}
	if level == 0 {
		if len(raw) != 8+eio.PointSize*count {
			return nil, fmt.Errorf("range4: leaf record length %d for %d points", len(raw), count)
		}
		n.pts = make([]geom.Point, count)
		off := 8
		for i := 0; i < count; i++ {
			n.pts[i] = eio.GetPoint(raw, off)
			off += eio.PointSize
		}
		return n, nil
	}
	if len(raw) != 32+entrySize*count {
		return nil, fmt.Errorf("range4: node record length %d for %d entries", len(raw), count)
	}
	n.left = eio.PageID(binary.LittleEndian.Uint64(raw[8:]))
	n.right = eio.PageID(binary.LittleEndian.Uint64(raw[16:]))
	n.ylist = eio.PageID(binary.LittleEndian.Uint64(raw[24:]))
	n.entries = make([]entry, count)
	off := 32
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

func (t *Tree) readNode(id eio.PageID) (*node, error) {
	raw, err := t.rs.Get(id, nil)
	if err != nil {
		return nil, fmt.Errorf("range4: read node: %w", err)
	}
	return decodeNode(raw)
}

func (t *Tree) writeNode(id eio.PageID, n *node) (eio.PageID, error) {
	raw := encodeNode(n)
	if id == eio.NilPage {
		nid, err := t.rs.Put(raw)
		if err != nil {
			return eio.NilPage, fmt.Errorf("range4: write node: %w", err)
		}
		return nid, nil
	}
	if err := t.rs.Update(id, raw, nil); err != nil {
		return eio.NilPage, fmt.Errorf("range4: update node: %w", err)
	}
	return id, nil
}

func (t *Tree) writeBack(id eio.PageID, n *node) error {
	_, err := t.writeNode(id, n)
	return err
}

func routeChild(n *node, p geom.Point) int {
	for i := range n.entries {
		if !n.entries[i].maxKey.Less(p) {
			return i
		}
	}
	return len(n.entries) - 1
}

func nodeWeight(n *node) int64 {
	if n.level == 0 {
		return int64(len(n.pts))
	}
	var w int64
	for i := range n.entries {
		w += n.entries[i].weight
	}
	return w
}

func nodeMaxKey(n *node) geom.Point {
	if n.level == 0 {
		return n.pts[len(n.pts)-1]
	}
	return n.entries[len(n.entries)-1].maxKey
}

func lowerBoundPts(pts []geom.Point, p geom.Point) int {
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := (lo + hi) / 2
		if pts[mid].Less(p) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// aux bundles the three auxiliary structures of an internal node.
type aux struct {
	left  *epst.Tree
	right *epst.Tree
	ylist *wbtree.Tree
}

func (t *Tree) openAux(n *node) (*aux, error) {
	left, err := epst.Open(t.store, n.left, 0)
	if err != nil {
		return nil, err
	}
	right, err := epst.Open(t.store, n.right, 0)
	if err != nil {
		return nil, err
	}
	ylist, err := wbtree.Open(t.store, n.ylist)
	if err != nil {
		return nil, err
	}
	return &aux{left: left, right: right, ylist: ylist}, nil
}

// buildAux creates the three structures over pts (original coordinates,
// sorted by (x, y)) and stores their header ids in n.
func (t *Tree) buildAux(n *node, pts []geom.Point) error {
	lpts := make([]geom.Point, len(pts))
	rpts := make([]geom.Point, len(pts))
	for i, p := range pts {
		lpts[i] = toLeft(p)
		rpts[i] = toRight(p)
	}
	left, err := epst.Build(t.store, epst.Options{}, lpts)
	if err != nil {
		return err
	}
	right, err := epst.Build(t.store, epst.Options{}, rpts)
	if err != nil {
		return err
	}
	ylist, err := wbtree.Create(t.store, 0, 0)
	if err != nil {
		return err
	}
	ysorted := make([]geom.Point, len(rpts))
	copy(ysorted, rpts)
	geom.SortByX(ysorted) // (y, x) points: canonical order = y-order
	if err := ylist.BulkLoad(ysorted); err != nil {
		return err
	}
	n.left = left.HeaderID()
	n.right = right.HeaderID()
	n.ylist = ylist.HeaderID()
	return nil
}

func (t *Tree) destroyAux(n *node) error {
	ax, err := t.openAux(n)
	if err != nil {
		return err
	}
	if err := ax.left.Destroy(); err != nil {
		return err
	}
	if err := ax.right.Destroy(); err != nil {
		return err
	}
	return ax.ylist.Destroy()
}
