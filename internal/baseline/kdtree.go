package baseline

import (
	"encoding/binary"
	"fmt"
	"sort"

	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
)

// KDTree is an external k-d tree with alternating split axes and median
// leaf splits — a simplified representative of the k-d-B-tree family the
// paper's introduction surveys: linear space and good behaviour on benign
// data, but no worst-case reporting guarantee and no rebalancing, so
// adversarial insertion orders and skewed queries degrade it. That
// degradation is exactly what experiment E11 contrasts against the paper's
// optimal structures.
type KDTree struct {
	store eio.Store
	rs    *eio.RecordStore
	hdr   eio.PageID
	k     int // leaf capacity parameter: leaves hold ≤ 2k points
}

var _ Index = (*KDTree)(nil)

// kdNode: internal nodes carry a full split point and the axis; leaves
// carry points.
type kdNode struct {
	leaf  bool
	axis  int // 0: x-major, 1: y-major
	split geom.Point
	left  eio.PageID
	right eio.PageID
	count int64 // points under this node
	pts   []geom.Point
}

// NewKDTree creates an empty k-d tree on store; k ≤ 0 selects B.
func NewKDTree(store eio.Store, k int) (*KDTree, error) {
	if k <= 0 {
		k = eio.BlockCapacity(store.PageSize())
		if k < 2 {
			k = 2
		}
	}
	t := &KDTree{store: store, rs: eio.NewRecordStore(store), k: k}
	root, err := t.writeNode(eio.NilPage, &kdNode{leaf: true})
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint64(hdr[0:], uint64(root))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(k))
	t.hdr, err = t.rs.Put(hdr)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// OpenKDTree re-attaches to a k-d tree.
func OpenKDTree(store eio.Store, hdr eio.PageID) (*KDTree, error) {
	t := &KDTree{store: store, rs: eio.NewRecordStore(store), hdr: hdr}
	root, k, err := t.loadHdr()
	if err != nil {
		return nil, err
	}
	_ = root
	t.k = k
	return t, nil
}

// HeaderID identifies the index on its store.
func (t *KDTree) HeaderID() eio.PageID { return t.hdr }

func (t *KDTree) loadHdr() (eio.PageID, int, error) {
	raw, err := t.rs.Get(t.hdr, nil)
	if err != nil {
		return eio.NilPage, 0, fmt.Errorf("baseline: kd header: %w", err)
	}
	if len(raw) != 16 {
		return eio.NilPage, 0, fmt.Errorf("baseline: kd header length %d", len(raw))
	}
	return eio.PageID(binary.LittleEndian.Uint64(raw[0:])), int(binary.LittleEndian.Uint64(raw[8:])), nil
}

// cmpAxis orders points by the given axis with the other coordinate as
// tiebreak, making routing deterministic under duplicates on one axis.
func cmpAxis(p, q geom.Point, axis int) int {
	a, b := p.X, q.X
	c, d := p.Y, q.Y
	if axis == 1 {
		a, b, c, d = p.Y, q.Y, p.X, q.X
	}
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case c < d:
		return -1
	case c > d:
		return 1
	default:
		return 0
	}
}

func (t *KDTree) readNode(id eio.PageID) (*kdNode, error) {
	raw, err := t.rs.Get(id, nil)
	if err != nil {
		return nil, fmt.Errorf("baseline: kd node: %w", err)
	}
	if len(raw) < 8 {
		return nil, fmt.Errorf("baseline: kd node too short")
	}
	n := &kdNode{}
	flags := binary.LittleEndian.Uint32(raw[0:])
	n.leaf = flags&1 != 0
	n.axis = int(flags >> 1 & 1)
	count := int(binary.LittleEndian.Uint32(raw[4:]))
	if n.leaf {
		if len(raw) != 8+eio.PointSize*count {
			return nil, fmt.Errorf("baseline: kd leaf length %d", len(raw))
		}
		n.pts = make([]geom.Point, count)
		for i := range n.pts {
			n.pts[i] = eio.GetPoint(raw, 8+eio.PointSize*i)
		}
		n.count = int64(count)
		return n, nil
	}
	if len(raw) != 8+16+8+8+8 {
		return nil, fmt.Errorf("baseline: kd internal length %d", len(raw))
	}
	n.split = eio.GetPoint(raw, 8)
	n.left = eio.PageID(binary.LittleEndian.Uint64(raw[24:]))
	n.right = eio.PageID(binary.LittleEndian.Uint64(raw[32:]))
	n.count = int64(binary.LittleEndian.Uint64(raw[40:]))
	return n, nil
}

func (t *KDTree) writeNode(id eio.PageID, n *kdNode) (eio.PageID, error) {
	var raw []byte
	flags := uint32(0)
	if n.leaf {
		flags |= 1
	}
	flags |= uint32(n.axis&1) << 1
	if n.leaf {
		raw = make([]byte, 8+eio.PointSize*len(n.pts))
		binary.LittleEndian.PutUint32(raw[0:], flags)
		binary.LittleEndian.PutUint32(raw[4:], uint32(len(n.pts)))
		for i, p := range n.pts {
			eio.PutPoint(raw, 8+eio.PointSize*i, p)
		}
	} else {
		raw = make([]byte, 48)
		binary.LittleEndian.PutUint32(raw[0:], flags)
		eio.PutPoint(raw, 8, n.split)
		binary.LittleEndian.PutUint64(raw[24:], uint64(n.left))
		binary.LittleEndian.PutUint64(raw[32:], uint64(n.right))
		binary.LittleEndian.PutUint64(raw[40:], uint64(n.count))
	}
	if id == eio.NilPage {
		return t.rs.Put(raw)
	}
	return id, t.rs.Update(id, raw, nil)
}

// Insert implements Index.
func (t *KDTree) Insert(p geom.Point) error {
	root, _, err := t.loadHdr()
	if err != nil {
		return err
	}
	type el struct {
		id eio.PageID
		n  *kdNode
	}
	var path []el
	id := root
	depth := 0
	for {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		path = append(path, el{id, n})
		if n.leaf {
			break
		}
		if cmpAxis(p, n.split, n.axis) <= 0 {
			id = n.left
		} else {
			id = n.right
		}
		depth++
	}
	leaf := path[len(path)-1].n
	for _, q := range leaf.pts {
		if q == p {
			return fmt.Errorf("baseline: insert %v: %w", p, ErrDuplicate)
		}
	}
	leaf.pts = append(leaf.pts, p)

	if len(leaf.pts) > 2*t.k {
		// Median split along the depth-alternating axis; the leaf's record
		// becomes the internal node so the parent pointer stays valid.
		axis := depth % 2
		pts := leaf.pts
		sort.Slice(pts, func(i, j int) bool { return cmpAxis(pts[i], pts[j], axis) < 0 })
		mid := len(pts) / 2
		leftID, err := t.writeNode(eio.NilPage, &kdNode{leaf: true, pts: pts[:mid]})
		if err != nil {
			return err
		}
		rightID, err := t.writeNode(eio.NilPage, &kdNode{leaf: true, pts: pts[mid:]})
		if err != nil {
			return err
		}
		internal := &kdNode{
			axis:  axis,
			split: pts[mid-1],
			left:  leftID,
			right: rightID,
			count: int64(len(pts)),
		}
		if _, err := t.writeNode(path[len(path)-1].id, internal); err != nil {
			return err
		}
	} else {
		if _, err := t.writeNode(path[len(path)-1].id, leaf); err != nil {
			return err
		}
	}
	for i := len(path) - 2; i >= 0; i-- {
		path[i].n.count++
		if _, err := t.writeNode(path[i].id, path[i].n); err != nil {
			return err
		}
	}
	return nil
}

// Delete implements Index. Leaves are never merged (k-d structures degrade
// under deletion; that behaviour is part of what E11 measures).
func (t *KDTree) Delete(p geom.Point) (bool, error) {
	root, _, err := t.loadHdr()
	if err != nil {
		return false, err
	}
	type el struct {
		id eio.PageID
		n  *kdNode
	}
	var path []el
	id := root
	for {
		n, err := t.readNode(id)
		if err != nil {
			return false, err
		}
		path = append(path, el{id, n})
		if n.leaf {
			break
		}
		if cmpAxis(p, n.split, n.axis) <= 0 {
			id = n.left
		} else {
			id = n.right
		}
	}
	leaf := path[len(path)-1].n
	pos := -1
	for i, q := range leaf.pts {
		if q == p {
			pos = i
			break
		}
	}
	if pos < 0 {
		return false, nil
	}
	leaf.pts = append(leaf.pts[:pos], leaf.pts[pos+1:]...)
	if _, err := t.writeNode(path[len(path)-1].id, leaf); err != nil {
		return false, err
	}
	for i := len(path) - 2; i >= 0; i-- {
		path[i].n.count--
		if _, err := t.writeNode(path[i].id, path[i].n); err != nil {
			return false, err
		}
	}
	return true, nil
}

// Query implements Index: recursive region pruning.
func (t *KDTree) Query(dst []geom.Point, q geom.Rect) ([]geom.Point, error) {
	if q.Empty() {
		return dst, nil
	}
	root, _, err := t.loadHdr()
	if err != nil {
		return dst, err
	}
	return t.queryRec(root, dst, q)
}

func (t *KDTree) queryRec(id eio.PageID, dst []geom.Point, q geom.Rect) ([]geom.Point, error) {
	n, err := t.readNode(id)
	if err != nil {
		return dst, err
	}
	if n.leaf {
		return geom.Filter4(dst, n.pts, q), nil
	}
	goLeft, goRight := true, true
	if n.axis == 0 {
		goLeft = q.XLo <= n.split.X
		goRight = q.XHi >= n.split.X
	} else {
		goLeft = q.YLo <= n.split.Y
		goRight = q.YHi >= n.split.Y
	}
	if goLeft {
		dst, err = t.queryRec(n.left, dst, q)
		if err != nil {
			return dst, err
		}
	}
	if goRight {
		dst, err = t.queryRec(n.right, dst, q)
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// Len implements Index.
func (t *KDTree) Len() (int, error) {
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
func (t *KDTree) Destroy() error {
	root, _, err := t.loadHdr()
	if err != nil {
		return err
	}
	if err := t.freeRec(root); err != nil {
		return err
	}
	return t.rs.Delete(t.hdr)
}

func (t *KDTree) freeRec(id eio.PageID) error {
	n, err := t.readNode(id)
	if err != nil {
		return err
	}
	if !n.leaf {
		if err := t.freeRec(n.left); err != nil {
			return err
		}
		if err := t.freeRec(n.right); err != nil {
			return err
		}
	}
	return t.rs.Delete(id)
}
