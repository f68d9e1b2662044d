package baseline

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
)

// ErrDuplicate reports insertion of a point already present in an index.
var ErrDuplicate = errors.New("baseline: duplicate point")

// Scan is the unindexed baseline: points are packed into full blocks in
// arrival order (a directory record lists the blocks). Queries read every
// block. Inserts cost O(1) I/Os; deletes and membership cost O(n).
type Scan struct {
	store eio.Store
	rs    *eio.RecordStore
	hdr   eio.PageID
	b     int
}

var _ Index = (*Scan)(nil)

// scanMeta: directory of blocks plus the count in the (single) tail block.
type scanMeta struct {
	blocks []eio.PageID
	tailN  int // points used in the last block; all earlier blocks are full
}

// NewScan creates an empty scan index on store.
func NewScan(store eio.Store) (*Scan, error) {
	s := &Scan{store: store, rs: eio.NewRecordStore(store), b: eio.BlockCapacity(store.PageSize())}
	if s.b < 1 {
		return nil, fmt.Errorf("baseline: page too small")
	}
	id, err := s.rs.Put(encodeScanMeta(&scanMeta{}))
	if err != nil {
		return nil, err
	}
	s.hdr = id
	return s, nil
}

// OpenScan re-attaches to a scan index.
func OpenScan(store eio.Store, hdr eio.PageID) (*Scan, error) {
	s := &Scan{store: store, rs: eio.NewRecordStore(store), b: eio.BlockCapacity(store.PageSize()), hdr: hdr}
	if _, err := s.loadMeta(); err != nil {
		return nil, err
	}
	return s, nil
}

// HeaderID identifies the index on its store.
func (s *Scan) HeaderID() eio.PageID { return s.hdr }

func (s *Scan) loadMeta() (*scanMeta, error) {
	raw, err := s.rs.Get(s.hdr, nil)
	if err != nil {
		return nil, fmt.Errorf("baseline: scan header: %w", err)
	}
	if len(raw) < 12 {
		return nil, fmt.Errorf("baseline: scan header too short")
	}
	nb := int(binary.LittleEndian.Uint32(raw[0:]))
	m := &scanMeta{tailN: int(binary.LittleEndian.Uint32(raw[4:]))}
	if len(raw) != 12+8*nb {
		return nil, fmt.Errorf("baseline: scan header length %d", len(raw))
	}
	for i := 0; i < nb; i++ {
		m.blocks = append(m.blocks, eio.PageID(binary.LittleEndian.Uint64(raw[12+8*i:])))
	}
	return m, nil
}

func encodeScanMeta(m *scanMeta) []byte {
	out := make([]byte, 12+8*len(m.blocks))
	binary.LittleEndian.PutUint32(out[0:], uint32(len(m.blocks)))
	binary.LittleEndian.PutUint32(out[4:], uint32(m.tailN))
	for i, id := range m.blocks {
		binary.LittleEndian.PutUint64(out[12+8*i:], uint64(id))
	}
	return out
}

func (s *Scan) storeMeta(m *scanMeta) error {
	return s.rs.Update(s.hdr, encodeScanMeta(m), nil)
}

func (s *Scan) blockCount(m *scanMeta, i int) int {
	if i == len(m.blocks)-1 {
		return m.tailN
	}
	return s.b
}

// Insert implements Index. It verifies absence (a full scan — the honest
// cost of an unindexed heap with set semantics).
func (s *Scan) Insert(p geom.Point) error {
	m, err := s.loadMeta()
	if err != nil {
		return err
	}
	found, _, _, err := s.locate(m, p)
	if err != nil {
		return err
	}
	if found {
		return fmt.Errorf("baseline: insert %v: %w", p, ErrDuplicate)
	}
	if len(m.blocks) == 0 || m.tailN == s.b {
		id, err := eio.WritePointBlock(s.store, eio.NilPage, []geom.Point{p})
		if err != nil {
			return err
		}
		m.blocks = append(m.blocks, id)
		m.tailN = 1
		return s.storeMeta(m)
	}
	tail := m.blocks[len(m.blocks)-1]
	pts, err := eio.ReadPointBlock(nil, s.store, tail, m.tailN, make([]byte, s.store.PageSize()))
	if err != nil {
		return err
	}
	pts = append(pts, p)
	if _, err := eio.WritePointBlock(s.store, tail, pts); err != nil {
		return err
	}
	m.tailN++
	return s.storeMeta(m)
}

// locate finds p, returning its block index and offset.
func (s *Scan) locate(m *scanMeta, p geom.Point) (bool, int, int, error) {
	page := make([]byte, s.store.PageSize())
	var pts []geom.Point
	for bi, id := range m.blocks {
		var err error
		pts, err = eio.ReadPointBlock(pts[:0], s.store, id, s.blockCount(m, bi), page)
		if err != nil {
			return false, 0, 0, err
		}
		for oi, q := range pts {
			if q == p {
				return true, bi, oi, nil
			}
		}
	}
	return false, 0, 0, nil
}

// Delete implements Index: the hole is plugged with the last point.
func (s *Scan) Delete(p geom.Point) (bool, error) {
	m, err := s.loadMeta()
	if err != nil {
		return false, err
	}
	found, bi, oi, err := s.locate(m, p)
	if err != nil || !found {
		return false, err
	}
	tailIdx := len(m.blocks) - 1
	page := make([]byte, s.store.PageSize())
	tail, err := eio.ReadPointBlock(nil, s.store, m.blocks[tailIdx], m.tailN, page)
	if err != nil {
		return false, err
	}
	last := tail[len(tail)-1]
	if bi == tailIdx {
		tail[oi] = last
		tail = tail[:len(tail)-1]
		if _, err := eio.WritePointBlock(s.store, m.blocks[tailIdx], tail); err != nil {
			return false, err
		}
	} else {
		pts, err := eio.ReadPointBlock(nil, s.store, m.blocks[bi], s.blockCount(m, bi), page)
		if err != nil {
			return false, err
		}
		pts[oi] = last
		if _, err := eio.WritePointBlock(s.store, m.blocks[bi], pts); err != nil {
			return false, err
		}
		tail = tail[:len(tail)-1]
		if _, err := eio.WritePointBlock(s.store, m.blocks[tailIdx], tail); err != nil {
			return false, err
		}
	}
	m.tailN--
	if m.tailN == 0 {
		if err := s.store.Free(m.blocks[tailIdx]); err != nil {
			return false, err
		}
		m.blocks = m.blocks[:tailIdx]
		m.tailN = s.b
		if len(m.blocks) == 0 {
			m.tailN = 0
		}
	}
	return true, s.storeMeta(m)
}

// Query implements Index by reading every block.
func (s *Scan) Query(dst []geom.Point, q geom.Rect) ([]geom.Point, error) {
	m, err := s.loadMeta()
	if err != nil {
		return dst, err
	}
	page := make([]byte, s.store.PageSize())
	var pts []geom.Point
	for bi, id := range m.blocks {
		pts, err = eio.ReadPointBlock(pts[:0], s.store, id, s.blockCount(m, bi), page)
		if err != nil {
			return dst, err
		}
		dst = geom.Filter4(dst, pts, q)
	}
	return dst, nil
}

// Len implements Index.
func (s *Scan) Len() (int, error) {
	m, err := s.loadMeta()
	if err != nil {
		return 0, err
	}
	if len(m.blocks) == 0 {
		return 0, nil
	}
	return (len(m.blocks)-1)*s.b + m.tailN, nil
}

// Destroy implements Index.
func (s *Scan) Destroy() error {
	m, err := s.loadMeta()
	if err != nil {
		return err
	}
	for _, id := range m.blocks {
		if err := s.store.Free(id); err != nil {
			return err
		}
	}
	return s.rs.Delete(s.hdr)
}
