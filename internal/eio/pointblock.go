package eio

import (
	"encoding/binary"
	"fmt"

	"rangesearch/internal/geom"
)

// Point-block helpers. A point block is a page holding up to
// B = PageSize/PointSize points, packed as little-endian (x, y) int64
// pairs with no header: the owning structure's catalog tracks the count,
// exactly as the paper's catalog blocks track x-ranges and y-intervals.

// PutPoint serializes p at offset off of buf.
func PutPoint(buf []byte, off int, p geom.Point) {
	binary.LittleEndian.PutUint64(buf[off:], uint64(p.X))
	binary.LittleEndian.PutUint64(buf[off+8:], uint64(p.Y))
}

// GetPoint deserializes the point at offset off of buf.
func GetPoint(buf []byte, off int) geom.Point {
	return geom.Point{
		X: int64(binary.LittleEndian.Uint64(buf[off:])),
		Y: int64(binary.LittleEndian.Uint64(buf[off+8:])),
	}
}

// EncodePoints packs pts into buf starting at offset 0 and returns the
// number of bytes used. It panics if pts does not fit.
func EncodePoints(buf []byte, pts []geom.Point) int {
	if len(pts)*PointSize > len(buf) {
		panic(fmt.Sprintf("eio: %d points do not fit in %d bytes", len(pts), len(buf)))
	}
	for i, p := range pts {
		PutPoint(buf, i*PointSize, p)
	}
	return len(pts) * PointSize
}

// WritePointBlock allocates (if id is NilPage) or overwrites a page with
// pts and returns the page id. len(pts) must be at most BlockCapacity.
func WritePointBlock(s Store, id PageID, pts []geom.Point) (PageID, error) {
	if len(pts) > BlockCapacity(s.PageSize()) {
		return NilPage, fmt.Errorf("eio: %d points exceed block capacity %d", len(pts), BlockCapacity(s.PageSize()))
	}
	if id == NilPage {
		var err error
		id, err = s.Alloc()
		if err != nil {
			return NilPage, err
		}
	}
	page := borrowPage(s.PageSize())
	defer returnPage(page)
	clear((*page)[EncodePoints(*page, pts):])
	if err := s.Write(id, *page); err != nil {
		return NilPage, err
	}
	return id, nil
}

// ReadPointBlock reads page id into page — caller-owned scratch of at least
// one page, overwritten — and appends its first n points to dst. Callers
// that filter rather than collect read the page themselves and walk it with
// GetPoint.
func ReadPointBlock(dst []geom.Point, s Store, id PageID, n int, page []byte) ([]geom.Point, error) {
	if n < 0 || n > BlockCapacity(s.PageSize()) {
		return dst, fmt.Errorf("eio: point block %d: count %d exceeds block capacity: %w", id, n, ErrBadRecord)
	}
	if err := s.Read(id, page); err != nil {
		return dst, err
	}
	for i := 0; i < n; i++ {
		dst = append(dst, GetPoint(page, i*PointSize))
	}
	return dst, nil
}
