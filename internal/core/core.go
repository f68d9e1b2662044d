// Package core is the public facade of the library: it unifies the paper's
// optimal structures (the external priority search tree for 3-sided
// queries, Theorem 6, and the layered structure for general 4-sided
// queries, Theorem 7) and the baseline structures behind one dynamic
// point-index interface.
//
// Pick a structure by workload:
//
//   - ThreeSided (external priority search tree): 3-sided queries
//     (x ∈ [a,b], y ≥ c) in O(log_B N + t) I/Os, O(n) blocks, O(log_B N)
//     updates. Also the right choice for interval stabbing / temporal
//     "current version" workloads via the diagonal-corner reduction
//     (see internal/interval).
//   - FourSided: general window queries in O(log_B N + t) reporting I/Os
//     (plus the additive entry-search term discussed in internal/range4),
//     at an O(log n / log log_B N) space factor.
//   - The baselines in internal/baseline, for comparison.
//
// All structures store a *set* of distinct points whose coordinates avoid
// the geom.MinCoord / geom.MaxCoord sentinels, and live entirely on an
// eio.Store. No page, node or catalog contents are kept in memory between
// operations — every operation re-reads what it needs from the store, so
// measured store I/Os are the structures' true external-memory cost. What
// IS kept is working memory: page and record buffers are recycled from one
// operation to the next (buffers are reused, their contents never are), so
// a steady-state query allocates nothing beyond the dst it appends to.
package core

import (
	"errors"
	"fmt"

	"rangesearch/internal/baseline"
	"rangesearch/internal/eio"
	"rangesearch/internal/epst"
	"rangesearch/internal/geom"
	"rangesearch/internal/range4"
)

// ErrDuplicate reports insertion of a point already present.
var ErrDuplicate = errors.New("core: duplicate point")

// ErrCoordRange reports a point using a reserved sentinel coordinate.
var ErrCoordRange = errors.New("core: coordinate out of storable range")

// Index is a dynamic set of distinct planar points under orthogonal range
// reporting. A 3-sided query is expressed with YHi = geom.MaxCoord.
type Index interface {
	Insert(p geom.Point) error
	Delete(p geom.Point) (bool, error)
	Query(dst []geom.Point, q geom.Rect) ([]geom.Point, error)
	Len() (int, error)
	Destroy() error
}

// Interface conformance of the baselines.
var (
	_ Index = (*baseline.Scan)(nil)
	_ Index = (*baseline.XTree)(nil)
	_ Index = (*baseline.KDTree)(nil)
	_ Index = (*baseline.RTree)(nil)
)

func checkCoord(p geom.Point) error {
	if p.X == geom.MinCoord || p.X == geom.MaxCoord || p.Y == geom.MinCoord || p.Y == geom.MaxCoord {
		return fmt.Errorf("core: %v: %w", p, ErrCoordRange)
	}
	return nil
}

// ThreeSided is the external priority search tree (Theorem 6) behind the
// Index interface. Query answers open-topped rectangles (YHi = MaxCoord)
// at the optimal I/O bound; bounded-top rectangles are answered correctly
// by filtering, reading O(points above YLo) rather than O(points inside) —
// use FourSided when bounded-top queries dominate.
type ThreeSided struct {
	t *epst.Tree
}

var _ Index = (*ThreeSided)(nil)

// NewThreeSided creates an empty structure on store.
func NewThreeSided(store eio.Store, opts epst.Options) (*ThreeSided, error) {
	t, err := epst.Create(store, opts)
	if err != nil {
		return nil, err
	}
	return &ThreeSided{t: t}, nil
}

// BuildThreeSided bulk-loads pts (distinct, non-sentinel coordinates).
func BuildThreeSided(store eio.Store, opts epst.Options, pts []geom.Point) (*ThreeSided, error) {
	for _, p := range pts {
		if err := checkCoord(p); err != nil {
			return nil, err
		}
	}
	t, err := epst.Build(store, opts, pts)
	if err != nil {
		return nil, wrapDup(err)
	}
	return &ThreeSided{t: t}, nil
}

// OpenThreeSided re-attaches to a structure previously created on store.
func OpenThreeSided(store eio.Store, hdr eio.PageID) (*ThreeSided, error) {
	t, err := epst.Open(store, hdr, 0)
	if err != nil {
		return nil, err
	}
	return &ThreeSided{t: t}, nil
}

func wrapDup(err error) error {
	if errors.Is(err, epst.ErrDuplicate) || errors.Is(err, range4.ErrDuplicate) {
		return fmt.Errorf("%w", errors.Join(ErrDuplicate, err))
	}
	if errors.Is(err, range4.ErrCoordRange) {
		return fmt.Errorf("%w", errors.Join(ErrCoordRange, err))
	}
	return err
}

// HeaderID identifies the structure on its store.
func (s *ThreeSided) HeaderID() eio.PageID { return s.t.HeaderID() }

// Insert implements Index.
func (s *ThreeSided) Insert(p geom.Point) error {
	if err := checkCoord(p); err != nil {
		return err
	}
	return wrapDup(s.t.Insert(p))
}

// Delete implements Index.
func (s *ThreeSided) Delete(p geom.Point) (bool, error) {
	if err := checkCoord(p); err != nil {
		return false, err
	}
	return s.t.Delete(p)
}

// Query implements Index.
func (s *ThreeSided) Query(dst []geom.Point, q geom.Rect) ([]geom.Point, error) {
	base := len(dst)
	dst, err := s.t.Query3(dst, geom.Query3{XLo: q.XLo, XHi: q.XHi, YLo: q.YLo})
	if err != nil {
		return dst[:base], err
	}
	if q.YHi == geom.MaxCoord {
		return dst, nil // open-topped: nothing to filter
	}
	keep := dst[:base]
	for _, p := range dst[base:] {
		if p.Y <= q.YHi {
			keep = append(keep, p)
		}
	}
	return keep, nil
}

// Query3 answers a native 3-sided query at the optimal bound.
func (s *ThreeSided) Query3(dst []geom.Point, q geom.Query3) ([]geom.Point, error) {
	return s.t.Query3(dst, q)
}

// MaxY returns the highest stored point.
func (s *ThreeSided) MaxY() (geom.Point, bool, error) { return s.t.MaxY() }

// Len implements Index.
func (s *ThreeSided) Len() (int, error) { return s.t.Len() }

// Destroy implements Index.
func (s *ThreeSided) Destroy() error { return s.t.Destroy() }

// CheckInvariants audits the underlying structure.
func (s *ThreeSided) CheckInvariants() error { return s.t.CheckInvariants() }

// Tree exposes the underlying priority search tree for advanced use.
func (s *ThreeSided) Tree() *epst.Tree { return s.t }

// FourSided is the layered 4-sided structure (Theorem 7) behind the Index
// interface.
type FourSided struct {
	t *range4.Tree
}

var _ Index = (*FourSided)(nil)

// NewFourSided creates an empty structure on store.
func NewFourSided(store eio.Store, opts range4.Options) (*FourSided, error) {
	t, err := range4.Create(store, opts)
	if err != nil {
		return nil, err
	}
	return &FourSided{t: t}, nil
}

// BuildFourSided bulk-loads pts (distinct, non-sentinel coordinates).
func BuildFourSided(store eio.Store, opts range4.Options, pts []geom.Point) (*FourSided, error) {
	t, err := range4.Build(store, opts, pts)
	if err != nil {
		return nil, wrapDup(err)
	}
	return &FourSided{t: t}, nil
}

// OpenFourSided re-attaches to a structure previously created on store.
func OpenFourSided(store eio.Store, hdr eio.PageID) (*FourSided, error) {
	t, err := range4.Open(store, hdr)
	if err != nil {
		return nil, err
	}
	return &FourSided{t: t}, nil
}

// HeaderID identifies the structure on its store.
func (s *FourSided) HeaderID() eio.PageID { return s.t.HeaderID() }

// Insert implements Index.
func (s *FourSided) Insert(p geom.Point) error { return wrapDup(s.t.Insert(p)) }

// Delete implements Index. A sentinel coordinate answers ErrCoordRange, as
// Insert's does, so a group commit treats it as the op's own outcome.
func (s *FourSided) Delete(p geom.Point) (bool, error) {
	found, err := s.t.Delete(p)
	return found, wrapDup(err)
}

// Query implements Index.
func (s *FourSided) Query(dst []geom.Point, q geom.Rect) ([]geom.Point, error) {
	return s.t.Query4(dst, q)
}

// Len implements Index.
func (s *FourSided) Len() (int, error) { return s.t.Len() }

// Destroy implements Index.
func (s *FourSided) Destroy() error { return s.t.Destroy() }

// CheckInvariants audits the underlying structure.
func (s *FourSided) CheckInvariants() error { return s.t.CheckInvariants() }

// Tree exposes the underlying structure for advanced use.
func (s *FourSided) Tree() *range4.Tree { return s.t }
