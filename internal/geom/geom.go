// Package geom defines the planar geometry vocabulary shared by every
// structure in this repository: points with integer coordinates, orthogonal
// rectangles, and the query shapes of Arge, Samoladas & Vitter (PODS 1999),
// Figure 1 — diagonal-corner, 2-sided, 3-sided and general 4-sided range
// queries.
//
// Coordinates are int64. Infinite query sides are expressed with MinCoord
// and MaxCoord, which every structure treats as -∞ / +∞.
package geom

import (
	"fmt"
	"math"
	"slices"
)

// MinCoord and MaxCoord act as -∞ and +∞ for query sides. They are valid
// point coordinates as well; queries are closed, so a query side at
// MinCoord/MaxCoord includes points at that coordinate.
const (
	MinCoord int64 = math.MinInt64
	MaxCoord int64 = math.MaxInt64
)

// Point is a point in the plane.
type Point struct {
	X, Y int64
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Less reports whether p precedes q in the canonical (X, then Y) order used
// to route points through x-partitioned structures. The tiebreak on Y makes
// the order total for distinct points, so duplicate x-coordinates are fully
// supported.
func (p Point) Less(q Point) bool {
	if p.X != q.X {
		return p.X < q.X
	}
	return p.Y < q.Y
}

// Compare returns -1, 0 or +1 as p sorts before, equal to, or after q in the
// canonical (X, then Y) order.
func (p Point) Compare(q Point) int {
	switch {
	case p.X < q.X:
		return -1
	case p.X > q.X:
		return 1
	case p.Y < q.Y:
		return -1
	case p.Y > q.Y:
		return 1
	default:
		return 0
	}
}

// YLess reports whether p precedes q ordered by (Y, then X); it is the order
// used by sweep lines and y-sorted leaf lists.
func (p Point) YLess(q Point) bool {
	if p.Y != q.Y {
		return p.Y < q.Y
	}
	return p.X < q.X
}

// CompareY is Compare for the (Y, then X) order of YLess.
func (p Point) CompareY(q Point) int {
	return Point{X: p.Y, Y: p.X}.Compare(Point{X: q.Y, Y: q.X})
}

// Rect is a closed orthogonal rectangle [XLo, XHi] × [YLo, YHi].
type Rect struct {
	XLo, XHi int64
	YLo, YHi int64
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d]x[%d,%d]", r.XLo, r.XHi, r.YLo, r.YHi)
}

// Empty reports whether the rectangle contains no points.
func (r Rect) Empty() bool { return r.XLo > r.XHi || r.YLo > r.YHi }

// Contains reports whether p lies in r (boundaries included).
func (r Rect) Contains(p Point) bool {
	return r.XLo <= p.X && p.X <= r.XHi && r.YLo <= p.Y && p.Y <= r.YHi
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	return r.XLo <= s.XHi && s.XLo <= r.XHi && r.YLo <= s.YHi && s.YLo <= r.YHi
}

// Intersect returns the intersection of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	return Rect{
		XLo: max64(r.XLo, s.XLo), XHi: min64(r.XHi, s.XHi),
		YLo: max64(r.YLo, s.YLo), YHi: min64(r.YHi, s.YHi),
	}
}

// Query3 is a 3-sided range query: XLo ≤ x ≤ XHi and y ≥ YLo (the unbounded
// side is upward, as in Section 2.2.1 of the paper). Use MinCoord/MaxCoord
// for degenerate sides.
type Query3 struct {
	XLo, XHi int64
	YLo      int64
}

// String implements fmt.Stringer.
func (q Query3) String() string {
	return fmt.Sprintf("[%d,%d]x[%d,+inf)", q.XLo, q.XHi, q.YLo)
}

// Contains reports whether p satisfies the query.
func (q Query3) Contains(p Point) bool {
	return q.XLo <= p.X && p.X <= q.XHi && p.Y >= q.YLo
}

// Empty reports whether no point can satisfy the query.
func (q Query3) Empty() bool { return q.XLo > q.XHi }

// Rect returns the query region as a (half-unbounded) rectangle.
func (q Query3) Rect() Rect {
	return Rect{XLo: q.XLo, XHi: q.XHi, YLo: q.YLo, YHi: MaxCoord}
}

// Query4 is a general 4-sided orthogonal range query over the closed
// rectangle [XLo,XHi] × [YLo,YHi].
type Query4 = Rect

// DiagonalCorner returns the 2-sided diagonal-corner query with corner
// (q, q) on the line x = y: it matches points with x ≤ q and y ≥ q. A
// stabbing query over intervals [lo, hi] mapped to points (lo, hi) is
// exactly this query (Section 1 of the paper; Figure 1(a)).
func DiagonalCorner(q int64) Query3 {
	return Query3{XLo: MinCoord, XHi: q, YLo: q}
}

// Interval is a closed interval [Lo, Hi] on the line, Lo ≤ Hi.
type Interval struct {
	Lo, Hi int64
}

// String implements fmt.Stringer.
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi) }

// Contains reports whether the interval contains q.
func (iv Interval) Contains(q int64) bool { return iv.Lo <= q && q <= iv.Hi }

// Valid reports whether Lo ≤ Hi.
func (iv Interval) Valid() bool { return iv.Lo <= iv.Hi }

// Point maps the interval to the plane point (Lo, Hi); interval stabbing at
// q is then the diagonal-corner query DiagonalCorner(q).
func (iv Interval) Point() Point { return Point{X: iv.Lo, Y: iv.Hi} }

// IntervalFromPoint is the inverse of Interval.Point.
func IntervalFromPoint(p Point) Interval { return Interval{Lo: p.X, Hi: p.Y} }

// SortByX sorts pts in the canonical (X, then Y) order, in place. SortByX
// and SortByY are the repository's only instantiations of the generic sort
// over points: packages that order points call these two rather than
// instantiating their own.
func SortByX(pts []Point) { slices.SortFunc(pts, Point.Compare) }

// SortByY sorts pts by (Y, then X) order, in place.
func SortByY(pts []Point) { slices.SortFunc(pts, Point.CompareY) }

// Filter3 returns the points of pts satisfying q, appended to dst.
func Filter3(dst []Point, pts []Point, q Query3) []Point {
	for _, p := range pts {
		if q.Contains(p) {
			dst = append(dst, p)
		}
	}
	return dst
}

// Filter4 returns the points of pts inside r, appended to dst.
func Filter4(dst []Point, pts []Point, r Rect) []Point {
	for _, p := range pts {
		if r.Contains(p) {
			dst = append(dst, p)
		}
	}
	return dst
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
