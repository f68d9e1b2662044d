// Package modeltest is a model-based differential test harness for the
// core.Index implementations: randomized, seeded operation sequences are
// replayed simultaneously against an index under test and against a naive
// O(N) in-memory model, and every query result, delete outcome, duplicate
// verdict and length is compared. A divergence is shrunk to a minimal
// failing sequence (delta debugging) and written out as a replayable JSON
// artifact, so a one-in-a-million interleaving becomes a deterministic
// regression test.
//
// The harness is structure-agnostic (anything implementing core.Index, or
// core.Engine through OverEngine) and is run in CI over the full wrapper
// matrix: the paper's two structures (epst-backed ThreeSided and
// range4-backed FourSided), each plain, behind Durable (WAL transactions)
// and behind the write buffer, and — through the engine surface a server
// serves, once untraced and once with a live span per operation — behind
// Concurrent (group commit + snapshot reads), Concurrent-over-Durable, the
// write buffer over that, and a primary repl.Node over that. On those
// engine stacks it also replays multi-op Apply runs (what a BATCH request
// becomes) against the model applied one op at a time, entry by entry.
package modeltest

import (
	"sort"

	"rangesearch/internal/geom"
)

// Model is the ground truth: a plain set of points with O(N) queries. It
// is deliberately too simple to be wrong.
type Model struct {
	pts map[geom.Point]struct{}
}

// NewModel returns an empty model.
func NewModel() *Model {
	return &Model{pts: make(map[geom.Point]struct{})}
}

// Has reports membership.
func (m *Model) Has(p geom.Point) bool {
	_, ok := m.pts[p]
	return ok
}

// Insert adds p, reporting false if it was already present.
func (m *Model) Insert(p geom.Point) bool {
	if _, ok := m.pts[p]; ok {
		return false
	}
	m.pts[p] = struct{}{}
	return true
}

// Delete removes p, reporting whether it was present.
func (m *Model) Delete(p geom.Point) bool {
	if _, ok := m.pts[p]; !ok {
		return false
	}
	delete(m.pts, p)
	return true
}

// Len returns the number of stored points.
func (m *Model) Len() int { return len(m.pts) }

// Query reports the points inside q, sorted by (X, Y).
func (m *Model) Query(q geom.Rect) []geom.Point {
	var out []geom.Point
	for p := range m.pts {
		if q.Contains(p) {
			out = append(out, p)
		}
	}
	SortPoints(out)
	return out
}

// SortPoints orders pts by (X, Y) — the canonical order the harness uses
// to compare result sets.
func SortPoints(pts []geom.Point) {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].X != pts[j].X {
			return pts[i].X < pts[j].X
		}
		return pts[i].Y < pts[j].Y
	})
}
