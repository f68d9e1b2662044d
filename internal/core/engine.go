package core

import (
	"rangesearch/internal/geom"
	"rangesearch/internal/trace"
)

// Engine is the paper's three operations — insert, delete, report — as a
// server serves them and a decorator wraps them: one write entry point, one
// read entry point, each taking the request's span. A nil span is the
// untraced request; there is no second method, and an implementation runs
// the same code either way apart from `sp != nil` checks around clock reads
// and I/O attribution.
//
// *Concurrent implements it, as do wbuf.Buffered (a write buffer in front
// of any Engine) and repl.Node (a role switch in front of a Concurrent).
// Index remains the plain single-caller interface the structures, the
// model tests and the bench harness use; Concurrent and Buffered satisfy it
// too through one-line adapters over the same two bodies.
type Engine interface {
	// Apply runs ops as one contiguous run and blocks until every one of
	// them is committed or has failed. Ops on one point take effect in
	// submission order; the run as a whole may be applied in point order
	// (CompareOps), which yields the same results and final contents, since
	// ops on different points commute. Results are positional; ops is not
	// retained. Benign per-operation outcomes (ErrDuplicate,
	// ErrCoordRange, an absent delete) stay per-entry; a failed commit
	// fails every entry it covered.
	Apply(ops []BatchOp, sp *trace.Span) []BatchResult
	// Report appends the points inside q to dst.
	Report(dst []geom.Point, q geom.Rect, sp *trace.Span) ([]geom.Point, error)
	// Len is the number of stored points.
	Len() (int, error)
	// Epoch is the committed epoch reads are currently served from (0 when
	// the implementation has no notion of one).
	Epoch() uint64
	// PageSize is the B of the paper's O(log_B N + t/B) bounds.
	PageSize() int
	// Position is the engine's durable log position: the replication term
	// and the LSN of the last locally durable commit, read together so the
	// pair always names one timeline (LSNs are comparable only within a
	// term). It is what a write acknowledgement carries and what a read
	// barrier compares against; (0, 0) on an engine without a WAL.
	Position() (term, lsn uint64)
}

// BatchOp is one operation of a write run (see Engine.Apply). Delete is
// false for an insert of P, true for a delete.
type BatchOp struct {
	Delete bool
	P      geom.Point
}

// CompareOps is the one apply order of a write run: by point, in
// geom.Point.Compare's (X, then Y) order, never by kind. Concurrent.Apply
// stable-sorts a run by it and wbuf's flush sorts its net operations by it,
// so consecutive updates land in neighbouring leaves.
func CompareOps(a, b BatchOp) int { return a.P.Compare(b.P) }

// BatchResult is the per-operation outcome of an Apply entry: Found mirrors
// Index.Delete's return value, Err the operation's error.
type BatchResult struct {
	Found bool
	Err   error
}
