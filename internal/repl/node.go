package repl

import (
	"sync"

	"rangesearch/internal/core"
	"rangesearch/internal/geom"
	"rangesearch/internal/trace"
)

// FencedIndex is a core.Index whose mutations fail core.ErrNotPrimary.
// A follower's Concurrent engine is built over one: queries never reach
// it (they go through epoch views), and if a write ever slipped past the
// Node's role check it would fail here instead of forking history.
type FencedIndex struct {
	Reads core.Index // serves Query/Len; Insert/Delete/Destroy are fenced
}

var _ core.Index = (*FencedIndex)(nil)

func (f *FencedIndex) Insert(geom.Point) error         { return core.ErrNotPrimary }
func (f *FencedIndex) Delete(geom.Point) (bool, error) { return false, core.ErrNotPrimary }
func (f *FencedIndex) Destroy() error                  { return core.ErrNotPrimary }
func (f *FencedIndex) Len() (int, error)               { return f.Reads.Len() }
func (f *FencedIndex) Query(dst []geom.Point, q geom.Rect) ([]geom.Point, error) {
	return f.Reads.Query(dst, q)
}

// Node fronts a serving engine whose role can change at runtime: a
// primary accepting writes, a follower applying a replication stream, or
// a fenced ex-primary refusing writes. It is the core.Engine a replicated
// server serves; reads delegate under a shared lock, writes check the role
// first, and Promote swaps the whole engine under the exclusive lock so
// in-flight readers drain before the follower stack is torn down.
type Node struct {
	mu      sync.RWMutex
	conc    *core.Concurrent
	primary bool
	fenced  bool
	term    uint64
	applied func() uint64 // follower durable position; nil → the engine's own
}

var _ core.Engine = (*Node)(nil)

// NewNode builds a node over conc. applied overrides the engine's LSN while
// the node is a follower (the replica applier tracks it, not the
// engine); pass nil on a primary.
func NewNode(conc *core.Concurrent, primary bool, term uint64, applied func() uint64) *Node {
	return &Node{conc: conc, primary: primary, term: term, applied: applied}
}

// Role returns "primary", "replica", or "fenced" plus the current term.
func (n *Node) Role() (string, uint64) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	switch {
	case n.fenced:
		return "fenced", n.term
	case n.primary:
		return "primary", n.term
	default:
		return "replica", n.term
	}
}

// Fence marks the node non-writable under term — a newer primary
// lineage exists. Reads keep working.
func (n *Node) Fence(term uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fenced = true
	n.primary = false
	if term > n.term {
		n.term = term
	}
}

// Promote installs a new (writable) engine under term. The exclusive
// lock waits out every in-flight request on the old engine, so the
// caller may close it as soon as Promote returns. The old engine is
// returned for teardown bookkeeping.
func (n *Node) Promote(conc *core.Concurrent, term uint64) *core.Concurrent {
	n.mu.Lock()
	defer n.mu.Unlock()
	old := n.conc
	n.conc = conc
	n.primary = true
	n.fenced = false
	n.term = term
	n.applied = nil
	return old
}

// Rebind installs a new engine while keeping the follower role — the
// re-clone path, when a reconnect handshake demanded a fresh snapshot
// and the stack was rebuilt from it. The engine and term swap together
// under the one lock, so a reader that observes the new term is
// guaranteed the new engine too — the invariant (term, LSN) read
// barriers rely on. The old engine is returned for the caller to close;
// like Promote, the exclusive lock waits out every in-flight request on
// it first.
func (n *Node) Rebind(conc *core.Concurrent, term uint64) *core.Concurrent {
	n.mu.Lock()
	defer n.mu.Unlock()
	old := n.conc
	n.conc = conc
	if term > n.term {
		n.term = term
	}
	return old
}

// Engine returns the current engine (for shutdown paths).
func (n *Node) Engine() *core.Concurrent {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.conc
}

// Apply implements core.Engine (primary only): on a follower or a fenced
// node every entry fails with core.ErrNotPrimary.
func (n *Node) Apply(ops []core.BatchOp, sp *trace.Span) []core.BatchResult {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if !n.primary || n.fenced {
		res := make([]core.BatchResult, len(ops))
		for i := range res {
			res[i].Err = core.ErrNotPrimary
		}
		return res
	}
	return n.conc.Apply(ops, sp)
}

// Report implements core.Engine: q answered from the current epoch —
// identical on every role.
func (n *Node) Report(dst []geom.Point, q geom.Rect, sp *trace.Span) ([]geom.Point, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.conc.Report(dst, q, sp)
}

// Len reports the point count of the current epoch.
func (n *Node) Len() (int, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.conc.Len()
}

// Epoch reports the published epoch.
func (n *Node) Epoch() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.conc.Epoch()
}

// PageSize reports the store page size.
func (n *Node) PageSize() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.conc.PageSize()
}

// Position implements core.Engine: the node's term and durable LSN — the
// engine's on a primary, the replica applier's on a follower (the engine
// under a follower has no TxStore of its own driving commits). Both are
// read under the one lock Promote, Rebind and Fence swap them under, so a
// caller never sees the term of one timeline beside the LSN of another.
func (n *Node) Position() (term, lsn uint64) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.applied != nil {
		return n.term, n.applied()
	}
	_, lsn = n.conc.Position()
	return n.term, lsn
}
