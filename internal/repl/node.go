package repl

import (
	"sync"
	"sync/atomic"

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

// Roles a Node holds, named as the store manifest records them.
const (
	RolePrimary = "primary"
	RoleReplica = "replica"
	RoleFenced  = "fenced"
)

// Node fronts a serving engine whose role can change at runtime: a
// primary accepting writes, a follower applying a replication stream, or
// a fenced ex-primary refusing writes. It is the core.Engine a replicated
// server serves and the one owner of the node's role and term: the
// shipper reads both from it, and every role change goes through Fence or
// Promote, which hand it to the persist function. Reads delegate under a
// shared lock, writes check the role first, and Promote swaps the whole
// engine under the exclusive lock so in-flight readers drain before the
// follower stack is torn down.
type Node struct {
	// role and term are read without mu: the shipper stamps every record
	// with the term on the group-commit path, inside some request's Apply
	// read lock, where a read lock of its own would queue behind a waiting
	// Fence or Promote and deadlock. The term changes only under mu while
	// no admitted write is in flight, so a record carries the term its
	// write was admitted under.
	role    atomic.Value // string: RolePrimary, RoleReplica or RoleFenced
	term    atomic.Uint64
	persist func(role string, term uint64) error

	mu   sync.RWMutex
	conc *core.Concurrent
	// lineage is the term of the timeline conc holds, the term Position
	// pairs with its LSN. It moves with the term everywhere but Fence: a
	// fenced node still serves its old lineage, and a new term beside that
	// lineage's LSN would name a position the node never reached.
	lineage uint64

	// roleRead, when set, runs between Role's first two loads: a test
	// seam that lets a whole Fence or Promote land inside one Role call.
	roleRead func()
}

var _ core.Engine = (*Node)(nil)

// NewNode builds a node over conc holding role under term. persist
// durably records a role change before Fence or Promote completes; nil
// means the node has no manifest to keep.
func NewNode(conc *core.Concurrent, role string, term uint64, persist func(role string, term uint64) error) *Node {
	n := &Node{conc: conc, persist: persist, lineage: term}
	if role == RoleFenced {
		// A store that boots fenced records only the raised term, not the
		// lineage its data is on. Lineage 0 sorts below every term, so no
		// barrier of a replicated timeline is answered here.
		n.lineage = 0
	}
	n.role.Store(role)
	n.term.Store(term)
	return n
}

// Role returns the node's role (RolePrimary, RoleReplica or RoleFenced)
// and its term, as a pair the node held at one instant. Fence changes the
// role before the term and Promote the term before the role, so neither
// order of two plain loads is safe for both: role-then-term can pair a
// fenced node's new term with primary. Role reads the term again after
// the role and retries if it moved; terms only grow, so an unchanged term
// was the node's term when the role was read.
func (n *Node) Role() (string, uint64) {
	for {
		term := n.term.Load()
		if n.roleRead != nil {
			n.roleRead()
		}
		role := n.role.Load().(string)
		if n.term.Load() == term {
			return role, term
		}
	}
}

// Fence stands a primary down: a peer proved term, a newer lineage,
// exists. On a node that is not primary it does nothing and reports
// false. The order: stop admitting writes; call wake, so writes parked on
// replica acks see the role and fail core.ErrNotPrimary; wait for the
// writes already admitted to drain (they commit under the old term); then
// raise the term and persist the fence. Reads keep working throughout,
// and Position keeps the old lineage's term: the data is still that
// lineage's, so a read barriered at a position of the new term is STALE
// here however far the old LSN has run.
func (n *Node) Fence(term uint64, wake func()) (bool, error) {
	if !n.role.CompareAndSwap(RolePrimary, RoleFenced) {
		return false, nil
	}
	if wake != nil {
		wake()
	}
	n.mu.Lock()
	term = max(term, n.term.Load())
	n.term.Store(term)
	n.mu.Unlock()
	return true, n.record(RoleFenced, term)
}

// Promote makes the node the primary of term over conc. The order: persist
// the term; swap conc in under the exclusive lock, which waits out every
// in-flight request on the old engine (returned, for the caller to close);
// run arm, which installs what a write on conc needs before it may be
// acknowledged (the commit hook, the semi-sync gate); and only then admit
// the first write. If persisting fails nothing has changed and the old
// engine is nil; if arm fails the node serves conc's reads but stays
// non-writable.
func (n *Node) Promote(conc *core.Concurrent, term uint64, arm func() error) (*core.Concurrent, error) {
	if err := n.record(RolePrimary, term); err != nil {
		return nil, err
	}
	n.mu.Lock()
	old := n.conc
	n.conc = conc
	n.term.Store(term)
	n.lineage = term
	n.mu.Unlock()
	if arm != nil {
		if err := arm(); err != nil {
			return old, err
		}
	}
	n.role.Store(RolePrimary)
	return old, nil
}

// record persists a role change. Fence and Promote call it without n.mu,
// which would block every reader for the write: a fence records only after
// its CompareAndSwap from primary, and a node turns primary only at the end
// of Promote, so a fence cannot overtake the promotion before it.
func (n *Node) record(role string, term uint64) error {
	if n.persist == nil {
		return nil
	}
	return n.persist(role, term)
}

// Rebind installs a new engine while keeping the follower role — the
// re-clone path, when a reconnect handshake demanded a fresh snapshot
// and the stack was rebuilt from it. The engine and term swap together
// under the one lock, so a reader that observes the new term is
// guaranteed the new engine and the position it publishes too — the
// invariant (term, LSN) read barriers rely on. The old engine is returned
// for the caller to close; like Promote, the exclusive lock waits out
// every in-flight request on it first.
func (n *Node) Rebind(conc *core.Concurrent, term uint64) *core.Concurrent {
	n.mu.Lock()
	defer n.mu.Unlock()
	old := n.conc
	n.conc = conc
	if term > n.term.Load() {
		n.term.Store(term)
	}
	n.lineage = n.term.Load()
	return old
}

// Apply implements core.Engine (primary only): on a follower or a fenced
// node every entry fails with core.ErrNotPrimary.
func (n *Node) Apply(ops []core.BatchOp, sp *trace.Span) []core.BatchResult {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.role.Load() != RolePrimary {
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

// Position implements core.Engine: the term of the timeline the node's
// data is on and the engine's published epoch, which on a replicated
// (always logged) stack is the LSN of the last record a read sees. The
// term is the node's own except on a fenced node, which reports the
// lineage it was fenced on (see Fence), or 0 when it booted fenced and
// that lineage is unknown; Role has the raised term. Both are read under
// the one lock Promote, Rebind and Fence swap them under, so a caller
// never sees the term of one timeline beside the LSN of another.
func (n *Node) Position() (term, lsn uint64) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.lineage, n.conc.Epoch()
}
