package eio

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrReadOnly reports a mutating operation on a read-only snapshot view.
var ErrReadOnly = fmt.Errorf("eio: mutation through read-only snapshot view")

// SnapStore is a single-writer / multi-reader multi-version page store: the
// serving substrate behind core.Concurrent. One writer mutates pages through
// the Store interface while any number of readers run against immutable
// epoch snapshots obtained with Pin + View.
//
// The protocol is epoch-based:
//
//   - The store is always at a committed epoch E (Epoch). A reader calls
//     Pin, which atomically pins the current epoch and returns it, then
//     reads through View(epoch); every page it reads resolves to that
//     page's content as of epoch E no matter what the writer does
//     concurrently. Unpin releases the snapshot.
//   - The writer mutates pages freely and then calls Commit, which
//     publishes the accumulated writes as the next epoch: over a TxStore
//     the LSN of the record that made them durable, so one number says
//     what a reader sees and how far the log has got; over any other store
//     the current epoch plus one. Before the first overwrite of each page
//     since the last commit, SnapStore captures the page's pre-image into a
//     version chain, so pinned readers keep seeing the epoch they pinned.
//     Abort discards the capture bookkeeping of an abandoned batch instead
//     (used when the batch ran inside a rolled-back TxStore transaction,
//     which restores the inner store by itself).
//
// Frees are deferred: Free hides the page from the writer, but the inner
// free happens only at a later Commit once no pinned epoch can still read
// the page. Free captures nothing: the writer can no longer write the page,
// so until that inner free the inner page keeps the image every view that
// can read it expects. A crash before that point leaks (never corrupts) the
// page — Scrub reclaims such leaks, the same policy TxStore documents for
// mid-transaction allocations. A page whose inner free has happened, and
// that the inner store has not handed out again, is refused by Free.
//
// Locking is striped by page id: concurrent readers of different pages never
// contend, and a reader only waits for the writer when both touch the same
// page at the same instant. Version capture costs the writer one extra inner
// read per distinct page it overwrites per batch; readers served from the
// version chain perform no inner I/O (the SnapStats.VersionReads counter
// records them).
//
// The Store methods (Write, Alloc, Free, and writer-side Read) must be used
// by one writer goroutine at a time — exactly the single-writer discipline
// the underlying index structures already require. Pin, Unpin, View, Epoch
// and view reads are safe from any goroutine.
type SnapStore struct {
	inner   Store
	ps      int
	stripes []snapStripe

	// Epoch and pin state.
	emu   sync.Mutex
	epoch uint64
	pins  map[uint64]int

	// Writer batch state: pages captured, allocated or freed since the last
	// Commit/Abort, true for the captured ones. spare holds the page
	// buffers of versions gc dropped, for the next captures to reuse (a
	// write-only stream captures and drops the same few pages' worth every
	// commit); it is bounded. released holds the pages whose deferred free
	// gc has applied to the inner store and that its Alloc has not handed
	// back since, so a second Free of one fails at the call. All three are
	// guarded by wmu.
	wmu      sync.Mutex
	batch    map[PageID]bool
	spare    [][]byte
	released map[PageID]struct{}

	pendingFrees atomic.Int64 // deferred frees not yet applied to inner
	versionReads atomic.Uint64
	versionsHeld atomic.Int64
}

// snapStripe guards the version chains and deferred-free marks of the page
// ids that hash to it.
type snapStripe struct {
	mu       sync.Mutex
	versions map[PageID][]pageVersion // ascending validThrough
	freed    map[PageID]uint64        // page id -> epoch it was freed at + 1: the free commits at the next publish
}

// pageVersion is one captured pre-image: the content of the page for every
// epoch in (previous version's validThrough, validThrough].
type pageVersion struct {
	validThrough uint64
	data         []byte
}

var _ Store = (*SnapStore)(nil)

// DefaultSnapStripes is the lock-striping width used when NewSnapStore is
// given a non-positive stripe count.
const DefaultSnapStripes = 64

// maxSpareVersions bounds the recycled version buffers a SnapStore keeps.
const maxSpareVersions = 64

// logged is a store with a write-ahead log (TxStore).
type logged interface{ AppliedLSN() uint64 }

// NewSnapStore wraps inner. stripes is the lock-striping width (use 0 for
// DefaultSnapStripes). The store starts at epoch 0, or over a log at its
// LSN: a reopened TxStore's recovered one.
func NewSnapStore(inner Store, stripes int) *SnapStore {
	if stripes <= 0 {
		stripes = DefaultSnapStripes
	}
	s := &SnapStore{
		inner:    inner,
		ps:       inner.PageSize(),
		stripes:  make([]snapStripe, stripes),
		pins:     map[uint64]int{},
		batch:    map[PageID]bool{},
		released: map[PageID]struct{}{},
	}
	if l, ok := inner.(logged); ok {
		s.epoch = l.AppliedLSN()
	}
	for i := range s.stripes {
		s.stripes[i].versions = map[PageID][]pageVersion{}
		s.stripes[i].freed = map[PageID]uint64{}
	}
	return s
}

func (s *SnapStore) stripe(id PageID) *snapStripe {
	return &s.stripes[int(id%PageID(len(s.stripes)))]
}

// Epoch returns the current committed epoch.
func (s *SnapStore) Epoch() uint64 {
	s.emu.Lock()
	defer s.emu.Unlock()
	return s.epoch
}

// Pin atomically pins the current committed epoch and returns it. Every
// View(epoch) read remains answerable until the matching Unpin.
func (s *SnapStore) Pin() uint64 {
	s.emu.Lock()
	defer s.emu.Unlock()
	s.pins[s.epoch]++
	return s.epoch
}

// Unpin releases a pin taken with Pin. Version memory and deferred frees
// held for the epoch are reclaimed at the next Commit (or Close).
func (s *SnapStore) Unpin(epoch uint64) {
	s.emu.Lock()
	defer s.emu.Unlock()
	if n, ok := s.pins[epoch]; ok {
		if n <= 1 {
			delete(s.pins, epoch)
		} else {
			s.pins[epoch] = n - 1
		}
	}
}

// minPinLocked returns the lowest epoch any snapshot may still read: the
// minimum over the pinned epochs and the current epoch (a future Pin can
// only land on the current epoch or later). Callers hold emu.
func (s *SnapStore) minPinLocked() uint64 {
	min := s.epoch
	for e := range s.pins {
		if e < min {
			min = e
		}
	}
	return min
}

// capture saves the pre-image of id (as of the current committed epoch)
// before its first overwrite in this batch. Callers hold wmu; the stripe
// lock is taken here, which excludes concurrent view reads of id.
func (s *SnapStore) capture(id PageID) error {
	if _, ok := s.batch[id]; ok {
		return nil // already captured, allocated or freed this batch
	}
	s.emu.Lock()
	epoch := s.epoch
	s.emu.Unlock()
	st := s.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	var data []byte
	if n := len(s.spare); n > 0 {
		data, s.spare = s.spare[n-1], s.spare[:n-1]
	} else {
		data = make([]byte, s.ps)
	}
	if err := s.inner.Read(id, data); err != nil {
		return fmt.Errorf("eio: snap: capture page %d: %w", id, err)
	}
	st.versions[id] = append(st.versions[id], pageVersion{validThrough: epoch, data: data})
	s.versionsHeld.Add(1)
	s.batch[id] = true
	return nil
}

// Commit publishes every write since the last Commit/Abort as the next
// epoch (see the type comment) and returns it.
func (s *SnapStore) Commit() (uint64, error) {
	epoch := s.Epoch() + 1
	if l, ok := s.inner.(logged); ok {
		epoch = l.AppliedLSN()
	}
	return epoch, s.CommitAt(epoch)
}

// CommitAt publishes every write since the last Commit/Abort as epoch, at
// or above the current one (a follower publishes each applied record at
// its LSN). The current epoch again folds the writes into it if nothing is
// pinned, as when a stack opens its structure over a log that has not
// moved, and else leaves them behind pinned versions until the next epoch.
// It also garbage-collects version chains no pinned epoch can read and
// applies deferred frees that are out of reach of every pin.
func (s *SnapStore) CommitAt(epoch uint64) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.emu.Lock()
	if cur := s.epoch; epoch < cur {
		s.emu.Unlock()
		return fmt.Errorf("eio: snap: cannot publish epoch %d below epoch %d", epoch, cur)
	}
	s.epoch = epoch
	// Unpinned, no reader can reach a version or a freed page: the next
	// Pin lands on the epoch just published, which reads the live pages.
	minPin := uint64(math.MaxUint64)
	if len(s.pins) > 0 {
		minPin = s.minPinLocked()
	}
	s.emu.Unlock()
	clear(s.batch)
	return s.gc(minPin)
}

// Abort discards the capture bookkeeping of the current batch: the versions
// captured since the last Commit and the frees it deferred. It is the
// correct ending for a batch whose inner-store writes were rolled back
// (e.g. by TxStore.Rollback) — the inner store already holds the pre-batch
// image, so the captured copies are redundant. After Abort the store is
// still at the epoch of the last Commit.
func (s *SnapStore) Abort() {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.emu.Lock()
	epoch := s.epoch
	s.emu.Unlock()
	for id, captured := range s.batch {
		st := s.stripe(id)
		st.mu.Lock()
		if vs := st.versions[id]; captured && len(vs) > 0 && vs[len(vs)-1].validThrough == epoch {
			s.recycle(vs[len(vs)-1:])
			if len(vs) == 1 {
				delete(st.versions, id)
			} else {
				st.versions[id] = vs[:len(vs)-1]
			}
		}
		if f, ok := st.freed[id]; ok && f == epoch+1 {
			delete(st.freed, id)
			s.pendingFrees.Add(-1)
		}
		st.mu.Unlock()
	}
	clear(s.batch)
}

// recycle drops versions no reader can reach any more — a view copies a
// version's bytes out under the stripe lock its caller holds, it never
// keeps them — and banks their buffers for later captures. Callers hold
// wmu and the versions' stripe lock.
func (s *SnapStore) recycle(vs []pageVersion) {
	s.versionsHeld.Add(-int64(len(vs)))
	for _, v := range vs {
		if len(s.spare) < maxSpareVersions {
			s.spare = append(s.spare, v.data)
		}
	}
}

// gc drops versions unreadable by every pin and applies mature deferred
// frees to the inner store. Callers hold wmu.
func (s *SnapStore) gc(minPin uint64) error {
	var firstErr error
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for id, freedAt := range st.freed {
			if freedAt > minPin {
				continue
			}
			if vs, ok := st.versions[id]; ok {
				s.recycle(vs)
				delete(st.versions, id)
			}
			delete(st.freed, id)
			s.pendingFrees.Add(-1)
			if err := s.inner.Free(id); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("eio: snap: deferred free of page %d: %w", id, err)
				}
			} else {
				s.released[id] = struct{}{}
			}
		}
		for id, vs := range st.versions {
			keep := vs[:0]
			for i, v := range vs {
				if v.validThrough >= minPin {
					keep = append(keep, v)
				} else {
					s.recycle(vs[i : i+1])
				}
			}
			if len(keep) == 0 {
				delete(st.versions, id)
			} else {
				st.versions[id] = keep
			}
		}
		st.mu.Unlock()
	}
	return firstErr
}

// --- writer-side Store interface ---------------------------------------

// PageSize implements Store.
func (s *SnapStore) PageSize() int { return s.ps }

// Alloc implements Store. Pages allocated inside a batch need no version
// capture: no snapshot taken before the batch committed can reference them.
func (s *SnapStore) Alloc() (PageID, error) {
	id, err := s.inner.Alloc()
	if err != nil {
		return NilPage, err
	}
	s.wmu.Lock()
	s.batch[id] = false
	delete(s.released, id)
	s.wmu.Unlock()
	return id, nil
}

// Free implements Store. The inner free is deferred until no pin can reach
// the page, and nothing is captured: pinned readers keep reading the inner
// page, which the writer can no longer change (see the type comment, also
// for the crash-leak trade-off). The page joins the batch, so Abort undoes
// the free.
func (s *SnapStore) Free(id PageID) error {
	if id == NilPage {
		return nil
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if _, ok := s.released[id]; ok {
		return fmt.Errorf("eio: page %d: %w", id, ErrBadPage)
	}
	s.emu.Lock()
	epoch := s.epoch
	s.emu.Unlock()
	st := s.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.freed[id]; ok {
		return fmt.Errorf("eio: page %d: %w", id, ErrBadPage)
	}
	if _, ok := s.batch[id]; !ok {
		s.batch[id] = false
	}
	st.freed[id] = epoch + 1
	s.pendingFrees.Add(1)
	return nil
}

// Read implements Store: the writer's own reads see the current (possibly
// uncommitted) state, straight from the inner store.
func (s *SnapStore) Read(id PageID, buf []byte) error {
	st := s.stripe(id)
	st.mu.Lock()
	_, freed := st.freed[id]
	st.mu.Unlock()
	if freed {
		return fmt.Errorf("eio: page %d: %w", id, ErrBadPage)
	}
	return s.inner.Read(id, buf)
}

// Write implements Store. The first write of each page per batch captures
// the page's committed pre-image before the overwrite, under the page's
// stripe lock so no concurrent view read can observe the new content at an
// old epoch.
func (s *SnapStore) Write(id PageID, buf []byte) error {
	if len(buf) != s.ps {
		return fmt.Errorf("eio: write buffer %d bytes: %w", len(buf), ErrPageSize)
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	st := s.stripe(id)
	st.mu.Lock()
	_, freed := st.freed[id]
	st.mu.Unlock()
	if freed {
		return fmt.Errorf("eio: page %d: %w", id, ErrBadPage)
	}
	if err := s.capture(id); err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return s.inner.Write(id, buf)
}

// Stats implements Store, reporting the inner store's counters (reads
// served from version chains never reach the inner store; SnapStats counts
// them separately).
func (s *SnapStore) Stats() Stats { return s.inner.Stats() }

// ResetStats implements Store. Version chains, pins and deferred frees are
// untouched — only accounting resets.
func (s *SnapStore) ResetStats() {
	s.versionReads.Store(0)
	s.inner.ResetStats()
}

// Pages implements Store, reporting the writer's logical view: pages whose
// free is deferred are already excluded.
func (s *SnapStore) Pages() int {
	return s.inner.Pages() - int(s.pendingFrees.Load())
}

// LivePageIDs implements PageLister when the inner store does. It reports
// the inner store's live set, which matches the logical live set only when
// the SnapStore is quiescent — no pinned epochs and no deferred frees
// (a Commit with all readers drained reaches that state). A page whose
// free is still deferred shows up as live here, so scrubbing a
// non-quiescent SnapStore over-reports leaks rather than freeing anything
// a pinned reader still needs.
func (s *SnapStore) LivePageIDs() ([]PageID, error) {
	pl, ok := s.inner.(PageLister)
	if !ok {
		return nil, fmt.Errorf("eio: snap: inner store cannot enumerate pages")
	}
	return pl.LivePageIDs()
}

// Close applies every still-deferred free whose pins have drained, then
// closes the inner store. Frees still blocked by live pins are dropped
// (the store is going away with its readers).
func (s *SnapStore) Close() error {
	s.wmu.Lock()
	s.emu.Lock()
	minPin := s.minPinLocked()
	s.emu.Unlock()
	err := s.gc(minPin)
	s.wmu.Unlock()
	if cerr := s.inner.Close(); err == nil {
		err = cerr
	}
	return err
}

// SnapStats is a point-in-time summary of the snapshot machinery.
type SnapStats struct {
	// Pins is the number of live snapshot pins.
	Pins int
	// Versions is the number of captured page pre-images currently held.
	Versions int64
	// PendingFrees is the number of frees deferred behind pinned epochs.
	PendingFrees int64
	// VersionReads counts view reads served from version chains instead of
	// the inner store since creation or the last ResetStats. Each is one
	// logical block transfer that cost no inner I/O.
	VersionReads uint64
}

// SnapStats returns the current snapshot-machinery counters.
func (s *SnapStore) SnapStats() SnapStats {
	s.emu.Lock()
	pins := 0
	for _, n := range s.pins {
		pins += n
	}
	s.emu.Unlock()
	return SnapStats{
		Pins:         pins,
		Versions:     s.versionsHeld.Load(),
		PendingFrees: s.pendingFrees.Load(),
		VersionReads: s.versionReads.Load(),
	}
}

// View returns a read-only Store fixed at the given pinned epoch: every
// Read resolves to the page content as of that epoch. The caller must hold
// a Pin on the epoch for the lifetime of the view; reads through a view of
// an unpinned epoch may observe later states.
func (s *SnapStore) View(epoch uint64) *SnapView {
	return &SnapView{s: s, epoch: epoch}
}

// SnapView is a read-only epoch-consistent view of a SnapStore. Mutating
// Store methods fail with ErrReadOnly; Close is a no-op (the view borrows
// the SnapStore, it does not own it).
type SnapView struct {
	s     *SnapStore
	epoch uint64
}

var _ Store = (*SnapView)(nil)

// PageSize implements Store.
func (v *SnapView) PageSize() int { return v.s.ps }

// Read implements Store, resolving the page to its content as of the
// view's epoch: the oldest captured version that still covers the epoch,
// or the live page when it has not been overwritten since.
func (v *SnapView) Read(id PageID, buf []byte) error {
	if len(buf) < v.s.ps {
		return fmt.Errorf("eio: read buffer %d bytes: %w", len(buf), ErrPageSize)
	}
	st := v.s.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	if vs := st.versions[id]; len(vs) > 0 {
		// Versions are appended in commit order, so validThrough is
		// ascending: binary-search the first one covering the epoch.
		i := sort.Search(len(vs), func(i int) bool { return vs[i].validThrough >= v.epoch })
		if i < len(vs) {
			copy(buf, vs[i].data)
			v.s.versionReads.Add(1)
			return nil
		}
	}
	if freedAt, ok := st.freed[id]; ok && freedAt <= v.epoch {
		return fmt.Errorf("eio: page %d freed at epoch %d: %w", id, freedAt, ErrBadPage)
	}
	// The live page predates any overwrite in the current batch (those
	// are captured above), so it is valid at the view's epoch. The inner
	// read happens under the stripe lock: the writer takes the same lock
	// for capture-then-overwrite, so this read is wholly before or wholly
	// after any concurrent write of the page.
	return v.s.inner.Read(id, buf)
}

// Alloc implements Store (read-only: always fails).
func (v *SnapView) Alloc() (PageID, error) { return NilPage, ErrReadOnly }

// Free implements Store (read-only: always fails).
func (v *SnapView) Free(id PageID) error { return ErrReadOnly }

// Write implements Store (read-only: always fails).
func (v *SnapView) Write(id PageID, buf []byte) error { return ErrReadOnly }

// Stats implements Store, reporting the inner store's counters (see
// SnapStore.Stats).
func (v *SnapView) Stats() Stats { return v.s.Stats() }

// ResetStats implements Store.
func (v *SnapView) ResetStats() { v.s.ResetStats() }

// Pages implements Store, reporting the writer-side page count (a view has
// no way to count the pages live at its epoch without a full walk).
func (v *SnapView) Pages() int { return v.s.Pages() }

// Close implements Store as a no-op: the underlying SnapStore stays open.
func (v *SnapView) Close() error { return nil }
