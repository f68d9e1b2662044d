package eio

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
)

// rawWriter is the torn-write hook: it overwrites a prefix of a page's
// backing storage without maintaining any checksum, exactly as an
// interrupted physical write would. FileStore and MemStore implement it.
type rawWriter interface {
	writeRaw(id PageID, prefix []byte) error
}

// syncer is implemented by stores with an explicit durability barrier
// (FileStore). Wrappers propagate Sync through it.
type syncer interface {
	Sync() error
}

// Model is what a FaultStore does at its armed operation: Fail returns an
// error once, every other model crashes the store and names the disk image
// the crash leaves behind.
type Model int

// The fault models. Under a model with a volatile cache (every crash model
// but Direct) writes are buffered in the FaultStore and frees deferred
// until Sync, which flushes them in order, applies the frees and syncs the
// inner store; Alloc passes through, as page ids must come from the inner
// store.
const (
	// Fail: the armed operation returns an error wrapping ErrInjected,
	// once; the store carries on.
	Fail Model = iota
	// Direct: writes reach the inner store as they are issued; a crash
	// only stops the process.
	Direct
	// DropAll: a crash loses every unsynced write and free.
	DropAll
	// Cached: DropAll, and the last unsynced write lands torn — a prefix
	// of the page with a stale checksum trailer.
	Cached
	// Subset: an arbitrary subset of the unsynced writes reaches the disk,
	// in arbitrary order (a write cache that reorders between barriers),
	// frees and the allocation state stay lost, and the last of the other
	// writes lands torn.
	Subset
	// SubsetWhole: Subset with no torn write.
	SubsetWhole
)

var modelNames = [...]string{"fail", "direct", "drop-all", "cached", "subset", "subset-whole"}

// String implements fmt.Stringer; the names label sweep sub-tests.
func (m Model) String() string {
	if m >= 0 && int(m) < len(modelNames) {
		return modelNames[m]
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// cached reports whether m buffers writes in a volatile cache.
func (m Model) cached() bool { return m >= DropAll }

// FaultStore wraps a Store and injects one fault, under one Model, at a
// chosen operation: the seam every failure test in the repository goes
// through. It counts every operation and, separately, the mutating ones
// (Write, Alloc, Free and Sync); Arm(k) picks the k-th from now. An error
// can hit any operation, so under Fail k counts every operation; a crash
// can only fall between two mutating ones — a crash at a read leaves the
// disk a crash at the next write would — so under a crash model k counts
// mutating operations only.
//
// At a crash the armed operation and every one after it, reads included,
// fail with ErrCrashed; Crash then applies the model to the inner store.
// Crash can also be called with nothing armed, to crash now.
type FaultStore struct {
	mu      sync.Mutex
	inner   Store
	model   Model
	rng     *rand.Rand
	ops     int  // operations seen
	muts    int  // mutating operations seen
	at      int  // the armed operation's number on the model's count (0 = none)
	dead    bool // every operation fails with ErrCrashed
	crashed bool // Crash has applied the model

	log   []pendingWrite      // buffered writes, oldest first
	index map[PageID]int      // page -> index of its latest buffered write
	freed map[PageID]struct{} // deferred frees
}

type pendingWrite struct {
	id   PageID
	data []byte
}

var _ Store = (*FaultStore)(nil)

// NewFaultStore wraps inner under model m, disarmed. The seed drives the
// surviving subset and torn-write lengths, so crashes reproduce exactly.
func NewFaultStore(inner Store, m Model, seed int64) *FaultStore {
	return &FaultStore{
		inner: inner,
		model: m,
		rng:   rand.New(rand.NewSource(seed)),
		index: make(map[PageID]int),
		freed: make(map[PageID]struct{}),
	}
}

// Arm sets the fault at the k-th operation from now on the model's count
// (k = 1 is the very next one); k ≤ 0 disarms.
func (f *FaultStore) Arm(k int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.at = 0
	if k > 0 {
		f.at = f.count() + k
	}
}

// count returns the model's operation count. Callers hold mu.
func (f *FaultStore) count() int {
	if f.model == Fail {
		return f.ops
	}
	return f.muts
}

// Ops returns the operations seen so far: all of them, and the mutating
// ones.
func (f *FaultStore) Ops() (all, mutating int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops, f.muts
}

// Pending returns the number of buffered (unsynced) page writes.
func (f *FaultStore) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.log)
}

// trip counts one operation and returns the fault it meets, if any.
// Callers hold mu.
func (f *FaultStore) trip(op string, mutating bool) error {
	if f.dead {
		return fmt.Errorf("eio: %s: %w", op, ErrCrashed)
	}
	f.ops++
	if mutating {
		f.muts++
	}
	if f.at == 0 || f.count() != f.at {
		return nil
	}
	f.at = 0
	if f.model == Fail {
		return fmt.Errorf("eio: %s fault at op %d: %w", op, f.ops, ErrInjected)
	}
	f.dead = true
	return fmt.Errorf("eio: %s: crash at op %d: %w", op, f.ops, ErrCrashed)
}

// PageSize implements Store.
func (f *FaultStore) PageSize() int { return f.inner.PageSize() }

// Alloc implements Store.
func (f *FaultStore) Alloc() (PageID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.trip("alloc", true); err != nil {
		return NilPage, err
	}
	return f.inner.Alloc()
}

// Free implements Store. Under a cached model the free is deferred until
// Sync, so that a crash can never hand a committed page's storage to a new
// owner.
func (f *FaultStore) Free(id PageID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.trip("free", true); err != nil {
		return err
	}
	if !f.model.cached() {
		return f.inner.Free(id)
	}
	if id == NilPage {
		return nil
	}
	if _, dead := f.freed[id]; dead {
		return fmt.Errorf("eio: page %d already freed: %w", id, ErrBadPage)
	}
	f.freed[id] = struct{}{}
	f.dropPendingLocked(id)
	return nil
}

// Read implements Store: buffered writes win over the inner store.
func (f *FaultStore) Read(id PageID, buf []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.trip("read", false); err != nil {
		return err
	}
	if f.model.cached() {
		if len(buf) < f.inner.PageSize() {
			return fmt.Errorf("eio: read buffer %d bytes: %w", len(buf), ErrPageSize)
		}
		if _, dead := f.freed[id]; dead {
			return fmt.Errorf("eio: page %d is freed: %w", id, ErrBadPage)
		}
		if i, ok := f.index[id]; ok {
			copy(buf, f.log[i].data)
			return nil
		}
	}
	return f.inner.Read(id, buf)
}

// Write implements Store; under a cached model the page is buffered.
func (f *FaultStore) Write(id PageID, buf []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.trip("write", true); err != nil {
		return err
	}
	if !f.model.cached() {
		return f.inner.Write(id, buf)
	}
	if len(buf) != f.inner.PageSize() {
		return fmt.Errorf("eio: write buffer %d bytes: %w", len(buf), ErrPageSize)
	}
	if _, dead := f.freed[id]; dead {
		return fmt.Errorf("eio: page %d is freed: %w", id, ErrBadPage)
	}
	f.dropPendingLocked(id)
	f.index[id] = len(f.log)
	f.log = append(f.log, pendingWrite{id: id, data: slices.Clone(buf)})
	return nil
}

// dropPendingLocked removes any buffered write for id (tombstoned in the
// log, removed from the index).
func (f *FaultStore) dropPendingLocked(id PageID) {
	if i, ok := f.index[id]; ok {
		f.log[i] = pendingWrite{}
		delete(f.index, id)
	}
}

// Sync makes all buffered work durable: writes flush in order, deferred
// frees apply, and the inner store's own Sync (if any) commits the state.
// It is a mutating operation: a fault can land exactly on the durability
// barrier, the most interesting point of a commit.
func (f *FaultStore) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.trip("sync", true); err != nil {
		return err
	}
	return f.flushLocked()
}

// flushLocked empties the volatile cache into the inner store and syncs it.
func (f *FaultStore) flushLocked() error {
	for _, w := range f.log {
		if w.id == NilPage {
			continue // superseded or freed before reaching the disk
		}
		if err := f.inner.Write(w.id, w.data); err != nil {
			return fmt.Errorf("eio: sync flush: %w", err)
		}
	}
	f.log = f.log[:0]
	clear(f.index)
	// In id order, not map order: the inner free list — and with it every
	// later Alloc — must come out the same on every run of a seed.
	ids := make([]PageID, 0, len(f.freed))
	for id := range f.freed {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if err := f.inner.Free(id); err != nil {
			return fmt.Errorf("eio: sync free: %w", err)
		}
	}
	clear(f.freed)
	if s, ok := f.inner.(syncer); ok {
		return s.Sync()
	}
	return nil
}

// Crash simulates power loss under the store's model: unsynced writes and
// frees are dropped, except those the model lets through, and a torn model
// applies the last buffered write that did not survive as a partial prefix
// (at least one byte, never the whole slot) with a stale checksum trailer.
// It returns the id of the torn page, or NilPage.
//
// The store is dead afterwards; the inner store holds the post-crash
// image. For a FileStore, call CloseCrash and reopen the path to simulate
// recovery.
func (f *FaultStore) Crash() (PageID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return NilPage, fmt.Errorf("eio: crash: %w", ErrCrashed)
	}
	f.dead, f.crashed = true, true
	log := f.log
	f.log, f.index, f.freed = nil, nil, nil
	if f.model == Subset || f.model == SubsetWhole {
		p := float64(1+f.rng.Intn(4)) / 4
		for _, i := range f.rng.Perm(len(log)) {
			w := &log[i]
			if w.id == NilPage || f.rng.Float64() >= p {
				continue
			}
			if err := f.inner.Write(w.id, w.data); err != nil {
				return NilPage, fmt.Errorf("eio: surviving write of page %d: %w", w.id, err)
			}
			w.id = NilPage // on disk whole: not a candidate for tearing
		}
	}
	rw, ok := f.inner.(rawWriter)
	if (f.model != Cached && f.model != Subset) || !ok {
		return NilPage, nil
	}
	for i := len(log) - 1; i >= 0; i-- {
		if w := log[i]; w.id != NilPage {
			if err := rw.writeRaw(w.id, w.data[:1+f.rng.Intn(len(w.data))]); err != nil {
				return NilPage, fmt.Errorf("eio: tear page %d: %w", w.id, err)
			}
			return w.id, nil
		}
	}
	return NilPage, nil
}

// Stats implements Store, reporting the inner store's counters: a fault
// that never reaches the inner store, or a write still buffered, is not
// an I/O.
func (f *FaultStore) Stats() Stats { return f.inner.Stats() }

// ResetStats implements Store by delegating to the inner store. The armed
// fault, the operation counts and buffered writes are NOT reset.
func (f *FaultStore) ResetStats() { f.inner.ResetStats() }

// Pages implements Store, counting deferred frees as already gone.
func (f *FaultStore) Pages() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.inner.Pages() - len(f.freed)
}

// Close flushes buffered work and closes the inner store. After a crash it
// closes nothing — the caller owns the post-crash image.
func (f *FaultStore) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return nil
	}
	if err := f.flushLocked(); err != nil {
		f.inner.Close()
		return err
	}
	return f.inner.Close()
}
