package eio

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
)

// rawWriter is the torn-write simulation hook: it overwrites a prefix of a
// page's backing storage without maintaining any checksum, exactly as an
// interrupted physical write would. FileStore and MemStore implement it.
type rawWriter interface {
	writeRaw(id PageID, prefix []byte) error
}

// syncer is implemented by stores with an explicit durability barrier
// (FileStore). CrashStore propagates Sync through it.
type syncer interface {
	Sync() error
}

// CrashStore wraps a Store and models a volatile disk write cache, making
// crash consistency a testable property of every structure built on eio:
//
//   - Write is buffered in memory; the inner store is untouched.
//   - Free is deferred; the page stays allocated on the inner store until
//     the next Sync (the classic "no reuse before checkpoint" rule, which
//     is what keeps a crash from clobbering committed pages).
//   - Alloc passes through, because ids must come from the inner store. An
//     allocation that is never synced leaves only unreferenced tail pages
//     behind — the committed superblock never points at them.
//   - Sync flushes buffered writes in order, applies deferred frees, and
//     then syncs the inner store, making everything durable.
//   - Crash drops all un-synced work. In subset-survival mode an arbitrary
//     subset of the buffered writes reaches the disk first, in arbitrary
//     order, while frees and the allocation state stay lost — what a
//     write cache that reorders between barriers can leave. In torn-write
//     mode the last buffered write that did not survive is additionally
//     applied as a partial prefix with a stale checksum trailer — the
//     worst-case image a power loss can leave.
//
// After Crash the CrashStore is dead (every operation fails with
// ErrCrashed) and the inner store holds the post-crash disk image: close
// it with FileStore.CloseCrash and reopen the file to simulate recovery.
type CrashStore struct {
	mu      sync.Mutex
	inner   Store
	rng     *rand.Rand
	torn    bool
	subset  bool
	crashed bool

	log   []pendingWrite      // buffered writes, oldest first
	index map[PageID]int      // page -> index of its latest buffered write
	freed map[PageID]struct{} // deferred frees
}

type pendingWrite struct {
	id   PageID
	data []byte
}

var _ Store = (*CrashStore)(nil)

// NewCrashStore wraps inner in a crash-simulating volatile cache. The seed
// drives torn-write lengths, so failures reproduce exactly.
func NewCrashStore(inner Store, seed int64) *CrashStore {
	return &CrashStore{
		inner: inner,
		rng:   rand.New(rand.NewSource(seed)),
		index: make(map[PageID]int),
		freed: make(map[PageID]struct{}),
	}
}

// SetTornWrites toggles tearing of the last in-flight write on Crash.
func (c *CrashStore) SetTornWrites(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.torn = on
}

// SetSubsetSurvival toggles partial survival on Crash: each un-synced write
// independently reaches the inner store or not (with a per-crash
// probability drawn from the seed, up to "all of them"), in shuffled order,
// while deferred frees and everything the inner store commits only on Sync
// are lost. A protocol that applies writes unsynced across many commits
// must recover from every such image, not just from "nothing survived".
func (c *CrashStore) SetSubsetSurvival(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.subset = on
}

// Crashed reports whether Crash has been called.
func (c *CrashStore) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// Pending returns the number of buffered (un-synced) page writes.
func (c *CrashStore) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.log)
}

// PageSize implements Store.
func (c *CrashStore) PageSize() int { return c.inner.PageSize() }

// Alloc implements Store.
func (c *CrashStore) Alloc() (PageID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return NilPage, fmt.Errorf("eio: alloc: %w", ErrCrashed)
	}
	return c.inner.Alloc()
}

// Free implements Store. The free is deferred until Sync so that a crash
// can never hand a committed page's storage to a new owner.
func (c *CrashStore) Free(id PageID) error {
	if id == NilPage {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return fmt.Errorf("eio: free: %w", ErrCrashed)
	}
	if _, dead := c.freed[id]; dead {
		return fmt.Errorf("eio: page %d already freed: %w", id, ErrBadPage)
	}
	c.freed[id] = struct{}{}
	c.dropPendingLocked(id)
	return nil
}

// Read implements Store: buffered writes win over the inner store.
func (c *CrashStore) Read(id PageID, buf []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return fmt.Errorf("eio: read: %w", ErrCrashed)
	}
	if len(buf) < c.inner.PageSize() {
		return fmt.Errorf("eio: read buffer %d bytes: %w", len(buf), ErrPageSize)
	}
	if _, dead := c.freed[id]; dead {
		return fmt.Errorf("eio: page %d is freed: %w", id, ErrBadPage)
	}
	if i, ok := c.index[id]; ok {
		copy(buf, c.log[i].data)
		return nil
	}
	return c.inner.Read(id, buf)
}

// Write implements Store by buffering the page in the volatile cache.
func (c *CrashStore) Write(id PageID, buf []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return fmt.Errorf("eio: write: %w", ErrCrashed)
	}
	if len(buf) != c.inner.PageSize() {
		return fmt.Errorf("eio: write buffer %d bytes: %w", len(buf), ErrPageSize)
	}
	if _, dead := c.freed[id]; dead {
		return fmt.Errorf("eio: page %d is freed: %w", id, ErrBadPage)
	}
	data := make([]byte, len(buf))
	copy(data, buf)
	c.dropPendingLocked(id)
	c.index[id] = len(c.log)
	c.log = append(c.log, pendingWrite{id: id, data: data})
	return nil
}

// dropPendingLocked removes any buffered write for id (tombstoned in the
// log, removed from the index).
func (c *CrashStore) dropPendingLocked(id PageID) {
	if i, ok := c.index[id]; ok {
		c.log[i].id = NilPage
		c.log[i].data = nil
		delete(c.index, id)
	}
}

// Sync makes all buffered work durable: writes flush in order, deferred
// frees apply, and the inner store's own Sync (if any) commits the state.
func (c *CrashStore) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return fmt.Errorf("eio: sync: %w", ErrCrashed)
	}
	for _, w := range c.log {
		if w.id == NilPage {
			continue // superseded or freed before reaching the disk
		}
		if err := c.inner.Write(w.id, w.data); err != nil {
			return fmt.Errorf("eio: sync flush: %w", err)
		}
	}
	c.log = c.log[:0]
	clear(c.index)
	// In id order, not map order: the inner free list — and with it every
	// later Alloc — must come out the same on every run of a seed.
	ids := make([]PageID, 0, len(c.freed))
	for id := range c.freed {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if err := c.inner.Free(id); err != nil {
			return fmt.Errorf("eio: sync free: %w", err)
		}
	}
	clear(c.freed)
	if s, ok := c.inner.(syncer); ok {
		if err := s.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Crash simulates power loss: every un-synced write and free is dropped —
// except, in subset-survival mode, the writes the seed lets through. In
// torn-write mode the most recent buffered write that did not survive is
// applied as a partial prefix (at least one byte, never the whole slot)
// with a stale checksum trailer. It returns the id of the torn page, or
// NilPage.
//
// The CrashStore is unusable afterwards; the inner store holds the
// post-crash image. For a FileStore, call CloseCrash and reopen the path
// to simulate recovery.
func (c *CrashStore) Crash() (PageID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return NilPage, fmt.Errorf("eio: crash: %w", ErrCrashed)
	}
	c.crashed = true
	if c.subset {
		p := float64(1+c.rng.Intn(4)) / 4
		for _, i := range c.rng.Perm(len(c.log)) {
			w := &c.log[i]
			if w.id == NilPage || c.rng.Float64() >= p {
				continue
			}
			if err := c.inner.Write(w.id, w.data); err != nil {
				return NilPage, fmt.Errorf("eio: surviving write of page %d: %w", w.id, err)
			}
			w.id = NilPage // on disk whole: not a candidate for tearing
		}
	}
	torn := NilPage
	if c.torn {
		for i := len(c.log) - 1; i >= 0; i-- {
			w := c.log[i]
			if w.id == NilPage {
				continue
			}
			rw, ok := c.inner.(rawWriter)
			if !ok {
				break
			}
			n := 1 + c.rng.Intn(len(w.data))
			if err := rw.writeRaw(w.id, w.data[:n]); err != nil {
				return NilPage, fmt.Errorf("eio: tear page %d: %w", w.id, err)
			}
			torn = w.id
			break
		}
	}
	c.log = nil
	c.index = nil
	c.freed = nil
	return torn, nil
}

// Stats implements Store. Buffered writes count against the inner store
// only when they are flushed by Sync.
func (c *CrashStore) Stats() Stats { return c.inner.Stats() }

// ResetStats implements Store by delegating to the inner store. Pending
// (unsynced) writes and the crashed flag are NOT reset — only accounting
// is.
func (c *CrashStore) ResetStats() { c.inner.ResetStats() }

// Pages implements Store, counting deferred frees as already gone.
func (c *CrashStore) Pages() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner.Pages() - len(c.freed)
}

// Close flushes buffered work (via Sync) and closes the inner store. After
// a Crash it closes nothing — the caller owns the post-crash image.
func (c *CrashStore) Close() error {
	c.mu.Lock()
	crashed := c.crashed
	c.mu.Unlock()
	if crashed {
		return nil
	}
	if err := c.Sync(); err != nil {
		c.inner.Close()
		return err
	}
	return c.inner.Close()
}
