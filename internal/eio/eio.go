// Package eio implements the external-memory (I/O) model of Aggarwal and
// Vitter that the paper's bounds are stated in: data is stored in disk
// blocks ("pages") holding B items each, and the cost of an algorithm is the
// number of block transfers it performs.
//
// The package provides:
//
//   - Store: the block-device abstraction — fixed-size pages with explicit
//     allocation, exact I/O accounting, and page reuse via a free list.
//   - MemStore: a RAM-backed store, the default substrate for benchmarks.
//   - FileStore: an os.File-backed store, so the same structures run
//     against a real file system.
//   - Pool: an LRU buffer pool modelling a main memory of M pages; hits are
//     free, misses and dirty evictions cost I/Os on the underlying store.
//   - FaultStore: deterministic fault injection for failure testing — one
//     error, or one crash under a named disk model, at a chosen operation.
//   - RecordStore: variable-length records stored as page chains, so a
//     logical node that occupies k blocks costs exactly k I/Os to load.
//
// All index structures in this repository keep their point data exclusively
// in eio pages; reported I/O counts are genuine block-transfer counts.
package eio

import (
	"errors"
	"fmt"
)

// PageID identifies an allocated page. The zero PageID is never allocated
// and acts as a nil reference.
type PageID uint64

// NilPage is the reserved "no page" identifier.
const NilPage PageID = 0

// Stats counts block-level operations. Reads and Writes are the I/Os of the
// external-memory model; Allocs and Frees track space management.
type Stats struct {
	Reads  uint64
	Writes uint64
	Allocs uint64
	Frees  uint64
}

// IOs returns the total number of block transfers (reads + writes).
func (s Stats) IOs() uint64 { return s.Reads + s.Writes }

// Sub returns the counter deltas s - t.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Reads:  s.Reads - t.Reads,
		Writes: s.Writes - t.Writes,
		Allocs: s.Allocs - t.Allocs,
		Frees:  s.Frees - t.Frees,
	}
}

// Add returns the counter sums s + t.
func (s Stats) Add(t Stats) Stats {
	return Stats{
		Reads:  s.Reads + t.Reads,
		Writes: s.Writes + t.Writes,
		Allocs: s.Allocs + t.Allocs,
		Frees:  s.Frees + t.Frees,
	}
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d allocs=%d frees=%d", s.Reads, s.Writes, s.Allocs, s.Frees)
}

// Errors returned by stores.
var (
	// ErrBadPage reports access to a page that was never allocated or has
	// been freed.
	ErrBadPage = errors.New("eio: access to unallocated page")
	// ErrPageSize reports a Read or Write whose buffer violates the length
	// contract documented on Store.
	ErrPageSize = errors.New("eio: buffer size does not match page size")
	// ErrInjected is the base error produced by FaultStore.
	ErrInjected = errors.New("eio: injected fault")
	// ErrBadRecord reports a corrupt or dangling record chain.
	ErrBadRecord = errors.New("eio: bad record chain")
	// ErrChecksum reports a page whose on-disk checksum does not match its
	// contents: the page was torn by a crash mid-write, corrupted by the
	// medium, or overwritten out of band. The data is untrustworthy and is
	// not returned.
	ErrChecksum = errors.New("eio: page checksum mismatch")
	// ErrCrashed reports an operation on a FaultStore that has crashed.
	ErrCrashed = errors.New("eio: store has crashed")
	// ErrTxOverflow reports a transaction writing more distinct pages than
	// its TxStore's WAL region can hold in one redo record.
	ErrTxOverflow = errors.New("eio: transaction exceeds WAL capacity")
	// ErrNoSpace reports a write or allocation refused because the backing
	// device is full. It does not clear by retrying the same operation
	// immediately, but the store itself is undamaged: reads
	// keep working and writes succeed again once space is reclaimed. Layers
	// above map it to flow control (the serving stack's DISKFULL status)
	// rather than treating it as corruption.
	ErrNoSpace = errors.New("eio: no space left on device")
)

// Store is a simulated block device. Pages are fixed-size; Read and Write
// transfer whole pages and each counts as one I/O. Implementations must be
// safe for concurrent use.
//
// Buffer-length contract (enforced uniformly by every implementation in
// this package and checked by the shared conformance test):
//
//   - Read requires len(buf) >= PageSize(). Exactly the first PageSize()
//     bytes are overwritten; any longer tail is left untouched. A shorter
//     buffer fails with ErrPageSize before any I/O is performed.
//   - Write requires len(buf) == PageSize() — a page write is always a
//     whole page, never a prefix or an extension. Any other length fails
//     with ErrPageSize before any I/O is performed.
//
// Buffer ownership (what lets callers and stores recycle their buffers):
// buf belongs to the caller before, during and after every call. Read
// copies the page into it and Write copies the page out of it before
// returning; no implementation keeps a reference to buf past the call, and
// none hands out its own memory (a pool frame, a transaction image, a file
// transfer slot) — so the caller may reuse buf at once, and a store may
// overwrite its internal buffers on the next operation. After a failed
// Read the contents of buf[:PageSize()] are unspecified.
type Store interface {
	// PageSize returns the size of every page in bytes.
	PageSize() int
	// Alloc reserves a new zeroed page and returns its id (never NilPage).
	Alloc() (PageID, error)
	// Free releases a page for reuse. Freeing NilPage is a no-op.
	Free(id PageID) error
	// Read copies page id into buf[:PageSize()]. buf must be at least one
	// page long (see the buffer-length contract above).
	Read(id PageID, buf []byte) error
	// Write replaces the contents of page id with buf, which must be
	// exactly one page long (see the buffer-length contract above).
	Write(id PageID, buf []byte) error
	// Stats returns the operation counters accumulated since creation or
	// the last ResetStats. Wrapper stores (Pool, FaultStore,
	// TraceStore) keep no Stats counters of their own: Stats reports the
	// wrapped store's counters, i.e. genuine backing-store I/Os after any
	// caching the wrapper performs.
	Stats() Stats
	// ResetStats zeroes the operation counters. On wrapper stores this
	// delegates to the wrapped store; Pool additionally clears its own
	// hit/miss/eviction counters (PoolStats), while FaultStore arming,
	// operation counts and pending writes and TraceStore event sequence
	// numbers are deliberately NOT reset — only accounting is.
	ResetStats()
	// Pages returns the number of currently allocated (live) pages.
	Pages() int
	// Close releases resources held by the store. The store must not be
	// used afterwards.
	Close() error
}

// PointSize is the serialized size of one point (two int64 coordinates).
const PointSize = 16

// BlockCapacity returns B, the number of points that fit in one page of the
// given size.
func BlockCapacity(pageSize int) int { return pageSize / PointSize }
