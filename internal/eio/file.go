package eio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
)

// FileStore is a Store backed by a real file. It lets every structure in
// this repository persist to and reopen from disk, exercising the exact
// code path the simulator models.
//
// The on-disk format (v2) is crash-aware:
//
//   - The file starts with two fixed 64-byte superblock slots. Every flush
//     writes one slot, alternating, with a monotonically increasing
//     sequence number and a CRC-32C. Reopening picks the valid slot with
//     the highest sequence number, so a crash that tears one superblock
//     write never loses the store: the previous superblock still commits a
//     consistent (if slightly older) state.
//   - Every page is stored with an 8-byte trailer: a CRC-32C over the page
//     id and contents (catching both bit rot and misdirected writes) plus a
//     flag word distinguishing live data pages from free-list nodes. A
//     mismatch surfaces as ErrChecksum on Read — torn or corrupted pages
//     are detected, never silently returned.
//   - Freed pages are rewritten as zeroed free-list nodes (next pointer in
//     the first 8 bytes, free flag in the trailer), chained from the
//     superblock's free-list head.
//
// Durability follows the classic write-ahead discipline at page
// granularity: page writes go to the file immediately, but the superblock
// — and therefore the committed allocation state — only advances on Sync
// or Close. After a crash, reopening recovers the state as of the last
// Sync; pages allocated later are unreferenced tail garbage and pages
// freed later simply remain allocated.
//
// Format v1 (no checksums, single superblock in page slot 0) was last
// written by the first build of this repository; opening such a file is
// rejected with an "unsupported format v1" error rather than misparsed.
type FileStore struct {
	mu       sync.Mutex
	f        *os.File
	pageSize int
	npages   uint64 // total pages ever allocated, incl. reserved page 0
	freeHead PageID
	nfree    uint64
	seq      uint64 // superblock sequence number of the last flush
	// onDisk is the allocation state each superblock slot holds (zero for a
	// slot that did not parse): Sync and Close rewrite a slot only while
	// one of the two is behind the state in memory.
	onDisk [2]allocState
	stats  Stats
	closed bool
	// slot is the one transfer buffer every page read and write goes
	// through (page + trailer). It is guarded by mu like the file offset
	// bookkeeping, so no page operation allocates.
	slot []byte
	// run is WriteRun's transfer buffer, maxRunSlots slots, made on first
	// use (only a WAL writer needs it) and kept.
	run []byte
}

// allocState is what a superblock commits besides its sequence number.
// npages is never 0 in a written slot, so the zero value matches no state.
type allocState struct {
	npages   uint64
	freeHead PageID
	nfree    uint64
}

var _ Store = (*FileStore)(nil)

const (
	fileMagicV1 = uint64(0x41525356_50414745) // "ARSVPAGE" — recognised only to be rejected
	fileMagicV2 = uint64(0x41525356_50473032) // "ARSVPG02"

	superSlotSize   = 64                // one superblock copy
	superRegionSize = 2 * superSlotSize // slots A and B
	pageTrailerSize = 8                 // 4-byte CRC-32C + 4-byte flags
	superPayload    = 52                // bytes covered incl. CRC
	pageFlagData    = uint32(0)         // trailer flag: live data page
	pageFlagFree    = uint32(1)         // trailer flag: free-list node
)

// CreateFileStore creates (truncating) a file-backed store at path.
func CreateFileStore(path string, pageSize int) (*FileStore, error) {
	if pageSize < 32 {
		return nil, fmt.Errorf("eio: page size %d too small for file store", pageSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("eio: create file store: %w", err)
	}
	fs := &FileStore{f: f, pageSize: pageSize, npages: 1, slot: make([]byte, pageSize+pageTrailerSize)}
	// Write both superblock slots so a fresh store is recoverable even if
	// the very first update tears one of them.
	if err := fs.writeSuper(); err == nil {
		err = fs.writeSuper()
	} else {
		f.Close()
		return nil, err
	}
	if err := fs.f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("eio: sync new store: %w", err)
	}
	return fs, nil
}

// OpenFileStore opens an existing file-backed store created by
// CreateFileStore. It recovers from the newest valid superblock slot, so a
// torn superblock write rolls back to the previous committed state instead
// of failing.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("eio: open file store: %w", err)
	}
	fs, err := attachFile(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return fs, nil
}

// attachFile parses the superblock region of f and builds the FileStore.
func attachFile(f *os.File, path string) (*FileStore, error) {
	var hdr [superRegionSize]byte
	n, err := f.ReadAt(hdr[:], 0)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("eio: read superblock: %w", err)
	}
	if n >= 8 && binary.LittleEndian.Uint64(hdr[0:]) == fileMagicV1 {
		return nil, fmt.Errorf("eio: %s: unsupported format v1 (no checksums; nothing has written it since the first build)", path)
	}
	if n < superRegionSize {
		return nil, fmt.Errorf("eio: %s is not a page store (too short)", path)
	}
	best := -1
	var bestSuper superState
	var onDisk [2]allocState
	for slot := 0; slot < 2; slot++ {
		st, ok := parseSuperSlot(hdr[slot*superSlotSize : (slot+1)*superSlotSize])
		if !ok {
			continue
		}
		onDisk[slot] = allocState{st.npages, st.freeHead, st.nfree}
		if best < 0 || st.seq > bestSuper.seq {
			best, bestSuper = slot, st
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("eio: %s is not a page store (no valid superblock)", path)
	}
	return &FileStore{
		f:        f,
		pageSize: bestSuper.pageSize,
		npages:   bestSuper.npages,
		freeHead: bestSuper.freeHead,
		nfree:    bestSuper.nfree,
		seq:      bestSuper.seq,
		onDisk:   onDisk,
		slot:     make([]byte, bestSuper.pageSize+pageTrailerSize),
	}, nil
}

// superState is one decoded superblock slot.
type superState struct {
	pageSize int
	npages   uint64
	freeHead PageID
	nfree    uint64
	seq      uint64
}

// parseSuperSlot decodes and validates one 64-byte superblock slot.
func parseSuperSlot(b []byte) (superState, bool) {
	if binary.LittleEndian.Uint64(b[0:]) != fileMagicV2 {
		return superState{}, false
	}
	if binary.LittleEndian.Uint32(b[48:]) != crc32c(b[:48]) {
		return superState{}, false
	}
	st := superState{
		pageSize: int(binary.LittleEndian.Uint64(b[8:])),
		npages:   binary.LittleEndian.Uint64(b[16:]),
		freeHead: PageID(binary.LittleEndian.Uint64(b[24:])),
		nfree:    binary.LittleEndian.Uint64(b[32:]),
		seq:      binary.LittleEndian.Uint64(b[40:]),
	}
	if st.pageSize < 32 || st.npages == 0 {
		return superState{}, false
	}
	return st, true
}

// writeSuper flushes the current allocation state: it bumps the sequence
// number and writes the alternate slot, leaving the previous superblock
// intact as a fallback.
func (fs *FileStore) writeSuper() error {
	fs.seq++
	var buf [superSlotSize]byte
	binary.LittleEndian.PutUint64(buf[0:], fileMagicV2)
	binary.LittleEndian.PutUint64(buf[8:], uint64(fs.pageSize))
	binary.LittleEndian.PutUint64(buf[16:], fs.npages)
	binary.LittleEndian.PutUint64(buf[24:], uint64(fs.freeHead))
	binary.LittleEndian.PutUint64(buf[32:], fs.nfree)
	binary.LittleEndian.PutUint64(buf[40:], fs.seq)
	binary.LittleEndian.PutUint32(buf[48:], crc32c(buf[:48]))
	slot := fs.seq % 2
	fs.onDisk[slot] = allocState{} // unknown until the write returns
	if _, err := fs.f.WriteAt(buf[:], int64(slot)*superSlotSize); err != nil {
		return fmt.Errorf("eio: write superblock: %w", noSpace(err))
	}
	fs.onDisk[slot] = fs.allocState()
	return nil
}

// allocState returns the allocation state in memory. Callers hold mu.
func (fs *FileStore) allocState() allocState {
	return allocState{fs.npages, fs.freeHead, fs.nfree}
}

// commitSuper writes the superblock unless BOTH slots already hold the
// current allocation state — most barriers follow an operation that
// allocated and freed nothing, and the slot is a second dirty block, far
// from the data, in every one of them. Both, not just the newer: a slot can
// be torn by a crash after the write that filled it returned, and reopening
// must then find the same state in the other.
func (fs *FileStore) commitSuper() error {
	cur := fs.allocState()
	if fs.onDisk[0] == cur && fs.onDisk[1] == cur {
		return nil
	}
	return fs.writeSuper()
}

// slotSize is the on-disk footprint of one page.
func (fs *FileStore) slotSize() int { return fs.pageSize + pageTrailerSize }

func (fs *FileStore) off(id PageID) int64 {
	return superRegionSize + int64(id-1)*int64(fs.slotSize())
}

// writePage writes data (one page) with a fresh trailer. Callers hold mu.
func (fs *FileStore) writePage(id PageID, data []byte, flags uint32) error {
	copy(fs.slot, data)
	return fs.writeSlot(id, flags)
}

// writeZeroPage writes an all-zero page whose first 8 bytes hold next (the
// free-list link of a free node; 0 for a fresh data page). Callers hold mu.
func (fs *FileStore) writeZeroPage(id PageID, next PageID, flags uint32) error {
	clear(fs.slot[:fs.pageSize])
	binary.LittleEndian.PutUint64(fs.slot, uint64(next))
	return fs.writeSlot(id, flags)
}

// writeSlot seals the page image in fs.slot with its trailer and writes it
// as page id. Callers hold mu.
func (fs *FileStore) writeSlot(id PageID, flags uint32) error {
	sealSlot(fs.slot, id, flags)
	if _, err := fs.f.WriteAt(fs.slot, fs.off(id)); err != nil {
		return fmt.Errorf("eio: write page %d: %w", id, noSpace(err))
	}
	return nil
}

// noSpace marks a write the file system refused for want of space with
// ErrNoSpace as well as the OS error: a full disk rejects the write, it
// does not damage the store, and the layers above answer it with flow
// control instead of treating it as corruption.
func noSpace(err error) error {
	if errors.Is(err, syscall.ENOSPC) {
		return fmt.Errorf("%w: %w", ErrNoSpace, err)
	}
	return err
}

// sealSlot stamps the trailer of a slot (page image + trailer space) that
// is about to be written as page id.
func sealSlot(slot []byte, id PageID, flags uint32) {
	ps := len(slot) - pageTrailerSize
	binary.LittleEndian.PutUint32(slot[ps:], pageCRC(id, slot[:ps]))
	binary.LittleEndian.PutUint32(slot[ps+4:], flags)
}

// readSlot reads page id into fs.slot[:pageSize], verifying the trailer,
// and returns the trailer flags. The image is valid until the next page
// operation. Callers hold mu.
func (fs *FileStore) readSlot(id PageID) (uint32, error) {
	if _, err := fs.f.ReadAt(fs.slot, fs.off(id)); err != nil {
		return 0, fmt.Errorf("eio: read page %d: %w", id, err)
	}
	if binary.LittleEndian.Uint32(fs.slot[fs.pageSize:]) != pageCRC(id, fs.slot[:fs.pageSize]) {
		return 0, fmt.Errorf("eio: page %d: %w", id, ErrChecksum)
	}
	return binary.LittleEndian.Uint32(fs.slot[fs.pageSize+4:]), nil
}

// PageSize implements Store.
func (fs *FileStore) PageSize() int { return fs.pageSize }

// Alloc implements Store.
func (fs *FileStore) Alloc() (PageID, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return NilPage, fmt.Errorf("eio: alloc on closed store")
	}
	fs.stats.Allocs++
	if fs.freeHead != NilPage {
		id := fs.freeHead
		flags, err := fs.readSlot(id)
		if err != nil {
			return NilPage, fmt.Errorf("eio: pop free list: %w", err)
		}
		if flags == pageFlagFree {
			// The next pointer lives in the first 8 bytes.
			fs.freeHead = PageID(binary.LittleEndian.Uint64(fs.slot[:8]))
			fs.nfree--
			if err := fs.writeZeroPage(id, NilPage, pageFlagData); err != nil {
				return NilPage, fmt.Errorf("eio: zero reused page: %w", err)
			}
			return id, nil
		}
		// A head that holds a data page: a crash kept a write to the page
		// but lost the superblock that popped it — possibly a committed
		// image WAL replay put back, so it must not be handed out, and its
		// first bytes are no free-list link. The list ends here, which
		// conservatively leaks the remainder (VerifyFile reports it as
		// drift); allocation continues by extending the file.
		fs.freeHead, fs.nfree = NilPage, 0
	}
	id := PageID(fs.npages)
	fs.npages++
	if err := fs.writeZeroPage(id, NilPage, pageFlagData); err != nil {
		return NilPage, fmt.Errorf("eio: extend file: %w", err)
	}
	return id, nil
}

// Free implements Store. The page is rewritten as a zeroed free-list node with a valid checksum, so a later verification scan can
// tell freed pages from damaged ones.
func (fs *FileStore) Free(id PageID) error {
	if id == NilPage {
		return nil
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.check(id); err != nil {
		return err
	}
	fs.stats.Frees++
	if err := fs.writeZeroPage(id, fs.freeHead, pageFlagFree); err != nil {
		return fmt.Errorf("eio: push free list: %w", err)
	}
	fs.freeHead = id
	fs.nfree++
	return nil
}

// Read implements Store. A trailer mismatch fails with ErrChecksum and reading a freed page fails with ErrBadPage.
func (fs *FileStore) Read(id PageID, buf []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.check(id); err != nil {
		return err
	}
	if len(buf) < fs.pageSize {
		return fmt.Errorf("eio: read buffer %d bytes: %w", len(buf), ErrPageSize)
	}
	fs.stats.Reads++
	flags, err := fs.readSlot(id)
	if err != nil {
		return err
	}
	if flags == pageFlagFree {
		return fmt.Errorf("eio: page %d is freed: %w", id, ErrBadPage)
	}
	copy(buf[:fs.pageSize], fs.slot)
	return nil
}

// Write implements Store.
func (fs *FileStore) Write(id PageID, buf []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.check(id); err != nil {
		return err
	}
	if len(buf) != fs.pageSize {
		return fmt.Errorf("eio: write buffer %d bytes: %w", len(buf), ErrPageSize)
	}
	fs.stats.Writes++
	return fs.writePage(id, buf, pageFlagData)
}

// maxRunSlots bounds WriteRun's transfer buffer: a longer run goes out in
// several system calls.
const maxRunSlots = 16

// WriteRun writes data over the consecutive pages first, first+1, … with
// one system call per maxRunSlots pages instead of one per page — the shape
// of a WAL append. data need not end on a page boundary: the last page is
// zero-padded. Each page gets its own trailer and counts as one write I/O,
// exactly as if it had gone through Write.
func (fs *FileStore) WriteRun(first PageID, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := (len(data) + fs.pageSize - 1) / fs.pageSize
	if n == 0 {
		return nil
	}
	if err := fs.check(first); err != nil {
		return err
	}
	if err := fs.check(first + PageID(n-1)); err != nil {
		return err
	}
	ss := fs.slotSize()
	if fs.run == nil {
		fs.run = make([]byte, maxRunSlots*ss)
	}
	for ; n > 0; n -= maxRunSlots {
		k := min(n, maxRunSlots)
		for i := 0; i < k; i++ {
			slot := fs.run[i*ss : (i+1)*ss]
			clear(slot[copy(slot[:fs.pageSize], data):fs.pageSize])
			data = data[min(len(data), fs.pageSize):]
			sealSlot(slot, first+PageID(i), pageFlagData)
		}
		fs.stats.Writes += uint64(k)
		if _, err := fs.f.WriteAt(fs.run[:k*ss], fs.off(first)); err != nil {
			return fmt.Errorf("eio: write pages %d..%d: %w", first, first+PageID(k-1), noSpace(err))
		}
		first += PageID(k)
	}
	return nil
}

// writeRaw overwrites the first len(prefix) bytes of page id's on-disk slot
// without touching the rest or updating the checksum trailer — exactly the
// shape a torn write leaves behind. It is the simulation hook FaultStore's
// torn crash models use.
func (fs *FileStore) writeRaw(id PageID, prefix []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.check(id); err != nil {
		return err
	}
	if len(prefix) > fs.slotSize() {
		prefix = prefix[:fs.slotSize()]
	}
	if _, err := fs.f.WriteAt(prefix, fs.off(id)); err != nil {
		return fmt.Errorf("eio: raw write page %d: %w", id, err)
	}
	return nil
}

// Stats implements Store.
func (fs *FileStore) Stats() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.stats
}

// ResetStats implements Store.
func (fs *FileStore) ResetStats() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.stats = Stats{}
}

// Pages implements Store.
func (fs *FileStore) Pages() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return int(fs.npages - 1 - fs.nfree)
}

// LivePageIDs implements PageLister by scanning every page slot and
// reading its trailer flags, in ascending id order. Free-list nodes are
// skipped; a checksum-bad page is reported as live — it occupies a slot,
// cannot be trusted to be free, and after crash recovery the only pages
// still torn are allocations stranded by the crash, which is exactly what
// Scrub exists to reclaim. Each slot inspected costs one read I/O, as an
// offline sweep over n pages should.
func (fs *FileStore) LivePageIDs() ([]PageID, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil, fmt.Errorf("eio: access to closed store")
	}
	var ids []PageID
	for id := PageID(1); uint64(id) < fs.npages; id++ {
		fs.stats.Reads++
		flags, err := fs.readSlot(id)
		if err != nil {
			ids = append(ids, id) // torn page: conservatively live
			continue
		}
		if flags == pageFlagFree {
			continue
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// EnsurePage materializes page id so a subsequent Write(id) succeeds,
// extending the file with zeroed data pages as needed. It exists for
// replication: a replica must place page images at the exact ids the
// primary chose, not at ids its own allocator would hand out. Gap pages
// created by the extension (ids the primary allocated and freed before
// this replica ever saw them) are left as zeroed DATA pages — they leak
// rather than joining the free list, because a freed page that later
// arrives in a shipped record would have to be unlinked from the middle
// of the free chain. Scrub reclaims them if the replica is ever promoted.
// Calling EnsurePage on a freed page is an error for the same reason.
func (fs *FileStore) EnsurePage(id PageID) error {
	if id == NilPage {
		return fmt.Errorf("eio: ensure page: %w", ErrBadPage)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return fmt.Errorf("eio: access to closed store")
	}
	if uint64(id) < fs.npages {
		flags, err := fs.readSlot(id)
		if err != nil {
			return nil // torn page: a follow-up Write rewrites it whole
		}
		if flags == pageFlagFree {
			return fmt.Errorf("eio: ensure page %d: page is on the free list: %w", id, ErrBadPage)
		}
		return nil
	}
	for next := PageID(fs.npages); next <= id; next++ {
		if err := fs.writeZeroPage(next, NilPage, pageFlagData); err != nil {
			return fmt.Errorf("eio: ensure page %d: %w", next, err)
		}
		fs.npages++
	}
	return nil
}

// Sync flushes the superblock (if it is behind, see commitSuper) and file
// contents to stable storage, committing all allocation state written so
// far.
func (fs *FileStore) Sync() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.commitSuper(); err != nil {
		return err
	}
	if err := fs.f.Sync(); err != nil {
		return fmt.Errorf("eio: sync: %w", err)
	}
	return nil
}

// Close implements Store. It persists the superblock before closing.
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil
	}
	fs.closed = true
	if err := fs.commitSuper(); err != nil {
		fs.f.Close()
		return err
	}
	if err := fs.f.Close(); err != nil {
		return fmt.Errorf("eio: close: %w", err)
	}
	return nil
}

// CloseCrash closes the underlying file WITHOUT persisting the superblock
// or syncing, leaving the on-disk image exactly as an abrupt process death
// would. It exists for crash simulation (FaultStore) and recovery tests;
// normal shutdown must use Close.
func (fs *FileStore) CloseCrash() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil
	}
	fs.closed = true
	if err := fs.f.Close(); err != nil {
		return fmt.Errorf("eio: crash close: %w", err)
	}
	return nil
}

func (fs *FileStore) check(id PageID) error {
	if fs.closed {
		return fmt.Errorf("eio: access to closed store")
	}
	if id == NilPage || uint64(id) >= fs.npages {
		return fmt.Errorf("eio: page %d: %w", id, ErrBadPage)
	}
	return nil
}
