package eio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"
)

// This file implements TxStore, the transactional layer that gives every
// structure in the repository atomic multi-page updates with crash
// recovery.
//
// On-store layout (all pages live on the wrapped inner store):
//
//	directory record (RecordStore chain, immutable after creation)
//	    magic "TXDR" | version | anchor A id | anchor B id | WAL page ids
//	anchor pages A and B (one page each, written alternately)
//	    magic "TXAN" | seq | applied LSN | CRC-32C
//	WAL region (fixed set of preallocated pages): an append-only ring of
//	redo records, each starting on a page boundary, the first at page 0:
//	    magic "WALR" | page count m | LSN | m × (page id | page image) | CRC-32C
//
// Commit protocol — one durability barrier per acknowledged commit, and it
// forces the log, not the pages:
//
//	1. append the redo record at the ring's tail (checkpoint first if it
//	   does not fit) — one contiguous write when the inner store has a run
//	   write and the ring's page ids are consecutive
//	2. Sync — the commit point. After it the transaction is durable, and
//	   because the inner store's Sync also commits its allocation state,
//	   so are the pages the transaction allocated
//	3. run the commit hook (log shipping)
//	4. hand the images to the page cache, which marks their frames dirty,
//	   and return: nothing is written in place on the way to the ack
//
// Checkpoint — lazy: when the next record does not fit, on Sync and Close:
//
//	a0. flush the cache — every dirty frame is written in place, in
//	    ascending page id
//	a. Sync — every image committed since the last checkpoint is durable
//	   in place
//	b. write the alternate anchor with applied = N, the last committed LSN
//	c. Sync — the anchor is durable
//	d. release the held frees; the ring's tail returns to page 0
//
// The page cache is a fixed-capacity write-back Pool over the inner store
// (no-force/steal, as in every textbook buffer manager). It holds data
// pages only: committed images enter it at step 4, reads fill it, and the
// open transaction's images stay in the record buffer until they commit. So
// a dirty frame is always an image whose record has passed its commit point
// and is still in the ring, and evicting one (steal) — on a read miss, or at
// step 4 of a later commit — is an ordinary unsynced in-place write of a
// committed image: exactly what step 4 did for every image before the cache
// existed. Recovery, the ring, the held frees and the on-disk format are
// those of a store without a cache; a crash merely loses every frame, and
// the ring redoes them. WAL pages, anchors and barriers never go through
// the cache. A hot page (a tree's header, root and root catalog are in
// nearly every record) is written in place once per checkpoint instead of
// once per commit, and a commit-point barrier no longer has the previous
// commit's in-place writes to flush next to its own record.
//
// There is no cache under a TxReplica (its images
// go to the SnapStore its readers are pinned on), nor during recovery:
// replay writes straight to the inner store, before the cache is made,
// because writeImage's EnsurePage fallback needs the immediate ErrBadPage a
// write-back pool would defer to some later eviction.
//
// Why each barrier is there. (2) is the commit. (a0, a) must precede (b): an
// anchor page embeds a checksum of its own payload, and
// crc32(m ‖ crc32(m)) is a length-dependent CONSTANT, so the outer
// page-trailer CRC is identical for every self-consistent anchor payload —
// a torn write that replaces the anchor payload still passes the page
// checksum, and the new anchor could survive a crash that dropped the
// applies it vouches for. Ordering, not checksums, guarantees that an
// anchor claiming LSN N is only ever durable after N's data is. (c) must
// precede the first record of the next lap: were record N+1 to overwrite
// the ring while the durable anchor still said N-k, recovery would find no
// record continuing N-k and come back at an LSN below commits it had
// acknowledged (the data would be whole, the log position wrong).
//
// Recovery (OpenTxStore) picks the valid anchor with the highest seq and
// replays, in ring order, every CRC-valid record whose LSN continues
// applied+1, +2, …, stopping at the first that does not: records left from
// an earlier lap all carry LSN ≤ applied, and a record torn by the crash
// fails its CRC — it never reached its commit point and vanishes. Replay is
// at most one WAL region of redo, ends with a checkpoint, and recovers an
// LSN ≥ every acknowledged commit (each is either under the anchor or a
// durable link of the chain), so LSNs never regress across a crash.
// Recovery then repairs the file for a clean VerifyFile: checksum-bad WAL
// pages are zeroed, invalid anchor slots rewritten from the surviving one.
//
// Because several records may be replayed over in-place state that ran
// ahead of the anchor, a page must not change owner while a record that
// writes it is still in the ring. So frees are never logged and EVERY free
// — inside a transaction or not — is held until the checkpoint that
// retires those records; the inner allocator cannot hand the page out
// before then. A crash therefore leaks at most the frees held since the
// last checkpoint (one ring lap of commits) plus the in-flight
// transaction's allocations — the class VerifyFile reports as drift, not
// damage, and that Scrub reclaims. Replay also tolerates an allocation
// state staler than the record it replays (the record and the superblock
// become durable in the same barrier, and a crash inside it may keep one
// without the other): ids past the end of the store are materialized
// (PageEnsurer), and FileStore takes a page replay writes off its free
// list (or, reopened after a crash, ends the list at one) instead of
// handing it out.

// WAL and anchor format constants.
const (
	walMagic    = "WALR" // redo-record magic
	anchorMagic = "TXAN" // anchor-page magic
	dirMagic    = "TXDR" // directory-record magic

	txVersion = 1

	walHdrSize    = 4 + 4 + 8 // magic + count + LSN
	walCRCSize    = 4
	anchorSize    = 4 + 8 + 8 + 4 // magic + seq + applied + CRC
	dirHdrSize    = 4 + 2 + 2 + 8 + 8 + 4
	minTxPageSize = 32

	// DefaultWALPages is the WAL capacity used when TxOptions.WALPages is
	// zero. With page size B it admits roughly DefaultWALPages·B/(B+8)
	// distinct page images per transaction.
	DefaultWALPages = 64

	// keptRecordImages bounds the record buffer a TxStore keeps from one
	// transaction to the next: a commit that grew it past this many images
	// (a bulk load, a write-buffer flush) drops it instead, so one large
	// transaction does not pin its footprint for the life of the store.
	keptRecordImages = 32

	// txCacheFrames is the capacity of the page cache (see the protocol
	// note): 384 KiB of 4 KiB pages, enough for the upper levels of a tree
	// plus the leaf paths of recent updates. Chosen by measurement
	// (EXPERIMENTS.md "PR 18"); not an option, like keptRecordImages.
	txCacheFrames = 96
)

// TxOptions configures NewTxStore.
type TxOptions struct {
	// WALPages is the number of pages preallocated for the redo log; it
	// bounds how many distinct pages one transaction may write, and how
	// many commits share one checkpoint. Zero selects DefaultWALPages.
	WALPages int
}

// RecoveryInfo describes what OpenTxStore had to do to the file.
type RecoveryInfo struct {
	// Replayed reports whether committed-but-unapplied records were redone.
	Replayed bool
	// Records counts the records redone, in LSN order.
	Records int
	// LSN is the log sequence number of the last redone record (0 if none).
	LSN uint64
	// PagesRedone counts page images written back during replay.
	PagesRedone int
	// WALRepaired counts checksum-bad WAL pages rewritten with zeros.
	WALRepaired int
	// AnchorsRepaired counts invalid anchor slots rewritten.
	AnchorsRepaired int
}

// Dirty reports whether recovery changed the store at all.
func (r RecoveryInfo) Dirty() bool {
	return r.Replayed || r.WALRepaired > 0 || r.AnchorsRepaired > 0
}

// String implements fmt.Stringer.
func (r RecoveryInfo) String() string {
	if !r.Dirty() {
		return "clean (nothing to recover)"
	}
	return fmt.Sprintf("replayed=%v records=%d lsn=%d pages_redone=%d wal_repaired=%d anchors_repaired=%d",
		r.Replayed, r.Records, r.LSN, r.PagesRedone, r.WALRepaired, r.AnchorsRepaired)
}

// TxStore wraps any Store with write-ahead-logged transactions. Outside a
// transaction writes and allocations pass straight through and reads are
// served from the page cache (see the protocol note). Inside one
// (Begin … Commit), Writes are buffered in memory and Allocs pass
// through (ids must come from the inner store); Commit makes the whole
// batch atomic: after a crash at ANY backing-store operation, reopen with
// OpenTxStore and the store holds exactly the pre-transaction or the
// post-transaction image — never a mix — on top of every transaction
// whose Commit returned. Frees, in a transaction or not, reach the inner
// store at the next checkpoint (see the protocol note above); until then
// the page reads as freed and is not counted by Pages.
//
// A TxStore is a wrapper in the sense documented on Store: it keeps no
// Stats of its own, so transaction writes are counted only when they reach
// the inner store (the WAL append, and the cache's write-back of the
// image), and reads only when the cache misses.
//
// TxStore serializes transactions internally but, like every wrapper, does
// not add multi-writer semantics: one logical updater at a time.
type TxStore struct {
	mu    sync.RWMutex // reads share the lock so snapshot readers scale
	inner Store        // durability root: WAL region, anchors, barriers
	// cache is the write-back page cache over inner, nil when there is
	// none (see the protocol note). data is where data pages are read and
	// freed and apply where the images of committed records go: both the
	// cache, or inner without one — except under a TxReplica, which routes
	// the images through its SnapStore so pinned readers keep their epoch.
	// ensure, when inner supports it, materializes page ids its allocator
	// has not handed out (see PageEnsurer); run writes consecutive pages
	// in one call and is set only when the WAL region is one such run.
	cache  *Pool
	data   Store
	apply  Store
	ensure PageEnsurer
	run    runWriter
	ps     int

	dir      PageID // directory record id; pass to OpenTxStore
	anchors  [2]PageID
	walIDs   []PageID
	slot     int    // anchor slot holding the current checkpoint
	seq      uint64 // seq of the current anchor
	applied  uint64 // LSN of the last committed record
	tail     int    // WAL pages holding records the anchor does not cover
	recovery RecoveryInfo

	inTx      bool
	committed bool // this tx passed its commit point
	// failed, once set, is returned by every later operation: a commit
	// failed at or past its commit point (see failLocked).
	failed error
	// rec is the open transaction's redo record, built in place: header
	// space, then one (id | image) slot per distinct page written, in
	// first-write order. Commit seals it and writes WAL pages and in-place
	// pages straight from it. slots maps a page id to its slot number.
	rec    []byte
	slots  map[PageID]int
	allocs []PageID
	// dead holds every page freed but not yet released to the inner store:
	// txFrees (the open transaction's, dropped again by Rollback) and held
	// (committed, waiting for the next checkpoint), both in free order.
	dead    map[PageID]struct{}
	txFrees []PageID
	held    []PageID
	pad     []byte // one page: a record's zero-padded last WAL page, an anchor

	hook func(lsn uint64, record []byte) // the log-shipping tap; see SetCommitHook

	tm TxTimings // cumulative commit-phase counters, guarded by mu
}

// TxTimings is a cumulative breakdown of Commit's expensive phases.
// Counters only ever grow; subtract two snapshots to attribute one
// commit's cost. A commit pays one barrier (Sync) and, when its record did
// not fit the ring, the checkpoint it ran first — so over any interval the
// barriers issued are Commits + 2·Checkpoints.
type TxTimings struct {
	// WALAppend is time spent writing redo-record pages.
	WALAppend time.Duration
	// Sync is time spent in commit-point barriers, one per commit.
	Sync time.Duration
	// Checkpoint is time spent in checkpoints (the cache flush, two
	// barriers, the anchor write and the release of held frees).
	Checkpoint time.Duration
	// Commits counts commit points passed; Checkpoints counts checkpoints
	// run, whoever triggered them (a full ring, Sync, Close, recovery).
	Commits, Checkpoints uint64
}

// Sub returns the per-interval delta a − b.
func (a TxTimings) Sub(b TxTimings) TxTimings {
	return TxTimings{
		WALAppend:   a.WALAppend - b.WALAppend,
		Sync:        a.Sync - b.Sync,
		Checkpoint:  a.Checkpoint - b.Checkpoint,
		Commits:     a.Commits - b.Commits,
		Checkpoints: a.Checkpoints - b.Checkpoints,
	}
}

// Timings returns the cumulative commit-phase counters. A reader that
// snapshots before and after a commit it serialized with (a group-commit
// leader around one Batch) sees exactly that commit's cost.
func (t *TxStore) Timings() TxTimings {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.tm
}

var _ Store = (*TxStore)(nil)

// maxTxImages returns how many distinct page images one record can hold.
func maxTxImages(pageSize, walPages int) int {
	return (walPages*pageSize - walHdrSize - walCRCSize) / (8 + pageSize)
}

// runWriter is implemented by stores that can write consecutive pages in
// one call (FileStore.WriteRun).
type runWriter interface {
	WriteRun(first PageID, data []byte) error
}

func newTxStore(inner Store) *TxStore {
	t := &TxStore{inner: inner, data: inner, apply: inner, ps: inner.PageSize()}
	t.ensure, _ = inner.(PageEnsurer)
	t.slots = map[PageID]int{}
	t.dead = map[PageID]struct{}{}
	t.pad = make([]byte, t.ps)
	return t
}

// start finishes construction once the layout is known and recovery, if
// any, is done: it makes the page cache (frames > 0) and picks the run
// write when the WAL region allows it.
func (t *TxStore) start(frames int) {
	if frames > 0 {
		t.cache = NewPool(t.inner, frames)
		t.data, t.apply = t.cache, t.cache
	}
	for i, id := range t.walIDs {
		if id != t.walIDs[0]+PageID(i) {
			return
		}
	}
	t.run, _ = t.inner.(runWriter)
}

// NewTxStore initializes a transactional layer on inner, allocating its
// directory, anchor and WAL pages, and returns the handle. Persist
// Anchor() alongside your structure headers: it is the id OpenTxStore
// needs to reopen and recover the store.
func NewTxStore(inner Store, opts TxOptions) (*TxStore, error) {
	return newTxStoreFrames(inner, opts, txCacheFrames)
}

// newTxStoreFrames is NewTxStore with the cache capacity as a parameter
// (0 = no cache), for tests that need steal evictions in small workloads.
func newTxStoreFrames(inner Store, opts TxOptions, frames int) (*TxStore, error) {
	t := newTxStore(inner)
	if t.ps < minTxPageSize {
		return nil, fmt.Errorf("eio: tx: page size %d below minimum %d", t.ps, minTxPageSize)
	}
	walPages := opts.WALPages
	if walPages <= 0 {
		walPages = DefaultWALPages
	}
	if maxTxImages(t.ps, walPages) < 1 {
		return nil, fmt.Errorf("eio: tx: %d WAL pages of %d bytes cannot hold one page image", walPages, t.ps)
	}
	var err error
	for i := range t.anchors {
		if t.anchors[i], err = inner.Alloc(); err != nil {
			return nil, fmt.Errorf("eio: tx: alloc anchor: %w", err)
		}
	}
	t.walIDs = make([]PageID, walPages)
	for i := range t.walIDs {
		if t.walIDs[i], err = inner.Alloc(); err != nil {
			return nil, fmt.Errorf("eio: tx: alloc WAL page: %w", err)
		}
	}
	// Both anchor slots start valid; B wins with the higher seq.
	if err := t.writeAnchor(0, 1, 0); err != nil {
		return nil, err
	}
	if err := t.writeAnchor(1, 2, 0); err != nil {
		return nil, err
	}
	t.slot, t.seq, t.applied = 1, 2, 0
	rs := NewRecordStore(inner)
	if t.dir, err = rs.Put(t.encodeDir()); err != nil {
		return nil, fmt.Errorf("eio: tx: write directory: %w", err)
	}
	if err := t.syncInner(); err != nil {
		return nil, err
	}
	t.start(frames)
	return t, nil
}

// OpenTxStore attaches to a transactional layer created by NewTxStore
// (dir is the id NewTxStore returned from Anchor) and runs crash
// recovery: committed-but-unapplied records are replayed in order, a torn
// (uncommitted) record is discarded, and damaged WAL/anchor pages are
// repaired so VerifyFile reports the file clean. Recovery() tells what
// happened.
func OpenTxStore(inner Store, dir PageID) (*TxStore, error) {
	return OpenTxStoreFrames(inner, dir, txCacheFrames)
}

// OpenTxStoreFrames is OpenTxStore with the page cache's capacity given
// instead of the built-in one (0 = no cache). It exists for the crash
// harnesses (eiotest.Sweep, the history sweep), which shrink the
// cache so that flushes and steal evictions happen inside their small
// scripted workloads, and for OpenTxReplica, which runs without one; a
// serving stack has no reason to call it.
func OpenTxStoreFrames(inner Store, dir PageID, frames int) (*TxStore, error) {
	t := newTxStore(inner)
	if err := t.loadDir(dir); err != nil {
		return nil, fmt.Errorf("eio: tx: %w", err)
	}
	if err := t.recover(); err != nil {
		return nil, err
	}
	t.start(frames)
	return t, nil
}

// Cache returns the page cache, for its counters (PoolStats, Dirty, …), or
// nil when the store runs without one.
func (t *TxStore) Cache() *Pool { return t.cache }

// Anchor returns the directory record id to pass to OpenTxStore.
func (t *TxStore) Anchor() PageID { return t.dir }

// AppliedLSN returns the log sequence number of the last committed
// transaction — the position a log-shipping stream is at. It is 0 for a
// fresh store, increases by exactly one per non-empty commit,
// and never regresses across a crash and reopen.
func (t *TxStore) AppliedLSN() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.applied
}

// SetCommitHook installs (or, with nil, removes) the commit tap: fn runs
// inside every Commit right after the commit point with the durable
// record's LSN and encoded bytes — a view of the transaction buffer, valid
// only for the call. fn runs under the store lock: it must copy the bytes
// if it retains them, must not block, and must not call back into the
// store. One hook at a time; installing replaces the previous one.
func (t *TxStore) SetCommitHook(fn func(lsn uint64, record []byte)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hook = fn
}

// Recovery reports what OpenTxStore did; zero for a freshly created store.
func (t *TxStore) Recovery() RecoveryInfo { return t.recovery }

// MetaPages returns every page owned by the transactional layer itself —
// directory chain, anchors and WAL region. Reachability walkers (Scrub)
// must treat these as live roots.
func (t *TxStore) MetaPages() ([]PageID, error) {
	rs := NewRecordStore(t.inner)
	ids, err := rs.Chain(t.dir)
	if err != nil {
		return nil, err
	}
	ids = append(ids, t.anchors[0], t.anchors[1])
	return append(ids, t.walIDs...), nil
}

// --- encoding ----------------------------------------------------------

func (t *TxStore) encodeDir() []byte {
	buf := make([]byte, dirHdrSize+8*len(t.walIDs))
	copy(buf, dirMagic)
	binary.LittleEndian.PutUint16(buf[4:], txVersion)
	binary.LittleEndian.PutUint64(buf[8:], uint64(t.anchors[0]))
	binary.LittleEndian.PutUint64(buf[16:], uint64(t.anchors[1]))
	binary.LittleEndian.PutUint32(buf[24:], uint32(len(t.walIDs)))
	for i, id := range t.walIDs {
		binary.LittleEndian.PutUint64(buf[dirHdrSize+8*i:], uint64(id))
	}
	return buf
}

// loadDir reads and decodes the directory record at dir.
func (t *TxStore) loadDir(dir PageID) error {
	t.dir = dir
	buf, err := NewRecordStore(t.inner).Get(dir, nil)
	if err != nil {
		return fmt.Errorf("read directory %d: %w", dir, err)
	}
	if len(buf) < dirHdrSize || string(buf[:4]) != dirMagic {
		return fmt.Errorf("bad directory record: %w", ErrBadRecord)
	}
	if v := binary.LittleEndian.Uint16(buf[4:]); v != txVersion {
		return fmt.Errorf("directory version %d unsupported", v)
	}
	t.anchors[0] = PageID(binary.LittleEndian.Uint64(buf[8:]))
	t.anchors[1] = PageID(binary.LittleEndian.Uint64(buf[16:]))
	n := int(binary.LittleEndian.Uint32(buf[24:]))
	if n < 1 || len(buf) < dirHdrSize+8*n {
		return fmt.Errorf("directory truncated: %w", ErrBadRecord)
	}
	t.walIDs = make([]PageID, n)
	for i := range t.walIDs {
		t.walIDs[i] = PageID(binary.LittleEndian.Uint64(buf[dirHdrSize+8*i:]))
	}
	return nil
}

// encodeAnchor serializes one anchor payload (page-size padded by caller).
func encodeAnchor(seq, applied uint64) []byte {
	buf := make([]byte, anchorSize)
	copy(buf, anchorMagic)
	binary.LittleEndian.PutUint64(buf[4:], seq)
	binary.LittleEndian.PutUint64(buf[12:], applied)
	binary.LittleEndian.PutUint32(buf[20:], crc32c(buf[:20]))
	return buf
}

// decodeAnchor parses an anchor payload. It never panics on hostile input.
func decodeAnchor(buf []byte) (seq, applied uint64, err error) {
	if len(buf) < anchorSize || string(buf[:4]) != anchorMagic {
		return 0, 0, fmt.Errorf("eio: tx: bad anchor magic: %w", ErrBadRecord)
	}
	if crc32c(buf[:20]) != binary.LittleEndian.Uint32(buf[20:]) {
		return 0, 0, fmt.Errorf("eio: tx: anchor: %w", ErrChecksum)
	}
	return binary.LittleEndian.Uint64(buf[4:]), binary.LittleEndian.Uint64(buf[12:]), nil
}

func (t *TxStore) writeAnchor(slot int, seq, applied uint64) error {
	clear(t.pad)
	copy(t.pad, encodeAnchor(seq, applied))
	if err := t.inner.Write(t.anchors[slot], t.pad); err != nil {
		return fmt.Errorf("eio: tx: write anchor %d: %w", slot, err)
	}
	return nil
}

// readAnchors decodes both anchor slots and returns the index of the valid
// one with the highest seq (-1 if neither decodes).
func (t *TxStore) readAnchors() (seqs, lsns [2]uint64, valid [2]bool, best int) {
	best = -1
	buf := make([]byte, t.ps)
	for i := range t.anchors {
		if err := t.inner.Read(t.anchors[i], buf); err != nil {
			continue // torn anchor: slot invalid
		}
		s, a, err := decodeAnchor(buf)
		if err != nil {
			continue
		}
		seqs[i], lsns[i], valid[i] = s, a, true
		if best < 0 || s > seqs[best] {
			best = i
		}
	}
	return
}

// readWAL returns the bytes of the whole WAL region. Checksum-bad pages
// contribute zeros (a record spanning one then fails its CRC — the
// torn-tail discard) and are listed in torn.
func (t *TxStore) readWAL() (wal []byte, torn []PageID) {
	wal = make([]byte, len(t.walIDs)*t.ps)
	for i, id := range t.walIDs {
		if err := t.inner.Read(id, wal[i*t.ps:(i+1)*t.ps]); err != nil {
			clear(wal[i*t.ps : (i+1)*t.ps])
			torn = append(torn, id)
		}
	}
	return wal, torn
}

// walRecordSize is the encoded length of a record carrying m page images;
// walRecordPages the WAL pages it occupies (records start page-aligned).
func walRecordSize(m, pageSize int) int { return walHdrSize + m*(8+pageSize) + walCRCSize }
func walRecordPages(m, pageSize int) int {
	return (walRecordSize(m, pageSize) + pageSize - 1) / pageSize
}

// sealWALRecord completes a record whose m image slots are already in
// place after the header space of rec: it stamps the header, appends the
// CRC and returns the encoded record (sharing rec's memory when it fits).
func sealWALRecord(rec []byte, lsn uint64, m, pageSize int) []byte {
	rec = rec[:walRecordSize(m, pageSize)-walCRCSize]
	copy(rec, walMagic)
	binary.LittleEndian.PutUint32(rec[4:], uint32(m))
	binary.LittleEndian.PutUint64(rec[8:], lsn)
	return binary.LittleEndian.AppendUint32(rec, crc32c(rec))
}

// checkWALRecord validates the redo record at the head of buf and returns
// its LSN and image count. Torn, bit-flipped or truncated input returns an
// error (wrapping ErrBadRecord or ErrChecksum), never a panic and never a
// partially trusted record: the CRC covers everything.
func checkWALRecord(buf []byte, pageSize int) (lsn uint64, m int, err error) {
	if pageSize <= 0 {
		return 0, 0, fmt.Errorf("eio: tx: bad page size %d", pageSize)
	}
	if len(buf) < walHdrSize+walCRCSize || string(buf[:4]) != walMagic {
		return 0, 0, fmt.Errorf("eio: tx: no WAL record: %w", ErrBadRecord)
	}
	m = int(binary.LittleEndian.Uint32(buf[4:]))
	if m < 0 || m > (len(buf)-walHdrSize-walCRCSize)/(8+pageSize) {
		return 0, 0, fmt.Errorf("eio: tx: WAL record count %d exceeds region: %w", m, ErrBadRecord)
	}
	end := walRecordSize(m, pageSize) - walCRCSize
	if crc32c(buf[:end]) != binary.LittleEndian.Uint32(buf[end:]) {
		return 0, 0, fmt.Errorf("eio: tx: WAL record: %w", ErrChecksum)
	}
	return binary.LittleEndian.Uint64(buf[8:]), m, nil
}

// walImage returns the i-th (page id, image) slot of a record as a view.
func walImage(rec []byte, pageSize, i int) (PageID, []byte) {
	off := walHdrSize + i*(8+pageSize)
	return PageID(binary.LittleEndian.Uint64(rec[off:])), rec[off+8 : off+8+pageSize]
}

// --- recovery ----------------------------------------------------------

// recover reads the anchors and the ring, replays the chain of committed
// records the anchor does not cover, and repairs whatever the crash tore.
// Called with no lock (single-owner during open).
func (t *TxStore) recover() error {
	seqs, lsns, valid, best := t.readAnchors()
	if best < 0 {
		return fmt.Errorf("eio: tx: both anchor slots invalid: %w", ErrChecksum)
	}
	t.slot, t.seq, t.applied = best, seqs[best], lsns[best]

	// Redo, in ring order, every record continuing the anchor's LSN.
	// Idempotent: images never target a page whose owner changed while the
	// record was in the ring (frees are held), and the anchor moves only
	// after every image is back in place and durable.
	wal, torn := t.readWAL()
	for off := 0; off < len(wal); {
		lsn, m, err := checkWALRecord(wal[off:], t.ps)
		if err != nil || lsn != t.applied+1 {
			break
		}
		for i := 0; i < m; i++ {
			id, img := walImage(wal[off:], t.ps, i)
			if err := t.writeImage(id, img); err != nil {
				return fmt.Errorf("eio: tx: replay lsn %d: %w", lsn, err)
			}
		}
		t.applied = lsn
		t.recovery.Records++
		t.recovery.PagesRedone += m
		t.tail += walRecordPages(m, t.ps)
		off = t.tail * t.ps
	}
	if t.recovery.Records > 0 {
		if err := t.checkpointLocked(); err != nil {
			return fmt.Errorf("eio: tx: replay: %w", err)
		}
		t.recovery.Replayed, t.recovery.LSN = true, t.applied
		valid[t.slot] = true // just rewritten
	}

	// Repair torn WAL pages so VerifyFile comes back clean. A page inside
	// a replayed record's span can never be in torn (its bytes passed the
	// CRC), so zeroing these loses nothing.
	clear(t.pad)
	for _, id := range torn {
		if err := t.inner.Write(id, t.pad); err != nil {
			return fmt.Errorf("eio: tx: repair WAL page %d: %w", id, err)
		}
		t.recovery.WALRepaired++
	}
	// Repair an invalid anchor slot from the surviving one, keeping its
	// seq strictly below the winner so the winner stays authoritative.
	for i := 0; i < 2; i++ {
		if valid[i] || i == t.slot {
			continue
		}
		var lower uint64
		if t.seq > 0 {
			lower = t.seq - 1
		}
		if err := t.writeAnchor(i, lower, t.applied); err != nil {
			return err
		}
		t.recovery.AnchorsRepaired++
	}
	if t.recovery.Dirty() {
		if err := t.syncInner(); err != nil {
			return err
		}
	}
	return nil
}

// --- transactions ------------------------------------------------------

// Begin starts a transaction. Transactions do not nest.
func (t *TxStore) Begin() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.inTx {
		return fmt.Errorf("eio: tx: transaction already open")
	}
	if t.failed != nil {
		return t.failed
	}
	t.inTx = true
	t.rec = append(t.rec[:0], make([]byte, walHdrSize)...)
	return nil
}

// Commit makes the open transaction durable and atomic. On error the
// transaction stays open (the disk may hold a partial commit — recovery
// via OpenTxStore resolves it); call Rollback to discard the buffers.
func (t *TxStore) Commit() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.inTx {
		return fmt.Errorf("eio: tx: no open transaction")
	}
	if len(t.slots) == 0 && len(t.txFrees) == 0 {
		// Nothing to make atomic. Allocations, if any, still need a
		// barrier so they survive reopen.
		if len(t.allocs) > 0 {
			if err := t.syncInnerTimed(); err != nil {
				return err
			}
		}
		t.endTxLocked()
		return nil
	}
	rec := sealWALRecord(t.rec, t.applied+1, len(t.slots), t.ps)
	t.rec = rec[:len(rec)-walCRCSize] // keep a grown buffer; Write appends after the slots
	if err := t.logAndApply(t.applied+1, len(t.slots), rec); err != nil {
		return err
	}
	t.held = append(t.held, t.txFrees...)
	t.endTxLocked()
	return nil
}

// logAndApply is the commit protocol for one sealed record of m images
// (steps 1–4 of the note at the top of the file): TxStore.Commit runs it on
// the transaction buffer, TxReplica.ApplyRecord on a shipped record.
// Callers hold mu.
func (t *TxStore) logAndApply(lsn uint64, m int, rec []byte) error {
	if t.failed != nil {
		return t.failed
	}
	pages := walRecordPages(m, t.ps)
	if pages > len(t.walIDs) {
		return fmt.Errorf("eio: tx: %d page images exceed WAL capacity %d: %w",
			m, maxTxImages(t.ps, len(t.walIDs)), ErrTxOverflow)
	}
	if t.tail+pages > len(t.walIDs) {
		if err := t.checkpointLocked(); err != nil {
			return err
		}
	}
	walStart := time.Now()
	if t.run != nil {
		if err := t.run.WriteRun(t.walIDs[t.tail], rec); err != nil {
			return fmt.Errorf("eio: tx: WAL append: %w", err)
		}
	} else {
		for i := 0; i < pages; i++ {
			page := rec[i*t.ps:]
			if len(page) >= t.ps {
				page = page[:t.ps]
			} else {
				clear(t.pad[copy(t.pad, page):])
				page = t.pad
			}
			if err := t.inner.Write(t.walIDs[t.tail+i], page); err != nil {
				return fmt.Errorf("eio: tx: WAL append: %w", err)
			}
		}
	}
	t.tm.WALAppend += time.Since(walStart)

	if err := t.syncInnerTimed(); err != nil {
		// The record may have reached the disk or not; only recovery can
		// tell.
		return t.failLocked(fmt.Errorf("eio: tx: commit sync: %w", err))
	}
	t.committed = true
	t.applied = lsn
	t.tail += pages
	t.tm.Commits++
	if t.hook != nil {
		t.hook(lsn, rec)
	}

	// Apply, in first-write order: into the cache (a dirty frame, written
	// in place when it is evicted or at the checkpoint), or in place and
	// unsynced without one. Until the next checkpoint the record in the
	// ring is what makes these durable.
	for i := 0; i < m; i++ {
		id, img := walImage(rec, t.ps, i)
		if err := t.writeImage(id, img); err != nil {
			return t.failLocked(err)
		}
	}
	return nil
}

// failLocked stops the store after an error at or past a commit point: the
// record is (or may be) durable, but only some of its images reached the
// cache, so the in-memory state is neither the old nor the new one. A later
// checkpoint would flush that torn state and write an anchor past the
// record, and recovery would never redo it. So every later operation —
// checkpoint and Close included — returns err, nothing more is written,
// and reopening the store (OpenTxStore) replays the record. This is the
// choice PostgreSQL makes on a failed fsync. Callers hold mu.
func (t *TxStore) failLocked(err error) error {
	t.failed = fmt.Errorf("eio: tx: store stopped, reopen to recover: %w", err)
	return t.failed
}

// writeImage hands one committed page image to the apply store,
// materializing the page first when the store has never handed its id out
// (only a store that writes in place reports that: recovery's and a
// replica's, never the cache).
func (t *TxStore) writeImage(id PageID, img []byte) error {
	err := t.apply.Write(id, img)
	if err != nil && t.ensure != nil && errors.Is(err, ErrBadPage) {
		if err = t.ensure.EnsurePage(id); err == nil {
			err = t.apply.Write(id, img)
		}
	}
	if err != nil {
		return fmt.Errorf("eio: tx: apply page %d: %w", id, err)
	}
	return nil
}

// checkpointLocked retires every record in the ring (steps a–d of the note
// at the top of the file): afterwards the anchor names the last committed
// LSN, nothing can be replayed, and the held frees have reached the inner
// store. Callers hold mu.
func (t *TxStore) checkpointLocked() error {
	if t.failed != nil {
		return t.failed
	}
	if t.tail == 0 && len(t.held) == 0 {
		return nil
	}
	start := time.Now()
	defer func() {
		t.tm.Checkpoint += time.Since(start)
		t.tm.Checkpoints++
	}()
	if t.tail > 0 {
		// Frames are dirtied only by committed records, so an empty ring
		// means a clean cache.
		if t.cache != nil {
			if err := t.cache.Flush(); err != nil {
				return fmt.Errorf("eio: tx: checkpoint: %w", err)
			}
		}
		if err := t.syncInner(); err != nil {
			return fmt.Errorf("eio: tx: checkpoint apply sync: %w", err)
		}
		if err := t.writeAnchor(1-t.slot, t.seq+1, t.applied); err != nil {
			return err
		}
		if err := t.syncInner(); err != nil {
			return fmt.Errorf("eio: tx: checkpoint anchor sync: %w", err)
		}
		t.slot, t.seq, t.tail = 1-t.slot, t.seq+1, 0
	}
	for i, id := range t.held {
		delete(t.dead, id)
		if err := t.data.Free(id); err != nil {
			t.held = t.held[:copy(t.held, t.held[i+1:])]
			return fmt.Errorf("eio: tx: held free of page %d: %w", id, err)
		}
	}
	t.held = t.held[:0]
	return nil
}

// Rollback discards the open transaction. Pages allocated inside it are
// freed (best-effort) unless the transaction already passed its commit
// point — then they belong to the committed image and are left alone.
func (t *TxStore) Rollback() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.inTx {
		return fmt.Errorf("eio: tx: no open transaction")
	}
	if !t.committed && t.failed == nil {
		// No record in the ring can name a page this transaction was just
		// handed, so these go straight back to the inner store.
		for i := len(t.allocs) - 1; i >= 0; i-- {
			_ = t.data.Free(t.allocs[i])
		}
	}
	for _, id := range t.txFrees {
		delete(t.dead, id)
	}
	t.endTxLocked()
	return nil
}

// endTxLocked clears transaction state, keeping the record buffer and its
// index for the next transaction unless this one outgrew keptRecordImages
// (then they start over at a typical transaction's size). Callers hold mu.
func (t *TxStore) endTxLocked() {
	t.inTx = false
	t.committed = false
	if cap(t.rec) > walRecordSize(keptRecordImages, t.ps) {
		t.rec, t.slots = make([]byte, 0, walRecordSize(keptRecordImages/4, t.ps)), map[PageID]int{}
	} else {
		clear(t.slots)
	}
	t.allocs, t.txFrees = t.allocs[:0], t.txFrees[:0]
}

// Update runs fn inside one transaction: Begin, fn, then Commit on success
// or Rollback on failure — the unit core.Durable maps index operations onto.
func (t *TxStore) Update(fn func() error) error {
	if err := t.Begin(); err != nil {
		return err
	}
	if err := fn(); err != nil {
		_ = t.Rollback()
		return err
	}
	if err := t.Commit(); err != nil {
		_ = t.Rollback()
		return err
	}
	return nil
}

// InTx reports whether a transaction is open.
func (t *TxStore) InTx() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.inTx
}

func (t *TxStore) syncInner() error {
	if s, ok := t.inner.(syncer); ok {
		return s.Sync()
	}
	return nil
}

// syncInnerTimed is syncInner with the barrier's wall time folded into the
// cumulative commit-sync counter.
func (t *TxStore) syncInnerTimed() error {
	start := time.Now()
	err := t.syncInner()
	t.tm.Sync += time.Since(start)
	return err
}

// --- Store interface ---------------------------------------------------

// PageSize implements Store.
func (t *TxStore) PageSize() int { return t.ps }

// Alloc implements Store. Allocations pass through even inside a
// transaction (page ids must come from the inner store); a rolled-back
// transaction frees them again, and a crash leaks at most unreferenced
// pages, which Scrub reclaims.
func (t *TxStore) Alloc() (PageID, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failed != nil {
		return NilPage, t.failed
	}
	id, err := t.inner.Alloc()
	if err != nil {
		return NilPage, err
	}
	if t.inTx {
		t.allocs = append(t.allocs, id)
	}
	return id, nil
}

// Free implements Store. The page reads as freed at once, but the inner
// free waits for the checkpoint that retires every record which may still
// rewrite the page — so neither a crash nor a replay can hand a committed
// page's storage to a new owner. With nothing in the ring and no open
// transaction there is nothing to wait for and the free passes through.
func (t *TxStore) Free(id PageID) error {
	if id == NilPage {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failed != nil {
		return t.failed
	}
	if !t.inTx && t.tail == 0 {
		return t.data.Free(id)
	}
	if _, dead := t.dead[id]; dead {
		return fmt.Errorf("eio: tx: page %d already freed: %w", id, ErrBadPage)
	}
	t.dead[id] = struct{}{}
	if !t.inTx {
		t.held = append(t.held, id)
		return nil
	}
	t.txFrees = append(t.txFrees, id)
	if i, ok := t.slots[id]; ok {
		// Close the freed page's slot so the record stays dense and in
		// first-write order.
		off := walHdrSize + i*(8+t.ps)
		t.rec = append(t.rec[:off], t.rec[off+8+t.ps:]...)
		delete(t.slots, id)
		for k, j := range t.slots {
			if j > i {
				t.slots[k] = j - 1
			}
		}
	}
	return nil
}

// Read implements Store: buffered transaction writes win over the cache,
// and the cache over the inner store, so a transaction reads its own
// uncommitted data and everyone reads the last committed image. Reads take
// only the shared lock (the transaction buffers are mutated exclusively);
// the cache has its own. A miss on a full cache may write a dirty frame in
// place — see "steal" in the protocol note.
func (t *TxStore) Read(id PageID, buf []byte) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.failed != nil {
		return t.failed
	}
	if len(t.dead) > 0 {
		if _, dead := t.dead[id]; dead {
			return fmt.Errorf("eio: tx: page %d is freed: %w", id, ErrBadPage)
		}
	}
	if t.inTx {
		if len(buf) < t.ps {
			return fmt.Errorf("eio: read buffer %d bytes: %w", len(buf), ErrPageSize)
		}
		if i, ok := t.slots[id]; ok {
			_, img := walImage(t.rec, t.ps, i)
			copy(buf, img)
			return nil
		}
	}
	return t.data.Read(id, buf)
}

// Write implements Store. Inside a transaction the page image goes into
// its slot of the record buffer until Commit; the inner store is
// untouched. A write outside a transaction is written through — after a
// checkpoint if the ring still holds records, which replay would
// otherwise put back over it — and refreshes the cached copy, if any.
func (t *TxStore) Write(id PageID, buf []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failed != nil {
		return t.failed
	}
	if _, dead := t.dead[id]; dead {
		return fmt.Errorf("eio: tx: page %d is freed: %w", id, ErrBadPage)
	}
	if !t.inTx {
		if err := t.checkpointLocked(); err != nil {
			return err
		}
		if err := t.inner.Write(id, buf); err != nil || t.cache == nil {
			return err
		}
		t.cache.refresh(id, buf)
		return nil
	}
	if len(buf) != t.ps {
		return fmt.Errorf("eio: write buffer %d bytes: %w", len(buf), ErrPageSize)
	}
	if i, ok := t.slots[id]; ok {
		_, img := walImage(t.rec, t.ps, i)
		copy(img, buf)
		return nil
	}
	if len(t.slots)+1 > maxTxImages(t.ps, len(t.walIDs)) {
		return fmt.Errorf("eio: tx: transaction exceeds WAL capacity of %d page images: %w",
			maxTxImages(t.ps, len(t.walIDs)), ErrTxOverflow)
	}
	t.slots[id] = len(t.slots)
	t.rec = append(binary.LittleEndian.AppendUint64(t.rec, uint64(id)), buf...)
	return nil
}

// Sync makes everything written so far durable and exact: it checkpoints
// (so the anchors name the last committed LSN, nothing is left to replay
// and every held free is released) and then runs the inner store's
// durability barrier, if any.
func (t *TxStore) Sync() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkpointLocked(); err != nil {
		return err
	}
	return t.syncInner()
}

// Stats implements Store, reporting the inner store's counters: buffered
// transaction writes count only when they reach the backing store.
func (t *TxStore) Stats() Stats { return t.inner.Stats() }

// ResetStats implements Store by delegating to the inner store. An open
// transaction's buffers are NOT reset — only accounting is.
func (t *TxStore) ResetStats() { t.inner.ResetStats() }

// Pages implements Store, counting freed pages as gone whether or not
// their free has reached the inner store yet.
func (t *TxStore) Pages() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.inner.Pages() - len(t.dead)
}

// LivePageIDs implements PageLister when the inner store does; like Pages
// it leaves out pages whose free is still held.
func (t *TxStore) LivePageIDs() ([]PageID, error) {
	pl, ok := t.inner.(PageLister)
	if !ok {
		return nil, fmt.Errorf("eio: tx: inner store cannot enumerate pages")
	}
	ids, err := pl.LivePageIDs()
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err != nil || len(t.dead) == 0 {
		return ids, err
	}
	live := ids[:0]
	for _, id := range ids {
		if _, dead := t.dead[id]; !dead {
			live = append(live, id)
		}
	}
	return live, nil
}

// Close rolls back any open transaction, checkpoints (a cleanly closed
// store reopens with nothing to replay and nothing leaked) and closes the
// inner store.
func (t *TxStore) Close() error {
	t.mu.Lock()
	inTx := t.inTx
	t.mu.Unlock()
	if inTx {
		_ = t.Rollback()
	}
	t.mu.Lock()
	err := t.checkpointLocked()
	t.mu.Unlock()
	if cerr := t.inner.Close(); err == nil {
		err = cerr
	}
	return err
}
