package eio

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
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
//	WAL region (fixed set of preallocated pages)
//	    one redo record, always starting at WAL byte offset 0:
//	    magic "WALR" | page count m | LSN | m × (page id | page image) | CRC-32C
//
// Commit protocol (the order is the whole point):
//
//	 1. checkpoint barrier: Sync the inner store, making the PREVIOUS
//	    commit's anchor and in-place writes and this transaction's page
//	    allocations durable before the old WAL record is overwritten
//	 2. write the redo record into the WAL pages
//	 3. Sync — the commit point: after this the transaction is durable
//	 4. apply the buffered writes in place, in first-write order
//	 5. Sync — the apply barrier: the data a new anchor will vouch for
//	    must be durable before the anchor can possibly be
//	 6. write the new anchor (seq+1, LSN) into the alternate anchor slot
//	 7. apply deferred frees
//
// Step 5 looks redundant — replay would redo lost apply writes — but it
// is load-bearing: an anchor page embeds a checksum of its own payload,
// and crc32(m ‖ crc32(m)) is a length-dependent CONSTANT, so the outer
// page-trailer CRC is identical for every self-consistent anchor payload.
// A torn write that replaces the anchor payload therefore still passes
// the page checksum: the new anchor can survive a crash that dropped
// every apply write it vouches for. With the apply barrier first, an
// anchor claiming LSN N can only ever be durable after N's data is.
//
// Frees are never logged: replaying a record therefore never writes to a
// page the same transaction freed, which keeps replay idempotent. A crash
// between steps 3 and 6 leaks at most the freed pages and free-list
// ordering — exactly the class VerifyFile reports as drift, not damage,
// and that Scrub reclaims.
//
// OpenTxStore recovers: it picks the valid anchor with the highest seq,
// parses the WAL record, and redoes it iff its LSN is applied+1. Torn WAL
// pages (checksum failures) make the record parse fail — the transaction
// never reached its commit point and vanishes. Recovery then repairs the
// file for a clean VerifyFile: checksum-bad WAL pages are rewritten with
// zeros and invalid anchor slots are rewritten from the surviving one.

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
)

// TxOptions configures NewTxStore.
type TxOptions struct {
	// Disabled turns the TxStore into a pure pass-through with no WAL, no
	// buffering and no atomicity — the fast path for in-memory benchmark
	// runs where durability is meaningless. A disabled TxStore performs
	// exactly the I/Os of the wrapped store.
	Disabled bool
	// WALPages is the number of pages preallocated for the redo log; it
	// bounds how many distinct pages one transaction may write. Zero
	// selects DefaultWALPages.
	WALPages int
}

// RecoveryInfo describes what OpenTxStore had to do to the file.
type RecoveryInfo struct {
	// Replayed reports whether a committed-but-unapplied record was redone.
	Replayed bool
	// LSN is the log sequence number of the redone record (0 if none).
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
	return fmt.Sprintf("replayed=%v lsn=%d pages_redone=%d wal_repaired=%d anchors_repaired=%d",
		r.Replayed, r.LSN, r.PagesRedone, r.WALRepaired, r.AnchorsRepaired)
}

// TxStore wraps any Store with write-ahead-logged transactions. Outside a
// transaction every operation passes straight through. Inside one (Begin …
// Commit), Writes are buffered in memory, Frees are deferred, and Allocs
// pass through (ids must come from the inner store); Commit makes the
// whole batch atomic: after a crash at ANY backing-store operation, reopen
// with OpenTxStore and the store holds exactly the pre-transaction or the
// post-transaction image — never a mix.
//
// A TxStore is a wrapper in the sense documented on Store: it keeps no
// Stats of its own, so buffered transaction writes are counted only when
// they reach the inner store (WAL append + in-place apply).
//
// TxStore serializes transactions internally but, like every wrapper, does
// not add multi-writer semantics: one logical updater at a time —
// core.Concurrent's commit leader in a serving stack.
type TxStore struct {
	mu    sync.RWMutex // reads share the lock so snapshot readers scale
	inner Store
	ps    int

	disabled bool

	dir      PageID // directory record id; pass to OpenTxStore
	anchors  [2]PageID
	walIDs   []PageID
	slot     int    // anchor slot holding the current state
	seq      uint64 // seq of the current anchor
	applied  uint64 // LSN of the last applied (and durable-on-replay) commit
	dirty    bool   // in-place writes since the last inner Sync
	recovery RecoveryInfo

	inTx      bool
	committed bool // this tx passed its commit point (step 3)
	writes    map[PageID][]byte
	order     []PageID // first-write order of writes
	allocs    []PageID
	frees     map[PageID]struct{}
	freeOrder []PageID

	// hook, when set, is invoked synchronously during Commit immediately
	// after the commit point (step 3) with the record's LSN and its encoded
	// bytes. This is the log-shipping tap: at that instant the record is
	// durable on the primary but the WAL region will be overwritten by the
	// NEXT commit, so a replication shipper must copy it out here or lose
	// it. The hook runs under the store lock — it must not call back into
	// the store and must not block.
	hook func(lsn uint64, record []byte)

	// Cumulative commit-phase timing, atomic so Timings can be read from
	// outside the store lock (a group-commit leader snapshots the deltas
	// around one Batch to attribute WAL and sync time to request spans).
	walNs  atomic.Int64 // time appending WAL record pages (step 2)
	syncNs atomic.Int64 // time in durability barriers (steps 1, 3, 5)
}

// TxTimings is a cumulative wall-time breakdown of Commit's expensive
// phases. Counters only ever grow; subtract two snapshots to attribute
// one commit's cost.
type TxTimings struct {
	// WALAppend is time spent writing redo-record pages (step 2).
	WALAppend time.Duration
	// Sync is time spent in the three durability barriers (steps 1, 3, 5).
	Sync time.Duration
}

// Sub returns the per-interval delta a − b.
func (a TxTimings) Sub(b TxTimings) TxTimings {
	return TxTimings{WALAppend: a.WALAppend - b.WALAppend, Sync: a.Sync - b.Sync}
}

// Timings returns the cumulative commit-phase timing counters. Safe to
// call concurrently with commits; a reader that snapshots before and
// after a commit it serialized with sees exactly that commit's cost.
func (t *TxStore) Timings() TxTimings {
	return TxTimings{
		WALAppend: time.Duration(t.walNs.Load()),
		Sync:      time.Duration(t.syncNs.Load()),
	}
}

var _ Store = (*TxStore)(nil)

// maxTxImages returns how many distinct page images one record can hold.
func maxTxImages(pageSize, walPages int) int {
	return (walPages*pageSize - walHdrSize - walCRCSize) / (8 + pageSize)
}

// NewTxStore initializes a transactional layer on inner, allocating its
// directory, anchor and WAL pages, and returns the handle. Persist
// Anchor() alongside your structure headers: it is the id OpenTxStore
// needs to reopen and recover the store.
func NewTxStore(inner Store, opts TxOptions) (*TxStore, error) {
	t := &TxStore{inner: inner, ps: inner.PageSize(), disabled: opts.Disabled}
	if t.disabled {
		return t, nil
	}
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
	return t, nil
}

// OpenTxStore attaches to a transactional layer created by NewTxStore
// (dir is the id NewTxStore returned from Anchor) and runs crash
// recovery: a committed-but-unapplied record is replayed, a torn
// (uncommitted) record is discarded, and damaged WAL/anchor pages are
// repaired so VerifyFile reports the file clean. Recovery() tells what
// happened.
func OpenTxStore(inner Store, dir PageID) (*TxStore, error) {
	t := &TxStore{inner: inner, ps: inner.PageSize(), dir: dir}
	rs := NewRecordStore(inner)
	raw, err := rs.Get(dir, nil)
	if err != nil {
		return nil, fmt.Errorf("eio: tx: read directory %d: %w", dir, err)
	}
	if err := t.decodeDir(raw); err != nil {
		return nil, err
	}
	if err := t.recover(); err != nil {
		return nil, err
	}
	return t, nil
}

// Anchor returns the directory record id to pass to OpenTxStore, or
// NilPage for a disabled (pass-through) TxStore.
func (t *TxStore) Anchor() PageID { return t.dir }

// AppliedLSN returns the log sequence number of the last committed
// transaction — the position a log-shipping stream is at. It is 0 for a
// fresh or disabled store and increases by exactly one per non-empty
// commit.
func (t *TxStore) AppliedLSN() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.applied
}

// SetCommitHook installs (or, with nil, removes) the commit tap described
// on the hook field: fn runs inside every Commit right after the commit
// point with the durable record's LSN and encoded bytes. fn must copy the
// bytes if it retains them, must not block, and must not call back into
// the store. One hook at a time; installing replaces the previous one.
func (t *TxStore) SetCommitHook(fn func(lsn uint64, record []byte)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hook = fn
}

// WALCapacity returns the maximum number of distinct page images one
// commit record can carry (0 for a disabled store).
func (t *TxStore) WALCapacity() int {
	if t.disabled {
		return 0
	}
	return maxTxImages(t.ps, len(t.walIDs))
}

// Recovery reports what OpenTxStore did; zero for a freshly created store.
func (t *TxStore) Recovery() RecoveryInfo { return t.recovery }

// MetaPages returns every page owned by the transactional layer itself —
// directory chain, anchors and WAL region. Reachability walkers (Scrub)
// must treat these as live roots.
func (t *TxStore) MetaPages() ([]PageID, error) {
	if t.disabled {
		return nil, nil
	}
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

func (t *TxStore) decodeDir(buf []byte) error {
	if len(buf) < dirHdrSize || string(buf[:4]) != dirMagic {
		return fmt.Errorf("eio: tx: bad directory record: %w", ErrBadRecord)
	}
	if v := binary.LittleEndian.Uint16(buf[4:]); v != txVersion {
		return fmt.Errorf("eio: tx: directory version %d unsupported", v)
	}
	t.anchors[0] = PageID(binary.LittleEndian.Uint64(buf[8:]))
	t.anchors[1] = PageID(binary.LittleEndian.Uint64(buf[16:]))
	n := int(binary.LittleEndian.Uint32(buf[24:]))
	if n < 1 || len(buf) < dirHdrSize+8*n {
		return fmt.Errorf("eio: tx: directory truncated: %w", ErrBadRecord)
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
	page := make([]byte, t.ps)
	copy(page, encodeAnchor(seq, applied))
	if err := t.inner.Write(t.anchors[slot], page); err != nil {
		return fmt.Errorf("eio: tx: write anchor %d: %w", slot, err)
	}
	return nil
}

// walWrite is one page image inside a redo record.
type walWrite struct {
	id    PageID
	image []byte
}

// encodeWALRecord serializes a redo record for the given images.
func encodeWALRecord(lsn uint64, writes []walWrite, pageSize int) []byte {
	buf := make([]byte, walHdrSize+len(writes)*(8+pageSize)+walCRCSize)
	copy(buf, walMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(writes)))
	binary.LittleEndian.PutUint64(buf[8:], lsn)
	off := walHdrSize
	for _, w := range writes {
		binary.LittleEndian.PutUint64(buf[off:], uint64(w.id))
		copy(buf[off+8:], w.image)
		off += 8 + pageSize
	}
	binary.LittleEndian.PutUint32(buf[off:], crc32c(buf[:off]))
	return buf
}

// decodeWALRecord parses a redo record from the raw WAL bytes. Torn,
// bit-flipped or truncated input returns an error, never a panic and
// never a partially trusted record (the CRC covers everything).
func decodeWALRecord(buf []byte, pageSize int) (lsn uint64, writes []walWrite, err error) {
	if pageSize <= 0 {
		return 0, nil, fmt.Errorf("eio: tx: bad page size %d", pageSize)
	}
	if len(buf) < walHdrSize+walCRCSize || string(buf[:4]) != walMagic {
		return 0, nil, fmt.Errorf("eio: tx: no WAL record: %w", ErrBadRecord)
	}
	m := int(binary.LittleEndian.Uint32(buf[4:]))
	if m < 0 || m > (len(buf)-walHdrSize-walCRCSize)/(8+pageSize) {
		return 0, nil, fmt.Errorf("eio: tx: WAL record count %d exceeds region: %w", m, ErrBadRecord)
	}
	end := walHdrSize + m*(8+pageSize)
	if crc32c(buf[:end]) != binary.LittleEndian.Uint32(buf[end:]) {
		return 0, nil, fmt.Errorf("eio: tx: WAL record: %w", ErrChecksum)
	}
	lsn = binary.LittleEndian.Uint64(buf[8:])
	writes = make([]walWrite, 0, m)
	off := walHdrSize
	for i := 0; i < m; i++ {
		id := PageID(binary.LittleEndian.Uint64(buf[off:]))
		img := make([]byte, pageSize)
		copy(img, buf[off+8:off+8+pageSize])
		writes = append(writes, walWrite{id: id, image: img})
		off += 8 + pageSize
	}
	return lsn, writes, nil
}

// WALPageImage is one page image inside a decoded redo record, as exposed
// by DecodeWALRecord to consumers outside the transactional layer
// (replication appliers, offline inspectors).
type WALPageImage struct {
	ID    PageID
	Image []byte
}

// DecodeWALRecord parses the raw bytes of a TxStore redo record — the unit
// a commit hook ships — and returns its LSN and page images in first-write
// order. Torn, bit-flipped or truncated input returns an error (wrapping
// ErrBadRecord or ErrChecksum), never a partially trusted record.
func DecodeWALRecord(buf []byte, pageSize int) (lsn uint64, pages []WALPageImage, err error) {
	lsn, writes, err := decodeWALRecord(buf, pageSize)
	if err != nil {
		return 0, nil, err
	}
	pages = make([]WALPageImage, len(writes))
	for i, w := range writes {
		pages[i] = WALPageImage{ID: w.id, Image: w.image}
	}
	return lsn, pages, nil
}

// --- recovery ----------------------------------------------------------

// recover reads the anchors and the WAL, replays a committed record, and
// repairs whatever the crash tore. Called with no lock (single-owner
// during open).
func (t *TxStore) recover() error {
	var (
		seqs    [2]uint64
		applied [2]uint64
		valid   [2]bool
	)
	buf := make([]byte, t.ps)
	for i := 0; i < 2; i++ {
		if err := t.inner.Read(t.anchors[i], buf); err != nil {
			continue // torn anchor: slot invalid, repaired below
		}
		s, a, err := decodeAnchor(buf)
		if err != nil {
			continue
		}
		seqs[i], applied[i], valid[i] = s, a, true
	}
	switch {
	case valid[0] && valid[1]:
		if seqs[0] >= seqs[1] {
			t.slot = 0
		} else {
			t.slot = 1
		}
	case valid[0]:
		t.slot = 0
	case valid[1]:
		t.slot = 1
	default:
		return fmt.Errorf("eio: tx: both anchor slots invalid: %w", ErrChecksum)
	}
	t.seq, t.applied = seqs[t.slot], applied[t.slot]

	// Read the WAL region; checksum-bad pages contribute zero bytes (the
	// record CRC then fails, which is the torn-tail discard) and are
	// remembered for repair.
	wal := make([]byte, 0, len(t.walIDs)*t.ps)
	var torn []PageID
	for _, id := range t.walIDs {
		if err := t.inner.Read(id, buf); err != nil {
			torn = append(torn, id)
			wal = append(wal, make([]byte, t.ps)...)
			continue
		}
		wal = append(wal, buf[:t.ps]...)
	}

	lsn, writes, err := decodeWALRecord(wal, t.ps)
	if err == nil && lsn == t.applied+1 {
		// Committed but (possibly) not fully applied: redo. Idempotent —
		// images never target pages the same transaction freed, and the
		// anchor is bumped only after every image is back in place.
		for _, w := range writes {
			if err := t.inner.Write(w.id, w.image); err != nil {
				return fmt.Errorf("eio: tx: replay page %d: %w", w.id, err)
			}
		}
		// Same apply barrier as Commit: the redone images must be durable
		// before an anchor claiming this LSN can be.
		if err := t.syncInner(); err != nil {
			return fmt.Errorf("eio: tx: replay sync: %w", err)
		}
		t.applied = lsn
		t.seq++
		t.slot = 1 - t.slot
		if err := t.writeAnchor(t.slot, t.seq, t.applied); err != nil {
			return err
		}
		t.recovery.Replayed = true
		t.recovery.LSN = lsn
		t.recovery.PagesRedone = len(writes)
		valid[t.slot] = true // just rewritten
	}

	// Repair torn WAL pages so VerifyFile comes back clean. A page inside
	// a valid record's span can never be in torn (its bytes passed the
	// CRC), so zeroing these loses nothing.
	zero := make([]byte, t.ps)
	for _, id := range torn {
		if err := t.inner.Write(id, zero); err != nil {
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
	t.inTx = true
	t.committed = false
	if !t.disabled {
		t.writes = make(map[PageID][]byte)
		t.order = t.order[:0]
		t.allocs = t.allocs[:0]
		t.frees = make(map[PageID]struct{})
		t.freeOrder = t.freeOrder[:0]
	}
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
	if t.disabled {
		t.inTx = false
		return nil
	}
	if len(t.order) == 0 && len(t.freeOrder) == 0 {
		// Nothing to make atomic. Allocations, if any, still need the
		// checkpoint barrier so they survive reopen.
		if len(t.allocs) > 0 {
			if err := t.syncInnerTimed(); err != nil {
				return err
			}
			t.dirty = false
		}
		t.endTxLocked()
		return nil
	}

	// 1. Checkpoint barrier: the previous commit's in-place state and this
	// transaction's allocations must be durable before the WAL record that
	// protects them is overwritten.
	if t.dirty || len(t.allocs) > 0 {
		if err := t.syncInnerTimed(); err != nil {
			return fmt.Errorf("eio: tx: checkpoint sync: %w", err)
		}
		t.dirty = false
	}

	// 2. Append the redo record over the WAL region.
	lsn := t.applied + 1
	images := make([]walWrite, 0, len(t.order))
	for _, id := range t.order {
		images = append(images, walWrite{id: id, image: t.writes[id]})
	}
	rec := encodeWALRecord(lsn, images, t.ps)
	if len(rec) > len(t.walIDs)*t.ps {
		return fmt.Errorf("eio: tx: %d page images exceed WAL capacity %d: %w",
			len(images), maxTxImages(t.ps, len(t.walIDs)), ErrTxOverflow)
	}
	full := rec // the append loop below consumes rec; the commit hook needs it whole
	page := make([]byte, t.ps)
	walStart := time.Now()
	for i := 0; len(rec) > 0; i++ {
		n := copy(page, rec)
		for j := n; j < t.ps; j++ {
			page[j] = 0
		}
		if err := t.inner.Write(t.walIDs[i], page); err != nil {
			return fmt.Errorf("eio: tx: WAL append: %w", err)
		}
		rec = rec[n:]
	}
	t.walNs.Add(int64(time.Since(walStart)))

	// 3. Commit point.
	if err := t.syncInnerTimed(); err != nil {
		return fmt.Errorf("eio: tx: commit sync: %w", err)
	}
	t.committed = true
	if t.hook != nil {
		t.hook(lsn, full)
	}

	// 4. Apply in place, in first-write order. A crash anywhere in here
	// is resolved by replay.
	for _, id := range t.order {
		if err := t.inner.Write(id, t.writes[id]); err != nil {
			return fmt.Errorf("eio: tx: apply page %d: %w", id, err)
		}
	}

	// 5. Apply barrier: the anchor about to claim this LSN must never
	// become durable ahead of the data it vouches for (see the protocol
	// note at the top of the file — a torn anchor write can pass the page
	// checksum, so ordering, not checksums, carries this guarantee).
	if err := t.syncInnerTimed(); err != nil {
		return fmt.Errorf("eio: tx: apply sync: %w", err)
	}

	// 6–7. Bump the anchor, release deferred frees.
	t.applied = lsn
	t.seq++
	t.slot = 1 - t.slot
	if err := t.writeAnchor(t.slot, t.seq, t.applied); err != nil {
		return err
	}
	for _, id := range t.freeOrder {
		if err := t.inner.Free(id); err != nil {
			return fmt.Errorf("eio: tx: deferred free of page %d: %w", id, err)
		}
	}
	t.dirty = true
	t.endTxLocked()
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
	if !t.disabled && !t.committed {
		for i := len(t.allocs) - 1; i >= 0; i-- {
			_ = t.inner.Free(t.allocs[i])
		}
	}
	t.endTxLocked()
	return nil
}

// endTxLocked clears transaction state. Callers hold mu.
func (t *TxStore) endTxLocked() {
	t.inTx = false
	t.committed = false
	t.writes = nil
	t.order = nil
	t.allocs = nil
	t.frees = nil
	t.freeOrder = nil
}

// Update runs fn inside one transaction: Begin, fn, then Commit on
// success or Rollback on failure. This is the unit core.Durable maps
// index operations onto.
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

// syncInnerTimed is syncInner with the barrier's wall time folded into
// the cumulative sync counter; Commit uses it for its three barriers.
func (t *TxStore) syncInnerTimed() error {
	start := time.Now()
	err := t.syncInner()
	t.syncNs.Add(int64(time.Since(start)))
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
	id, err := t.inner.Alloc()
	if err != nil {
		return NilPage, err
	}
	if t.inTx && !t.disabled {
		t.allocs = append(t.allocs, id)
	}
	return id, nil
}

// Free implements Store. Inside a transaction the free is deferred until
// after the commit point, so a crash can never hand a committed page's
// storage to a new owner mid-transaction.
func (t *TxStore) Free(id PageID) error {
	if id == NilPage {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.inTx || t.disabled {
		return t.inner.Free(id)
	}
	if _, dead := t.frees[id]; dead {
		return fmt.Errorf("eio: tx: page %d already freed: %w", id, ErrBadPage)
	}
	t.frees[id] = struct{}{}
	t.freeOrder = append(t.freeOrder, id)
	if _, ok := t.writes[id]; ok {
		delete(t.writes, id)
		for i, w := range t.order {
			if w == id {
				t.order = append(t.order[:i], t.order[i+1:]...)
				break
			}
		}
	}
	return nil
}

// Read implements Store: buffered transaction writes win over the inner
// store, so a transaction reads its own uncommitted data. Reads take only
// the shared lock (the transaction buffers are mutated exclusively), so
// concurrent readers proceed in parallel.
func (t *TxStore) Read(id PageID, buf []byte) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.inTx || t.disabled {
		return t.inner.Read(id, buf)
	}
	if len(buf) < t.ps {
		return fmt.Errorf("eio: read buffer %d bytes: %w", len(buf), ErrPageSize)
	}
	if _, dead := t.frees[id]; dead {
		return fmt.Errorf("eio: tx: page %d is freed: %w", id, ErrBadPage)
	}
	if data, ok := t.writes[id]; ok {
		copy(buf, data)
		return nil
	}
	return t.inner.Read(id, buf)
}

// Write implements Store. Inside a transaction the page image is buffered
// until Commit; the inner store is untouched.
func (t *TxStore) Write(id PageID, buf []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.inTx || t.disabled {
		return t.inner.Write(id, buf)
	}
	if len(buf) != t.ps {
		return fmt.Errorf("eio: write buffer %d bytes: %w", len(buf), ErrPageSize)
	}
	if _, dead := t.frees[id]; dead {
		return fmt.Errorf("eio: tx: page %d is freed: %w", id, ErrBadPage)
	}
	if _, ok := t.writes[id]; !ok {
		if len(t.writes)+1 > maxTxImages(t.ps, len(t.walIDs)) {
			return fmt.Errorf("eio: tx: transaction exceeds WAL capacity of %d page images: %w",
				maxTxImages(t.ps, len(t.walIDs)), ErrTxOverflow)
		}
		t.order = append(t.order, id)
	}
	data := make([]byte, t.ps)
	copy(data, buf)
	t.writes[id] = data
	return nil
}

// Sync delegates to the inner store's durability barrier, if any.
func (t *TxStore) Sync() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.syncInner()
}

// writeRaw delegates torn writes so crash simulators compose with TxStore.
func (t *TxStore) writeRaw(id PageID, prefix []byte) error {
	rw, ok := t.inner.(rawWriter)
	if !ok {
		return fmt.Errorf("eio: inner store does not support raw writes")
	}
	return rw.writeRaw(id, prefix)
}

// Stats implements Store, reporting the inner store's counters: buffered
// transaction writes count only when they reach the backing store.
func (t *TxStore) Stats() Stats { return t.inner.Stats() }

// ResetStats implements Store by delegating to the inner store. An open
// transaction's buffers are NOT reset — only accounting is.
func (t *TxStore) ResetStats() { t.inner.ResetStats() }

// Pages implements Store, counting deferred frees as already gone.
func (t *TxStore) Pages() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.inner.Pages()
	if t.inTx && !t.disabled {
		n -= len(t.frees)
	}
	return n
}

// LivePageIDs implements PageLister when the inner store does.
func (t *TxStore) LivePageIDs() ([]PageID, error) {
	pl, ok := t.inner.(PageLister)
	if !ok {
		return nil, fmt.Errorf("eio: tx: inner store cannot enumerate pages")
	}
	return pl.LivePageIDs()
}

// Close rolls back any open transaction and closes the inner store.
func (t *TxStore) Close() error {
	t.mu.Lock()
	inTx := t.inTx
	t.mu.Unlock()
	if inTx {
		_ = t.Rollback()
	}
	return t.inner.Close()
}
