package eio

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// RecordStore stores variable-length byte records on a Store as chains of
// pages. A record that needs k pages costs exactly k I/Os to read and Θ(k)
// to write, matching the paper's accounting for logical nodes that occupy
// "O(1) catalog blocks" or "O(B) index blocks".
//
// Chain layout: every page starts with an 8-byte next-page id; the first
// page additionally carries the record length as 8 bytes. The record id is
// the id of its first page.
//
// Aliasing rules: Get reads a record into caller-owned memory (a RecordBuf)
// and returns a slice of it, valid until that RecordBuf is next passed to
// Get; a RecordStore itself keeps no buffer and no state besides the Store,
// so one may be shared by concurrent readers. Put and Update do not retain
// data.
type RecordStore struct {
	s Store
}

// RecordBuf is caller-owned, reusable memory for RecordStore.Get. The zero
// value is ready to use; it grows to the largest record read through it and
// never shrinks. A RecordBuf must not be used by two Gets at once.
//
// It also remembers which pages the record it last read occupies, so an
// Update of that record through it writes without walking the chain again —
// provided nothing else rewrote the record between the Get and the Update.
type RecordBuf struct {
	b     []byte   // len == cap: chain pages are read straight into it
	id    PageID   // the record chain describes; NilPage: none
	chain []PageID // its pages, head first
}

// grow returns the buffer extended to at least n bytes, contents preserved.
func (rb *RecordBuf) grow(n int) []byte {
	if n > len(rb.b) {
		nb := make([]byte, max(n, 2*len(rb.b)))
		copy(nb, rb.b)
		rb.b = nb
	}
	return rb.b
}

// pageBufs recycles the page-sized transfer buffers of operations that
// have no caller-supplied scratch (record writes, chain walks, point-block
// writes). Only buffers are recycled, never their contents: every borrower
// overwrites the whole page before using it.
var pageBufs sync.Pool

// borrowPage returns a page buffer of exactly ps bytes with arbitrary
// contents; hand it back with returnPage.
func borrowPage(ps int) *[]byte {
	if b, _ := pageBufs.Get().(*[]byte); b != nil && cap(*b) >= ps {
		*b = (*b)[:ps]
		return b
	}
	b := make([]byte, ps)
	return &b
}

func returnPage(b *[]byte) { pageBufs.Put(b) }

const (
	chainNextOff  = 0
	chainHdrFirst = 16 // next + length
	chainHdrRest  = 8  // next only
)

// NewRecordStore returns a RecordStore over s.
func NewRecordStore(s Store) *RecordStore { return &RecordStore{s: s} }

// Store returns the underlying page store.
func (r *RecordStore) Store() Store { return r.s }

// PagesFor returns the number of pages a record of n bytes occupies.
func (r *RecordStore) PagesFor(n int) int {
	ps := r.s.PageSize()
	first := ps - chainHdrFirst
	if n <= first {
		return 1
	}
	rest := ps - chainHdrRest
	return 1 + (n-first+rest-1)/rest
}

// Put writes data as a new record and returns its id.
func (r *RecordStore) Put(data []byte) (PageID, error) {
	return r.write(NilPage, data, nil)
}

// Update rewrites the record id with data, reusing the existing chain's
// pages and allocating or freeing pages as the length changes. The record
// keeps its id. buf is the RecordBuf the caller read the record with: if it
// still describes id the chain is taken from there and Update issues no
// read; a nil buf, or one that has read something else since, walks the
// chain first. Either way buf describes the new chain afterwards.
func (r *RecordStore) Update(id PageID, data []byte, buf *RecordBuf) error {
	if id == NilPage {
		return fmt.Errorf("eio: update of nil record: %w", ErrBadRecord)
	}
	_, err := r.write(id, data, buf)
	return err
}

// write stores data in a chain starting at reuse (NilPage to allocate a
// fresh chain) and returns the chain head. The old chain comes from buf
// when buf describes reuse, else from a walk.
//
// The operation order is chosen for failure atomicity of the chain
// structure: tail pages are written first, the head page — which commits
// the new length and the link into the rest of the chain — second, and
// surplus pages of a shrinking record are freed only after no page links
// to them any more. An I/O failure at any point therefore leaves a chain
// that reads (never a link to a freed page, never fewer pages than the
// head's length asks for); freshly allocated pages are released
// best-effort so a failed grow does not leak.
func (r *RecordStore) write(reuse PageID, data []byte, rb *RecordBuf) (PageID, error) {
	ps := r.s.PageSize()
	page := borrowPage(ps)
	defer returnPage(page)
	buf := *page

	// Collect reusable pages from the old chain.
	var reusable []PageID
	switch {
	case reuse == NilPage:
	case rb != nil && rb.id == reuse:
		reusable = rb.chain
	default:
		var err error
		if reusable, err = r.chain(reuse); err != nil {
			return NilPage, err
		}
	}
	if rb != nil {
		// Whatever happens below, rb no longer describes the old chain.
		rb.id = NilPage
	}
	need := r.PagesFor(len(data))
	var surplus []PageID
	pages := reusable
	if len(pages) > need {
		surplus = pages[need:]
		pages = pages[:need]
	}
	kept := len(pages) // pages[kept:] are freshly allocated
	for len(pages) < need {
		id, err := r.s.Alloc()
		if err != nil {
			freeAll(r.s, pages[kept:])
			return NilPage, fmt.Errorf("eio: grow record: %w", err)
		}
		pages = append(pages, id)
	}

	// Byte ranges: the first page holds firstCap bytes after its 16-byte
	// header, every later page restCap bytes after its 8-byte header.
	firstCap := ps - chainHdrFirst
	restCap := ps - chainHdrRest
	writePage := func(i int) error {
		clear(buf)
		next := NilPage
		if i+1 < need {
			next = pages[i+1]
		}
		binary.LittleEndian.PutUint64(buf[chainNextOff:], uint64(next))
		var chunk []byte
		if i == 0 {
			binary.LittleEndian.PutUint64(buf[8:], uint64(len(data)))
			chunk = data[:min(firstCap, len(data))]
			copy(buf[chainHdrFirst:], chunk)
		} else {
			start := firstCap + (i-1)*restCap
			chunk = data[start:min(start+restCap, len(data))]
			copy(buf[chainHdrRest:], chunk)
		}
		if err := r.s.Write(pages[i], buf); err != nil {
			return fmt.Errorf("eio: write record page: %w", err)
		}
		return nil
	}
	// A shrinking record is the exception to tail-first: the rewritten tail
	// ends the chain early, which under the old head's length would read as
	// truncated, so its head goes first, the old, longer tail still on it.
	// It allocates nothing, so a failure has nothing to release.
	if len(surplus) > 0 {
		for i := 0; i < need; i++ {
			if err := writePage(i); err != nil {
				return NilPage, err
			}
		}
	} else {
		// The fresh pages go first and the kept tail after them, so the
		// kept page that links into the fresh ones is written last before
		// the head: until the head's write, no page an existing chain
		// reaches links to a fresh page, and a failure may free them all.
		// After it they may be linked, and stay.
		for _, span := range [...][2]int{{max(kept, 1), need}, {1, kept}, {0, 1}} {
			for j := span[0]; j < span[1]; j++ {
				if err := writePage(j); err != nil {
					if j != 0 || kept == 0 {
						freeAll(r.s, pages[kept:])
					}
					return NilPage, err
				}
			}
		}
	}
	for _, id := range surplus {
		if err := r.s.Free(id); err != nil {
			return NilPage, fmt.Errorf("eio: shrink record: %w", err)
		}
	}
	if rb != nil {
		rb.chain = append(rb.chain[:0], pages...)
		rb.id = pages[0]
	}
	return pages[0], nil
}

// freeAll releases ids best-effort (used for cleanup on a failed write,
// where the original error is the one worth reporting).
func freeAll(s Store, ids []PageID) {
	for _, id := range ids {
		_ = s.Free(id)
	}
}

// maxRecordLen bounds the length a head page may claim.
const maxRecordLen = 1 << 40

// Get reads the record id into buf and returns its bytes. The result
// aliases buf's memory and is valid until buf is next passed to Get; a nil
// buf reads into fresh memory the caller then owns.
//
// Every chain page is read straight into buf at the position its payload
// belongs, so a record costs no copy beyond the store's own and buf grows
// only as pages actually arrive — a corrupt head page claiming a huge
// length fails with ErrBadRecord after the chain runs out, not after the
// runtime has been asked for that much memory.
func (r *RecordStore) Get(id PageID, buf *RecordBuf) ([]byte, error) {
	if id == NilPage {
		return nil, fmt.Errorf("eio: get of nil record: %w", ErrBadRecord)
	}
	if buf == nil {
		buf = new(RecordBuf)
	}
	buf.id = NilPage
	buf.chain = append(buf.chain[:0], id)
	ps := r.s.PageSize()
	b := buf.grow(ps)
	if err := r.s.Read(id, b[:ps]); err != nil {
		return nil, err
	}
	next := PageID(binary.LittleEndian.Uint64(b[chainNextOff:]))
	length := binary.LittleEndian.Uint64(b[8:])
	if length > maxRecordLen {
		return nil, fmt.Errorf("eio: record %d length %d: %w", id, length, ErrBadRecord)
	}
	want := chainHdrFirst + int(length) // end of the payload within b
	end := min(ps, want)
	for next != NilPage && end < want {
		// The page's 8-byte header lands on the payload's last 8 bytes:
		// set them aside for the read and put them back afterwards.
		at := end - chainHdrRest
		b = buf.grow(at + ps)
		saved := binary.LittleEndian.Uint64(b[at:])
		if err := r.s.Read(next, b[at:at+ps]); err != nil {
			return nil, err
		}
		buf.chain = append(buf.chain, next)
		next = PageID(binary.LittleEndian.Uint64(b[at:]))
		binary.LittleEndian.PutUint64(b[at:], saved)
		end = min(at+ps, want)
	}
	if end != want {
		return nil, fmt.Errorf("eio: record %d truncated (%d of %d bytes): %w", id, end-chainHdrFirst, length, ErrBadRecord)
	}
	if next == NilPage { // else the chain runs past its payload: Update walks and trims it
		buf.id = id
	}
	return b[chainHdrFirst:want:want], nil
}

// Delete frees every page of the record id.
func (r *RecordStore) Delete(id PageID) error {
	if id == NilPage {
		return nil
	}
	pages, err := r.chain(id)
	if err != nil {
		return err
	}
	for _, p := range pages {
		if err := r.s.Free(p); err != nil {
			return err
		}
	}
	return nil
}

// Chain returns the page ids occupied by record id, head first. It is the
// exact reachability primitive for Scrub: a structure's reachable page set
// is the union of the chains of every record it can name.
func (r *RecordStore) Chain(id PageID) ([]PageID, error) { return r.chain(id) }

// chain returns the page ids of record id in order.
func (r *RecordStore) chain(id PageID) ([]PageID, error) {
	page := borrowPage(r.s.PageSize())
	defer returnPage(page)
	buf := *page
	var pages []PageID
	for cur := id; cur != NilPage; {
		if err := r.s.Read(cur, buf); err != nil {
			return nil, err
		}
		pages = append(pages, cur)
		cur = PageID(binary.LittleEndian.Uint64(buf[chainNextOff:]))
		if len(pages) > 1<<24 {
			return nil, fmt.Errorf("eio: record %d: cycle in chain: %w", id, ErrBadRecord)
		}
	}
	return pages, nil
}
