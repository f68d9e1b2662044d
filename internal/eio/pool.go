package eio

import (
	"fmt"
	"sort"
	"sync"
)

// PoolStats counts buffer-pool events. Hits cost nothing; every miss is one
// read on the backing store, and every dirty eviction or flush is one write.
type PoolStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Writeback uint64
}

// Pool is an LRU buffer pool over a backing Store. It models a main memory
// of M pages, the "internal memory" of the I/O model: accesses served from
// the pool are free, and only traffic to the backing store counts as I/O.
//
// Writes are buffered (write-back): a page is written to the backing store
// only when it is evicted or on Flush/Close.
//
// The pool owns its frames: at most Cap page buffers are ever allocated
// (on first use) and they are kept for the pool's life. A miss on a full
// pool moves the incoming page into the frame of the page it evicts, so
// steady-state traffic allocates nothing.
type Pool struct {
	mu      sync.Mutex
	backing Store
	cap     int
	frames  []frame          // every frame ever allocated, resident or spare
	index   map[PageID]int32 // resident page → its frame
	head    int32            // most recently used resident frame, or noFrame
	tail    int32            // least recently used resident frame, or noFrame
	spare   int32            // frames released by Free, linked through next
	n       int              // resident frames
	pstats  PoolStats
	closed  bool
}

// frame is one pooled page. Resident frames form a doubly linked LRU list
// through prev/next (indices into Pool.frames); spare frames a singly
// linked one through next.
type frame struct {
	id         PageID
	data       []byte
	dirty      bool
	prev, next int32
}

const noFrame int32 = -1

var _ Store = (*Pool)(nil)

// NewPool wraps backing with an LRU pool of capacity pages (capacity ≥ 1).
func NewPool(backing Store, capacity int) *Pool {
	if capacity < 1 {
		panic("eio: pool capacity must be at least 1")
	}
	return &Pool{
		backing: backing,
		cap:     capacity,
		index:   make(map[PageID]int32),
		head:    noFrame,
		tail:    noFrame,
		spare:   noFrame,
	}
}

// PageSize implements Store.
func (p *Pool) PageSize() int { return p.backing.PageSize() }

// Alloc implements Store. The new page enters the pool dirty, so creating
// and immediately writing a page costs a single backing write when it is
// eventually evicted.
func (p *Pool) Alloc() (PageID, error) {
	id, err := p.backing.Alloc()
	if err != nil {
		return NilPage, err
	}
	if err := p.adopt(id); err != nil {
		// The eviction write-back failed; release the page we just
		// allocated so it is not leaked (best-effort — the insert error
		// is the one worth reporting).
		_ = p.backing.Free(id)
		return NilPage, err
	}
	return id, nil
}

// adopt inserts a freshly allocated page into the pool as a zeroed dirty
// frame (the id comes from the backing store: this pool's Alloc, or the
// shared one of a ShardedPool).
func (p *Pool) adopt(id PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("eio: alloc on closed pool")
	}
	fr, err := p.insertLocked(id)
	if err != nil {
		return err
	}
	clear(fr.data)
	fr.dirty = true
	return nil
}

// Free implements Store. A pooled copy is dropped without write-back.
func (p *Pool) Free(id PageID) error {
	p.mu.Lock()
	if i, ok := p.index[id]; ok {
		p.unlinkLocked(i)
		p.n--
		delete(p.index, id)
		p.frames[i].next = p.spare
		p.spare = i
	}
	p.mu.Unlock()
	return p.backing.Free(id)
}

// Read implements Store.
func (p *Pool) Read(id PageID, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("eio: read on closed pool")
	}
	// Validate up front so behavior does not depend on cache state: the
	// backing store would reject a short buffer on a miss, so a hit must
	// reject it too rather than silently truncating.
	ps := p.backing.PageSize()
	if len(buf) < ps {
		return fmt.Errorf("eio: read buffer %d bytes: %w", len(buf), ErrPageSize)
	}
	if i, ok := p.index[id]; ok {
		p.pstats.Hits++
		p.touchLocked(i)
		copy(buf, p.frames[i].data)
		return nil
	}
	p.pstats.Misses++
	// The page goes to the caller's buffer first: the victim's frame still
	// holds the victim until its write-back (after this read) has succeeded.
	if err := p.backing.Read(id, buf); err != nil {
		return err
	}
	fr, err := p.insertLocked(id)
	if err != nil {
		return err
	}
	copy(fr.data, buf[:ps])
	fr.dirty = false
	return nil
}

// Write implements Store.
func (p *Pool) Write(id PageID, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("eio: write on closed pool")
	}
	if len(buf) != p.backing.PageSize() {
		return fmt.Errorf("eio: write buffer %d bytes: %w", len(buf), ErrPageSize)
	}
	if i, ok := p.index[id]; ok {
		p.pstats.Hits++
		fr := &p.frames[i]
		copy(fr.data, buf)
		fr.dirty = true
		p.touchLocked(i)
		return nil
	}
	p.pstats.Misses++
	fr, err := p.insertLocked(id)
	if err != nil {
		return err
	}
	copy(fr.data, buf)
	fr.dirty = true
	return nil
}

// refresh copies buf over the pooled copy of page id, if there is one, and
// marks it clean: the caller has just written buf to the backing store
// itself (a write-through), and a stale copy must not outlive that.
func (p *Pool) refresh(id PageID, buf []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i, ok := p.index[id]; ok {
		copy(p.frames[i].data, buf)
		p.frames[i].dirty = false
	}
}

// insertLocked makes page id resident at the front of the LRU list and
// returns its frame, whose contents and dirty flag the caller must set. On
// a full pool the LRU frame is evicted (written back first if dirty) and
// reused; otherwise a spare frame is taken or a new one allocated.
func (p *Pool) insertLocked(id PageID) (*frame, error) {
	var i int32
	switch {
	case p.n >= p.cap:
		i = p.tail
		victim := &p.frames[i]
		if victim.dirty {
			p.pstats.Writeback++
			if err := p.backing.Write(victim.id, victim.data); err != nil {
				return nil, fmt.Errorf("eio: evict page %d: %w", victim.id, err)
			}
		}
		p.pstats.Evictions++
		p.unlinkLocked(i)
		p.n--
		delete(p.index, victim.id)
	case p.spare != noFrame:
		i = p.spare
		p.spare = p.frames[i].next
	default:
		i = int32(len(p.frames))
		p.frames = append(p.frames, frame{data: make([]byte, p.backing.PageSize())})
	}
	p.frames[i].id = id
	p.pushFrontLocked(i)
	p.n++
	p.index[id] = i
	return &p.frames[i], nil
}

// pushFrontLocked links frame i in as the most recently used.
func (p *Pool) pushFrontLocked(i int32) {
	fr := &p.frames[i]
	fr.prev, fr.next = noFrame, p.head
	if p.head != noFrame {
		p.frames[p.head].prev = i
	} else {
		p.tail = i
	}
	p.head = i
}

// unlinkLocked removes frame i from the LRU list.
func (p *Pool) unlinkLocked(i int32) {
	fr := &p.frames[i]
	if fr.prev != noFrame {
		p.frames[fr.prev].next = fr.next
	} else {
		p.head = fr.next
	}
	if fr.next != noFrame {
		p.frames[fr.next].prev = fr.prev
	} else {
		p.tail = fr.prev
	}
}

// touchLocked moves resident frame i to the front of the LRU list.
func (p *Pool) touchLocked(i int32) {
	if p.head != i {
		p.unlinkLocked(i)
		p.pushFrontLocked(i)
	}
}

// Flush writes every dirty pooled page to the backing store, in ascending
// page id: the write-back a checkpoint waits for is as sequential as the
// dirty set allows, and the order of backing-store operations does not
// depend on the access history (a CrashStore seed replays the same image).
func (p *Pool) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return flushFrames(p.appendDirtyLocked(nil))
}

// dirtyFrame is one frame awaiting write-back and the pool that owns it.
type dirtyFrame struct {
	p  *Pool
	fr *frame
}

// appendDirtyLocked appends p's dirty frames to dst. Callers hold p.mu.
func (p *Pool) appendDirtyLocked(dst []dirtyFrame) []dirtyFrame {
	for i := p.head; i != noFrame; i = p.frames[i].next {
		if fr := &p.frames[i]; fr.dirty {
			dst = append(dst, dirtyFrame{p, fr})
		}
	}
	return dst
}

// flushFrames writes the given dirty frames back in ascending page id.
// Callers hold the lock of every pool that owns one.
func flushFrames(dirty []dirtyFrame) error {
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].fr.id < dirty[j].fr.id })
	for _, d := range dirty {
		d.p.pstats.Writeback++
		if err := d.p.backing.Write(d.fr.id, d.fr.data); err != nil {
			return fmt.Errorf("eio: flush page %d: %w", d.fr.id, err)
		}
		d.fr.dirty = false
	}
	return nil
}

// Stats implements Store, reporting the backing store's counters only —
// i.e. the true block-transfer cost after caching. Pool hits are free in
// the I/O model and therefore never appear here; use PoolStats for the
// cache-level view (hits, misses, evictions, dirty write-backs).
func (p *Pool) Stats() Stats { return p.backing.Stats() }

// ResetStats implements Store; it clears both the backing store's I/O
// counters and the pool's own PoolStats counters, so a measurement window
// opened with ResetStats sees consistent zeroes at both levels. Pooled
// page contents and dirty flags are untouched — resetting accounting never
// changes caching behavior.
func (p *Pool) ResetStats() {
	p.mu.Lock()
	p.pstats = PoolStats{}
	p.mu.Unlock()
	p.backing.ResetStats()
}

// PoolStats returns the cache-event counters (hits, misses, evictions,
// dirty write-backs) accumulated since creation or the last ResetStats.
func (p *Pool) PoolStats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pstats
}

// Dirty returns the number of pooled pages whose contents have not yet
// been written back to the backing store.
func (p *Pool) Dirty() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for i := p.head; i != noFrame; i = p.frames[i].next {
		if p.frames[i].dirty {
			n++
		}
	}
	return n
}

// Cap returns the pool capacity M in pages.
func (p *Pool) Cap() int { return p.cap }

// Resident returns the number of pages currently held in the pool.
func (p *Pool) Resident() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// Pages implements Store.
func (p *Pool) Pages() int { return p.backing.Pages() }

// LivePageIDs implements PageLister when the backing store does.
// Allocation state passes straight through the pool, so no flush is
// needed for the listing to be exact.
func (p *Pool) LivePageIDs() ([]PageID, error) {
	pl, ok := p.backing.(PageLister)
	if !ok {
		return nil, fmt.Errorf("eio: pool: backing store cannot enumerate pages")
	}
	return pl.LivePageIDs()
}

// Close flushes dirty pages and closes the backing store.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	err := flushFrames(p.appendDirtyLocked(nil))
	p.closed = true
	p.mu.Unlock()
	if cerr := p.backing.Close(); err == nil {
		err = cerr
	}
	return err
}
