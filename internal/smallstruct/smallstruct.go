// Package smallstruct implements the Θ(B²)-point dynamic 3-sided structure
// of Lemma 1 / Section 3.1 of Arge, Samoladas & Vitter (PODS 1999): the
// sweep-line indexing scheme of Section 2.2.1 laid out on disk blocks, with
// its block metadata (x-ranges and activity y-intervals) packed into O(1)
// "catalog" blocks.
//
// A structure over N = O(B²) points occupies O(N/B + 1) index blocks plus
// an O(1)-block catalog. A 3-sided query reads the catalog, selects the
// covering blocks from it in memory, and reads those blocks: O(t + 1) I/Os.
//
// Updates are supported in O(1) I/Os amortized, as the paper's full version
// prescribes: insertions and deletions are appended to a small buffer held
// inside the catalog record; when the buffer reaches Θ(B) entries the whole
// structure is rebuilt with the sweep-line algorithm, costing O(N/B + 1)
// I/Os — O(1) amortized per update for N = O(B²). (The paper's in-place
// O(B)-I/O construction sweeps with a priority queue; we rebuild through
// memory, which transfers the same O(N/B) blocks. Like the paper's, it uses
// the order already on disk instead of sorting: gather hands each new block
// over as a few ascending runs, and the sweep's queue holds only the
// heights at which a block turns light or empty; see sweep.Work.Build.)
//
// The structure stores a *set* of points: duplicate insertions are
// rejected. This is what its only client, the external priority search
// tree, requires — each point is stored in exactly one node's structure —
// and it keeps delete semantics unambiguous under the scheme's internal
// block-level duplication.
package smallstruct

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
	"rangesearch/internal/sweep"
)

// ErrDuplicate reports insertion of a point already present.
var ErrDuplicate = errors.New("smallstruct: duplicate point")

// DefaultAlpha is the sweep coalescing parameter used when 0 is passed.
const DefaultAlpha = 2

// Struct is a handle to a small structure stored on an eio.Store. The
// handle itself holds no point data; every operation reads the catalog
// record (O(1) pages) and the index blocks it needs.
//
// A handle from Create or Open borrows a Scratch for the length of each
// operation and is safe for concurrent queries. A handle from OpenScratch
// works in the Scratch it was given and belongs to that Scratch's owner.
type Struct struct {
	store   eio.Store
	rs      eio.RecordStore
	b       int
	alpha   int
	bufCap  int // 0 = default B/2
	catalog eio.PageID
	sc      *Scratch // nil: borrow one per operation
	// opened (Open sets it) parks the Scratch holding the catalog Open
	// read, for the handle's first operation to take instead of borrowing.
	opened *atomic.Pointer[Scratch]
}

// Scratch is the working memory of one operation at a time: the page
// buffer index blocks are read into, the buffer holding the catalog record
// and, on the update path, the decoded catalog and its re-encoding. Results
// are appended to the caller's dst or returned by value, so one Scratch
// serves any number of consecutive operations on any number of handles, and
// steady-state operations allocate nothing. The zero value is ready to use.
//
// All a Scratch carries from one operation to the next is the catalog it
// read last, so consecutive operations on one structure (fetch a Y-set,
// then insert into it) load the catalog once. Its owner calls Reset
// whenever the store may have changed behind the Scratch's back.
type Scratch struct {
	page        []byte        // one index block; overwritten by every block read
	rec         eio.RecordBuf // the catalog record last read
	holds       eio.PageID    // the catalog view describes; NilPage: none
	view        catalogView   // over rec, or over enc once the catalog was rewritten
	dead        []geom.Point  // tombstones that can hide a point of the running query or MaxY
	order       []int32       // MaxY: block indices by decreasing topY
	probe       []geom.Point  // update path: result of the membership probe
	cat         catalogData   // update path: decoded catalog (slices reused)
	enc         []byte        // update path: encoded catalog
	*rebuildMem               // attached while a rebuild (or Create, or All) runs
}

// rebuildMem is what only a rebuild needs, some 32 bytes per point of the
// structure. Rebuilds are rare, so no Scratch keeps one: the last one used
// waits in spareRebuild and a rebuild that finds it taken makes its own.
type rebuildMem struct {
	work sweep.Work   // the live set and the construction's arrays
	next catalogData  // the catalog under construction
	sel  []geom.Point // one x-bucket, then one block being written
	cuts []geom.Point // the chunk boundaries inside that bucket
	runs []int        // where each old initial block's survivors start
}

var spareRebuild atomic.Pointer[rebuildMem]

func (sc *Scratch) attachRebuildMem() {
	if sc.rebuildMem = spareRebuild.Swap(nil); sc.rebuildMem == nil {
		sc.rebuildMem = new(rebuildMem)
	}
}

func (sc *Scratch) detachRebuildMem() {
	spareRebuild.Store(sc.rebuildMem)
	sc.rebuildMem = nil
}

// Reset makes sc forget the catalog it holds.
func (sc *Scratch) Reset() { sc.holds = eio.NilPage }

// scratchPool lends Scratches (holding no catalog) to handles without one.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

func (s *Struct) borrow() *Scratch {
	if s.sc != nil {
		return s.sc
	}
	if s.opened != nil {
		if sc := s.opened.Swap(nil); sc != nil {
			return sc
		}
	}
	return scratchPool.Get().(*Scratch)
}

func (s *Struct) release(sc *Scratch) {
	if s.sc == nil {
		sc.Reset()
		scratchPool.Put(sc)
	}
}

// catalogData is the decoded catalog, used where the catalog is mutated
// (Insert, Delete, rebuild); everything else reads a catalogView.
type catalogData struct {
	blocks []blockMeta
	ins    []geom.Point // buffered insertions, not yet in blocks
	dels   []geom.Point // buffered deletions (tombstones on block contents)
}

type blockMeta struct {
	page      eio.PageID
	count     int32
	initial   bool
	retiredAt bool
	xlo, xhi  int64
	yact      int64
	yret      int64
	topY      int64 // max stored y (stale under tombstones; upper bound)
}

const blockMetaSize = 8 + 4 + 4 + 5*8 // page, count, flags, xlo/xhi/yact/yret/topY

// Create builds a structure over pts (which must be distinct) and writes it
// to store. alpha is the sweep coalescing parameter (0 selects
// DefaultAlpha). The block size is the store's point capacity.
func Create(store eio.Store, alpha int, pts []geom.Point) (*Struct, error) {
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	s := &Struct{
		store: store,
		rs:    *eio.NewRecordStore(store),
		b:     eio.BlockCapacity(store.PageSize()),
		alpha: alpha,
	}
	if s.b < 2 {
		return nil, fmt.Errorf("smallstruct: page size %d holds fewer than 2 points", store.PageSize())
	}
	if alpha < 2 {
		return nil, fmt.Errorf("smallstruct: alpha %d < 2", alpha)
	}
	seen := make(map[geom.Point]bool, len(pts))
	for _, p := range pts {
		if seen[p] {
			return nil, fmt.Errorf("smallstruct: point %v: %w", p, ErrDuplicate)
		}
		seen[p] = true
	}
	sc := s.borrow()
	defer s.release(sc)
	sc.attachRebuildMem()
	defer sc.detachRebuildMem()
	sc.work.SetPoints(pts, s.b)
	cat, err := s.writeScheme(sc)
	if err != nil {
		return nil, err
	}
	sc.enc = encodeCatalog(sc.enc[:0], cat)
	if s.catalog, err = s.rs.Put(sc.enc); err != nil {
		return nil, err
	}
	return s, nil
}

// Open attaches to a structure previously created on store. It reads the
// catalog, so a dangling or non-catalog id fails here, not mid-query; the
// handle's first operation works from that read instead of repeating it.
func Open(store eio.Store, catalog eio.PageID, alpha int) (*Struct, error) {
	s := OpenScratch(store, catalog, alpha, nil)
	sc := scratchPool.Get().(*Scratch)
	if _, err := s.loadCatalog(sc); err != nil {
		scratchPool.Put(sc)
		return nil, err
	}
	s.opened = new(atomic.Pointer[Scratch])
	s.opened.Store(sc)
	return &s, nil
}

// OpenScratch is Open for callers that run many operations back to back
// (the priority search tree opens one structure per node it visits): the
// handle is returned by value and works in sc instead of borrowing a
// Scratch per operation. It must not be used concurrently with anything
// else that uses sc. A nil sc gives a handle that borrows, as Open's does.
//
// OpenScratch is lazy: it reads nothing, and a dangling id surfaces as the
// error of the handle's first operation.
func OpenScratch(store eio.Store, catalog eio.PageID, alpha int, sc *Scratch) Struct {
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	return Struct{
		store:   store,
		rs:      *eio.NewRecordStore(store),
		b:       eio.BlockCapacity(store.PageSize()),
		alpha:   alpha,
		catalog: catalog,
		sc:      sc,
	}
}

// CatalogID returns the record id that identifies this structure on its
// store; pass it to Open to re-attach.
func (s *Struct) CatalogID() eio.PageID { return s.catalog }

// B returns the block capacity in points.
func (s *Struct) B() int { return s.b }

// bufferCap is the update-buffer size that triggers a rebuild.
func (s *Struct) bufferCap() int {
	if s.bufCap > 0 {
		return s.bufCap
	}
	return (s.b + 1) / 2
}

// SetBufferCap overrides the rebuild threshold (default B/2) for this
// handle. Smaller caps rebuild more often (cheaper queries, costlier
// updates); larger caps do the reverse — experiment E5 sweeps it. The
// setting is per-handle, not persisted.
func (s *Struct) SetBufferCap(n int) {
	if n < 1 {
		n = 1
	}
	s.bufCap = n
}

// writeScheme runs the sweep construction over the input prepared in
// sc.work, writes the blocks and returns the new catalog (in rebuildMem's
// next). It never touches existing blocks: callers replacing a catalog must
// commit the new one first and free the old blocks afterwards (see
// rebuild), so a failure mid-rewrite leaves the committed catalog's pages
// intact.
func (s *Struct) writeScheme(sc *Scratch) (*catalogData, error) {
	sch, err := sc.work.Build(s.b, s.alpha)
	if err != nil {
		return nil, fmt.Errorf("smallstruct: %w", err)
	}
	cat := &sc.next
	cat.blocks, cat.ins, cat.dels = cat.blocks[:0], cat.ins[:0], cat.dels[:0]
	for i := range sch.Blocks() {
		blk := &sch.Blocks()[i]
		sc.sel = sch.AppendPoints(sc.sel[:0], i)
		if len(sc.sel) == 0 {
			continue
		}
		page, err := eio.WritePointBlock(s.store, eio.NilPage, sc.sel)
		if err != nil {
			return nil, fmt.Errorf("smallstruct: write block: %w", err)
		}
		cat.blocks = append(cat.blocks, blockMeta{
			page:      page,
			count:     int32(len(sc.sel)),
			initial:   blk.Initial,
			retiredAt: blk.RetiredAt,
			xlo:       blk.XLo,
			xhi:       blk.XHi,
			yact:      blk.YAct,
			yret:      blk.YRet,
			topY:      sc.sel[len(sc.sel)-1].Y, // contents ascend in (y, x)
		})
	}
	return cat, nil
}

// loadCatalog returns a view of the catalog, reading the record into sc
// unless sc holds it; the view is valid until sc loads or stores another.
func (s *Struct) loadCatalog(sc *Scratch) (catalogView, error) {
	if sc.holds == s.catalog && sc.holds != eio.NilPage {
		return sc.view, nil
	}
	sc.holds = eio.NilPage
	raw, err := s.rs.Get(s.catalog, &sc.rec)
	if err != nil {
		return catalogView{}, fmt.Errorf("smallstruct: load catalog: %w", err)
	}
	if sc.view, err = viewCatalog(raw); err != nil {
		return catalogView{}, err
	}
	sc.holds = s.catalog
	return sc.view, nil
}

// storeCatalog re-encodes (into sc) and writes the catalog record in place
// — writes only, sc.rec knows the record's pages from the read before —
// and leaves sc holding the catalog as written.
func (s *Struct) storeCatalog(sc *Scratch, cat *catalogData) error {
	sc.holds = eio.NilPage
	sc.enc = encodeCatalog(sc.enc[:0], cat)
	if err := s.rs.Update(s.catalog, sc.enc, &sc.rec); err != nil {
		return fmt.Errorf("smallstruct: store catalog: %w", err)
	}
	sc.view, _ = viewCatalog(sc.enc)
	sc.holds = s.catalog
	return nil
}

// readBlock reads index block m into sc.page.
func (s *Struct) readBlock(sc *Scratch, m *blockMeta) error {
	if m.count < 0 || int(m.count) > s.b {
		return fmt.Errorf("smallstruct: block %d holds %d points (capacity %d)", m.page, m.count, s.b)
	}
	if ps := s.store.PageSize(); len(sc.page) < ps {
		sc.page = make([]byte, ps)
	}
	if err := s.store.Read(m.page, sc.page); err != nil {
		return fmt.Errorf("smallstruct: read block: %w", err)
	}
	return nil
}

// CheckBlocks audits what query3's block scan assumes of every index block:
// it holds at most B points (readBlock checks the count), each inside the
// block's [xlo, xhi], in ascending y, the last at the catalog's topY.
func (s *Struct) CheckBlocks() error {
	sc := s.borrow()
	defer s.release(sc)
	cat, err := s.loadCatalog(sc)
	if err != nil {
		return err
	}
	for i := 0; i < cat.nb; i++ {
		m := cat.block(i)
		if err := s.readBlock(sc, &m); err != nil {
			return err
		}
		for j := 0; j < int(m.count); j++ {
			if p := eio.GetPoint(sc.page, j*eio.PointSize); p.X < m.xlo || p.X > m.xhi {
				return fmt.Errorf("smallstruct: block %d: point %v outside its x-range [%d, %d]", m.page, p, m.xlo, m.xhi)
			}
			if j > 0 && pointY(sc.page, j) < pointY(sc.page, j-1) {
				return fmt.Errorf("smallstruct: block %d: y descends at point %d", m.page, j)
			}
		}
		if m.count > 0 && pointY(sc.page, int(m.count)-1) != m.topY {
			return fmt.Errorf("smallstruct: block %d: last point's y %d, catalog topY %d", m.page, pointY(sc.page, int(m.count)-1), m.topY)
		}
	}
	return nil
}

// activeFor mirrors sweep.Block.ActiveFor on catalog metadata.
func (m *blockMeta) activeFor(c int64) bool {
	if !m.initial && c <= m.yact {
		return false
	}
	return !m.retiredAt || c <= m.yret
}

// Query3 appends to dst every live point satisfying q and returns the
// extended slice. Cost: O(1) catalog pages + O(t+1) block reads.
func (s *Struct) Query3(dst []geom.Point, q geom.Query3) ([]geom.Point, error) {
	sc := s.borrow()
	defer s.release(sc)
	cat, err := s.loadCatalog(sc)
	if err != nil {
		return dst, err
	}
	return s.query3(sc, dst, cat, q)
}

// query3 filters the covering blocks straight from the page buffer into
// dst; nothing it appends aliases sc.
func (s *Struct) query3(sc *Scratch, dst []geom.Point, cat catalogView, q geom.Query3) ([]geom.Point, error) {
	if q.Empty() {
		return dst, nil
	}
	// Only a tombstone inside q can hide a point inside q.
	dead := slices.Grow(sc.dead[:0], cat.nd)
	for i := 0; i < cat.nd; i++ {
		if p := cat.del(i); q.Contains(p) {
			dead = append(dead, p)
		}
	}
	sc.dead = dead
	for i := 0; i < cat.nb; i++ {
		m := cat.block(i)
		if !m.activeFor(q.YLo) || m.xlo > q.XHi || m.xhi < q.XLo || q.YLo > m.topY {
			continue
		}
		if err := s.readBlock(sc, &m); err != nil {
			return dst, err
		}
		// Contents ascend in y (CheckBlocks audits it): binary-search the
		// first point with y ≥ YLo and scan from there. A block whose
		// x-range lies inside the query's needs no per-point x test.
		from := sort.Search(int(m.count), func(j int) bool { return pointY(sc.page, j) >= q.YLo })
		inside := q.XLo <= m.xlo && m.xhi <= q.XHi
		for j := from; j < int(m.count); j++ {
			p := eio.GetPoint(sc.page, j*eio.PointSize)
			if (inside || q.XLo <= p.X && p.X <= q.XHi) && !containsPoint(dead, p) {
				dst = append(dst, p)
			}
		}
	}
	for i := 0; i < cat.ni; i++ {
		if p := cat.ins(i); q.Contains(p) {
			dst = append(dst, p)
		}
	}
	return dst, nil
}

// pointY is the y-coordinate of point j of a block page.
func pointY(page []byte, j int) int64 {
	return int64(binary.LittleEndian.Uint64(page[j*eio.PointSize+8:]))
}

func containsPoint(pts []geom.Point, p geom.Point) bool {
	for _, q := range pts {
		if q == p {
			return true
		}
	}
	return false
}

// stored reports whether p is live, probing with the degenerate query at p.
func (s *Struct) stored(sc *Scratch, cat catalogView, p geom.Point) (bool, error) {
	var err error
	sc.probe, err = s.query3(sc, sc.probe[:0], cat, geom.Query3{XLo: p.X, XHi: p.X, YLo: p.Y})
	return containsPoint(sc.probe, p), err
}

// Contains reports whether p is stored (live).
func (s *Struct) Contains(p geom.Point) (bool, error) {
	sc := s.borrow()
	defer s.release(sc)
	cat, err := s.loadCatalog(sc)
	if err != nil {
		return false, err
	}
	return s.stored(sc, cat, p)
}

// Insert adds p. It returns ErrDuplicate if p is already stored.
// Cost: O(1) I/Os amortized.
func (s *Struct) Insert(p geom.Point) error {
	sc := s.borrow()
	defer s.release(sc)
	view, err := s.loadCatalog(sc)
	if err != nil {
		return err
	}
	// A tombstoned p is in a block but not live; anything else is probed.
	if !view.isDead(p) {
		present, err := s.stored(sc, view, p)
		if err != nil {
			return err
		}
		if present {
			return fmt.Errorf("smallstruct: insert %v: %w", p, ErrDuplicate)
		}
	}
	return s.update(sc, Edit{P: p})
}

// Delete removes p, reporting whether it was present.
// Cost: O(1) I/Os amortized.
func (s *Struct) Delete(p geom.Point) (bool, error) {
	sc := s.borrow()
	defer s.release(sc)
	view, err := s.loadCatalog(sc)
	if err != nil {
		return false, err
	}
	// A buffered insertion is live without being in a block.
	buffered := false
	for i := 0; i < view.ni && !buffered; i++ {
		buffered = view.ins(i) == p
	}
	if !buffered {
		present, err := s.stored(sc, view, p)
		if err != nil || !present {
			return false, err
		}
	}
	return true, s.update(sc, Edit{P: p, Del: true})
}

// Add is Insert for a caller that knows p is not stored, Remove is Delete
// for one that knows it is, Swap is Add(in) then Remove(out) in one catalog
// write, and Apply is any sequence of such edits in one catalog write. They
// skip the membership probe: the priority search tree has just fetched the
// Y-set the point would be in. Vouching wrongly corrupts.
func (s *Struct) Add(p geom.Point) error    { return s.Apply(Edit{P: p}) }
func (s *Struct) Remove(p geom.Point) error { return s.Apply(Edit{P: p, Del: true}) }
func (s *Struct) Swap(in, out geom.Point) error {
	return s.Apply(Edit{P: in}, Edit{P: out, Del: true})
}

// Apply applies edits in order, exactly as the same Adds and Removes one
// at a time would — the same buffer contents and the same rebuild moments —
// but loads and writes the catalog once (twice when an edit before the last
// fills the buffer: the rebuild writes it too).
func (s *Struct) Apply(edits ...Edit) error {
	sc := s.borrow()
	defer s.release(sc)
	return s.update(sc, edits...)
}

// Edit is one vouched update: an insertion of P, or its deletion when Del
// is set.
type Edit struct {
	P   geom.Point
	Del bool
}

// update applies edits in order and writes the catalog once (twice when an
// edit before the last fills the buffer: the rebuild writes it too).
func (s *Struct) update(sc *Scratch, edits ...Edit) error {
	view, err := s.loadCatalog(sc)
	if err != nil {
		return err
	}
	cat := view.decode(&sc.cat)
	dirty := false
	for _, e := range edits {
		// An insertion cancels p's tombstone (reinsertion after delete), a
		// deletion cancels p's buffered insertion; otherwise it is buffered.
		from, to := &cat.dels, &cat.ins
		if e.Del {
			from, to = to, from
		}
		if i := slices.Index(*from, e.P); i >= 0 {
			*from = slices.Delete(*from, i, i+1)
			dirty = true
		} else if *to = append(*to, e.P); len(cat.ins)+len(cat.dels) >= s.bufferCap() {
			if err := s.rebuild(sc, cat); err != nil {
				return err
			}
			dirty = false
		} else {
			dirty = true
		}
	}
	if dirty {
		return s.storeCatalog(sc, cat)
	}
	return nil
}

// gather reads the live set into sc.work as the construction's input,
// without sorting it. Pts holds the survivors of each initial block in
// catalog order — the initial blocks of the last rebuild partition the base
// set block after block by x, each ascending in (y, x) as it was written,
// and dropping tombstoned points keeps both — then the buffered insertions.
// Block cuts that set into chunks of B by x-rank: each old block with the
// insertions that fall into its range is a bucket, the buckets are in x
// order, so a point's chunk follows from its bucket's first rank and from
// which chunk boundaries inside the bucket it lies above; the boundary
// points are found by selection. So each new block's ids are pieces of one
// or two ascending runs plus the few insertions in its range, and Build
// sorts each block in about one pass. It sorts cat.ins and cat.dels in
// place.
func (s *Struct) gather(sc *Scratch, cat *catalogData) error {
	w := &sc.work
	w.Pts, sc.runs = w.Pts[:0], sc.runs[:0]
	geom.SortByX(cat.dels)
	geom.SortByX(cat.ins)
	lo := 0
	for i := range cat.blocks {
		m := &cat.blocks[i]
		if !m.initial {
			continue
		}
		if err := s.readBlock(sc, m); err != nil {
			return err
		}
		// Only a tombstone within the block's x-range can be in the block.
		for lo < len(cat.dels) && cat.dels[lo].X < m.xlo {
			lo++
		}
		hi := lo
		for hi < len(cat.dels) && cat.dels[hi].X <= m.xhi {
			hi++
		}
		from := len(w.Pts)
		for j := 0; j < int(m.count); j++ {
			if p := eio.GetPoint(sc.page, j*eio.PointSize); !containsPoint(cat.dels[lo:hi], p) {
				w.Pts = append(w.Pts, p)
			}
		}
		if len(w.Pts) > from {
			sc.runs = append(sc.runs, from)
		}
	}
	nbase := len(w.Pts)
	sc.runs = append(sc.runs, nbase) // run r is Pts[runs[r]:runs[r+1]]
	w.Pts = append(w.Pts, cat.ins...)
	w.Block = slices.Grow(w.Block[:0], len(w.Pts))[:len(w.Pts)]

	b, rank, ins := s.b, 0, 0
	for r := 0; r == 0 || r+1 < len(sc.runs); r++ {
		// The bucket: run r and the insertions below its maximum; the last
		// bucket (the only one, if nothing survives on disk) takes the rest.
		from, to, upto := nbase, nbase, len(cat.ins)
		if r+1 < len(sc.runs) {
			from, to = sc.runs[r], sc.runs[r+1]
		}
		sel := append(sc.sel[:0], w.Pts[from:to]...)
		if r+2 < len(sc.runs) {
			top := sel[0]
			for _, p := range sel {
				if top.Less(p) {
					top = p
				}
			}
			for upto = ins; upto < len(cat.ins) && cat.ins[upto].Less(top); upto++ {
			}
		}
		sel = append(sel, cat.ins[ins:upto]...)
		// The points that open a new chunk inside the bucket.
		sc.cuts = sc.cuts[:0]
		for at := (rank/b+1)*b - rank; at < len(sel); at += b {
			sc.cuts = append(sc.cuts, selectNth(sel, at))
		}
		chunk := func(p geom.Point) int32 {
			c := rank / b
			for _, cut := range sc.cuts {
				if !p.Less(cut) {
					c++
				}
			}
			return int32(c)
		}
		for i := from; i < to; i++ {
			w.Block[i] = chunk(w.Pts[i])
		}
		for i := ins; i < upto; i++ {
			w.Block[nbase+i] = chunk(cat.ins[i])
		}
		rank, ins, sc.sel = rank+len(sel), upto, sel
	}
	return nil
}

// selectNth returns the element of rank k (0-based) of a in (x, y) order,
// reordering a as it goes: quickselect, linear on the y-ordered (so, in x,
// shuffled) buckets gather feeds it.
func selectNth(a []geom.Point, k int) geom.Point {
	for lo, hi := 0, len(a)-1; lo < hi; {
		pivot, i, j := a[(lo+hi)/2], lo, hi
		for i <= j {
			for a[i].Less(pivot) {
				i++
			}
			for pivot.Less(a[j]) {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i, j = i+1, j-1
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return a[k]
}

// All returns every live point. Cost: O(n/B·α/(α−1) + 1) I/Os.
func (s *Struct) All() ([]geom.Point, error) {
	sc := s.borrow()
	defer s.release(sc)
	view, err := s.loadCatalog(sc)
	if err != nil {
		return nil, err
	}
	sc.attachRebuildMem()
	defer sc.detachRebuildMem()
	if err := s.gather(sc, view.decode(&sc.cat)); err != nil {
		return nil, err
	}
	return slices.Clone(sc.work.Pts), nil
}

// Len returns the number of live points (reads only the catalog, which
// records per-block counts, but must reconcile tombstones against the base
// partition; tombstone points are always base points, so Len is exact).
func (s *Struct) Len() (int, error) {
	sc := s.borrow()
	defer s.release(sc)
	cat, err := s.loadCatalog(sc)
	if err != nil {
		return 0, err
	}
	n := 0
	for i := 0; i < cat.nb; i++ {
		if m := cat.block(i); m.initial {
			n += int(m.count)
		}
	}
	return n - cat.nd + cat.ni, nil
}

// MaxY returns the live point with the largest y-coordinate (ties broken
// toward larger x). The boolean is false if the structure is empty.
// Cost: O(1) I/Os amortized — extra block reads are charged to the
// tombstones that caused them.
func (s *Struct) MaxY() (geom.Point, bool, error) {
	sc := s.borrow()
	defer s.release(sc)
	cat, err := s.loadCatalog(sc)
	if err != nil {
		return geom.Point{}, false, err
	}
	var best geom.Point
	found := false
	better := func(p geom.Point) bool {
		return !found || p.Y > best.Y || (p.Y == best.Y && p.X > best.X)
	}
	for i := 0; i < cat.ni; i++ {
		if p := cat.ins(i); better(p) {
			best, found = p, true
		}
	}
	// The tombstones in (y, x) order, searched for each point the scan
	// below meets: a refill pulls the tops out one at a time and leaves
	// each one's tombstone at the top of its blocks, so it meets many.
	dead := slices.Grow(sc.dead[:0], cat.nd)
	for i := 0; i < cat.nd; i++ {
		dead = append(dead, cat.del(i))
	}
	slices.SortFunc(dead, geom.Point.CompareY)
	sc.dead = dead
	// Visit blocks in decreasing topY until the bound says stop. The
	// catalog is small (O(B) entries), so selection is done in memory:
	// insertion sort, stable like the catalog order it starts from.
	order := sc.order[:0]
	for i := 0; i < cat.nb; i++ {
		order = append(order, int32(i))
		for j := i; j > 0 && cat.topY(int(order[j])) > cat.topY(int(order[j-1])); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	sc.order = order
	for _, bi := range order {
		m := cat.block(int(bi))
		// Strict: a block with topY == best.Y may still hold an equal-y
		// point with a larger x, which wins the tiebreak.
		if found && best.Y > m.topY {
			break
		}
		// Only blocks that can hold live points matter: a block's stored
		// points are live at threshold c only while the block is active;
		// for "current maximum" we want points live right now, i.e. at
		// every threshold — every stored non-tombstoned point is a copy of
		// a live point, so any copy is a valid answer.
		if err := s.readBlock(sc, &m); err != nil {
			return best, found, err
		}
		// Contents ascend in (y, x), the order better compares in: the
		// first live point from the top is the block's best, and once a
		// point is no better than best, nothing below it is.
		for j := int(m.count) - 1; j >= 0; j-- {
			p := eio.GetPoint(sc.page, j*eio.PointSize)
			if !better(p) {
				break
			}
			if _, isDead := slices.BinarySearchFunc(dead, p, geom.Point.CompareY); !isDead {
				best, found = p, true
				break
			}
		}
	}
	return best, found, nil
}

// rebuild reconstructs the scheme from the live set and resets the buffer.
// On return cat (which is &sc.cat) is the new catalog, as written.
func (s *Struct) rebuild(sc *Scratch, cat *catalogData) error {
	sc.attachRebuildMem()
	defer sc.detachRebuildMem()
	if err := s.gather(sc, cat); err != nil {
		return err
	}
	// Shadow-paging order: write the new blocks and commit the catalog
	// that references them before freeing the old blocks. A failure at any
	// point leaves a readable structure (at worst leaking the new blocks).
	ncat, err := s.writeScheme(sc)
	if err != nil {
		return err
	}
	if err := s.storeCatalog(sc, ncat); err != nil {
		return err
	}
	for i := range cat.blocks {
		if err := s.store.Free(cat.blocks[i].page); err != nil {
			return fmt.Errorf("smallstruct: free old block: %w", err)
		}
	}
	sc.cat.blocks = append(sc.cat.blocks[:0], ncat.blocks...)
	sc.cat.ins, sc.cat.dels = sc.cat.ins[:0], sc.cat.dels[:0]
	return nil
}

// Rebuild forces an immediate rebuild (used by tests and by the priority
// search tree after bulk manipulation).
func (s *Struct) Rebuild() error {
	sc := s.borrow()
	defer s.release(sc)
	view, err := s.loadCatalog(sc)
	if err != nil {
		return err
	}
	return s.rebuild(sc, view.decode(&sc.cat))
}

// Destroy frees every page owned by the structure, including the catalog.
// The handle must not be used afterwards.
func (s *Struct) Destroy() error {
	sc := s.borrow()
	defer s.release(sc)
	cat, err := s.loadCatalog(sc)
	if err != nil {
		return err
	}
	for i := 0; i < cat.nb; i++ {
		if err := s.store.Free(cat.block(i).page); err != nil {
			return err
		}
	}
	sc.Reset()
	return s.rs.Delete(s.catalog)
}

// Blocks returns the number of index blocks currently allocated.
func (s *Struct) Blocks() (int, error) {
	sc := s.borrow()
	defer s.release(sc)
	cat, err := s.loadCatalog(sc)
	return cat.nb, err
}

// CatalogPages returns the number of pages the catalog record occupies —
// the "O(1) catalog blocks" of Lemma 1.
func (s *Struct) CatalogPages() (int, error) {
	sc := s.borrow()
	defer s.release(sc)
	cat, err := s.loadCatalog(sc)
	if err != nil {
		return 0, err
	}
	return s.rs.PagesFor(len(cat.raw)), nil
}

// Catalog record layout: three uint32 counts (blocks, buffered insertions,
// buffered deletions), then the block entries, then the two point lists.
const catalogHdrSize = 12

// encodeCatalog appends the serialized catalog to dst.
func encodeCatalog(dst []byte, cat *catalogData) []byte {
	off := len(dst)
	n := catalogHdrSize + blockMetaSize*len(cat.blocks) + eio.PointSize*(len(cat.ins)+len(cat.dels))
	dst = slices.Grow(dst, n)[:off+n]
	out := dst[off:] // every byte of it is written below
	binary.LittleEndian.PutUint32(out[0:], uint32(len(cat.blocks)))
	binary.LittleEndian.PutUint32(out[4:], uint32(len(cat.ins)))
	binary.LittleEndian.PutUint32(out[8:], uint32(len(cat.dels)))
	off = catalogHdrSize
	for i := range cat.blocks {
		m := &cat.blocks[i]
		binary.LittleEndian.PutUint64(out[off:], uint64(m.page))
		binary.LittleEndian.PutUint32(out[off+8:], uint32(m.count))
		var flags uint32
		if m.initial {
			flags |= 1
		}
		if m.retiredAt {
			flags |= 2
		}
		binary.LittleEndian.PutUint32(out[off+12:], flags)
		binary.LittleEndian.PutUint64(out[off+16:], uint64(m.xlo))
		binary.LittleEndian.PutUint64(out[off+24:], uint64(m.xhi))
		binary.LittleEndian.PutUint64(out[off+32:], uint64(m.yact))
		binary.LittleEndian.PutUint64(out[off+40:], uint64(m.yret))
		binary.LittleEndian.PutUint64(out[off+48:], uint64(m.topY))
		off += blockMetaSize
	}
	for _, p := range cat.ins {
		eio.PutPoint(out, off, p)
		off += eio.PointSize
	}
	for _, p := range cat.dels {
		eio.PutPoint(out, off, p)
		off += eio.PointSize
	}
	return dst
}

// catalogView reads a catalog record in place: block(i), ins(i) and del(i)
// decode one entry from the record bytes on demand, so reading a catalog
// allocates nothing. A view is valid as long as the bytes it was made from.
type catalogView struct {
	raw        []byte
	nb, ni, nd int // block entries, buffered insertions, buffered deletions
}

// viewCatalog validates raw's framing and returns a view of it.
func viewCatalog(raw []byte) (catalogView, error) {
	if len(raw) < catalogHdrSize {
		return catalogView{}, fmt.Errorf("smallstruct: catalog too short (%d bytes)", len(raw))
	}
	c := catalogView{
		raw: raw,
		nb:  int(binary.LittleEndian.Uint32(raw[0:])),
		ni:  int(binary.LittleEndian.Uint32(raw[4:])),
		nd:  int(binary.LittleEndian.Uint32(raw[8:])),
	}
	if want := catalogHdrSize + blockMetaSize*c.nb + eio.PointSize*(c.ni+c.nd); len(raw) != want {
		return catalogView{}, fmt.Errorf("smallstruct: catalog length %d, want %d", len(raw), want)
	}
	return c, nil
}

// block decodes block entry i.
func (c catalogView) block(i int) blockMeta {
	e := c.raw[catalogHdrSize+i*blockMetaSize:][:blockMetaSize]
	flags := binary.LittleEndian.Uint32(e[12:])
	return blockMeta{
		page:      eio.PageID(binary.LittleEndian.Uint64(e[0:])),
		count:     int32(binary.LittleEndian.Uint32(e[8:])),
		initial:   flags&1 != 0,
		retiredAt: flags&2 != 0,
		xlo:       int64(binary.LittleEndian.Uint64(e[16:])),
		xhi:       int64(binary.LittleEndian.Uint64(e[24:])),
		yact:      int64(binary.LittleEndian.Uint64(e[32:])),
		yret:      int64(binary.LittleEndian.Uint64(e[40:])),
		topY:      int64(binary.LittleEndian.Uint64(e[48:])),
	}
}

// topY is block(i).topY without decoding the rest of the entry.
func (c catalogView) topY(i int) int64 {
	return int64(binary.LittleEndian.Uint64(c.raw[catalogHdrSize+i*blockMetaSize+48:]))
}

// ins returns buffered insertion i.
func (c catalogView) ins(i int) geom.Point {
	return eio.GetPoint(c.raw, catalogHdrSize+c.nb*blockMetaSize+i*eio.PointSize)
}

// del returns buffered deletion (tombstone) i.
func (c catalogView) del(i int) geom.Point {
	return eio.GetPoint(c.raw, catalogHdrSize+c.nb*blockMetaSize+(c.ni+i)*eio.PointSize)
}

// isDead reports whether p is tombstoned.
func (c catalogView) isDead(p geom.Point) bool {
	for i := 0; i < c.nd; i++ {
		if c.del(i) == p {
			return true
		}
	}
	return false
}

// decode copies the catalog out of the record bytes into cat, reusing
// cat's slices, and returns cat: the mutable form the update path edits
// and re-encodes.
func (c catalogView) decode(cat *catalogData) *catalogData {
	cat.blocks, cat.ins, cat.dels = cat.blocks[:0], cat.ins[:0], cat.dels[:0]
	for i := 0; i < c.nb; i++ {
		cat.blocks = append(cat.blocks, c.block(i))
	}
	for i := 0; i < c.ni; i++ {
		cat.ins = append(cat.ins, c.ins(i))
	}
	for i := 0; i < c.nd; i++ {
		cat.dels = append(cat.dels, c.del(i))
	}
	return cat
}
