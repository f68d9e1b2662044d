package interval

import (
	"encoding/binary"
	"fmt"
	"sort"

	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
	"rangesearch/internal/smallstruct"
)

// SlabTree is the external interval tree of Arge & Vitter — the structure
// Section 4 of the paper cites for stabbing queries — in its static,
// bulk-built form: a fan-out-√B base tree over the (multiset of) interval
// endpoints in which every interval is stored at the highest node where it
// crosses a slab boundary:
//
//   - in the *left slab list* L_i of the slab holding its left endpoint,
//     sorted ascending by left endpoint (a stab in slab i reports the
//     prefix with lo ≤ q);
//   - in the *right slab list* R_j of the slab holding its right endpoint,
//     sorted descending by right endpoint (prefix with hi ≥ q);
//   - and, when it completely spans slabs i+1..j−1, in the *multislab
//     list* M_{i,j} — unless that multislab holds fewer than B/2
//     intervals, in which case the interval is stored only in the node's
//     *underflow structure*: a Lemma-1 small structure queried through the
//     stabbing ≡ diagonal-corner reduction. The underflow structure holds
//     at most √B·(√B−1)/2 · B/2 < B²/4 intervals, within its Θ(B²) design
//     point — the same reuse of the Section 2 indexing scheme that the
//     paper's own data structures make.
//
// A stabbing query descends one root-to-leaf path; at each node it scans
// two list prefixes, the whole of every spanned multislab (each ≥ B/2
// intervals, so paid for by output), and the underflow structure:
// O(log_B N + t) I/Os in total. Every interval is reported exactly once.
//
// SlabTree is immutable after Build; the dynamic Set (diagonal-corner
// priority search tree) is the updatable implementation. The benchmark
// suite compares the two on identical workloads.
type SlabTree struct {
	store eio.Store
	rs    *eio.RecordStore
	root  eio.PageID
	b     int
	s     int // fan-out
	n     int
}

// slabNode is the decoded form of a slab-tree node.
type slabNode struct {
	leaf     bool
	seps     []int64      // s-1 separators; slab i = (seps[i-1], seps[i]]
	children []eio.PageID // s children (internal nodes only)
	// Leaf payload.
	leafIvs []geom.Interval
	// Internal payload, per slab.
	left  []blockList // L_i ascending by lo
	right []blockList // R_j descending by hi
	multi []multiList
	under eio.PageID // smallstruct catalog (NilPage if empty)
}

// blockList is a sequence of point-block pages holding intervals (as
// (lo, hi) points) in list order.
type blockList struct {
	pages []eio.PageID
	count int
}

type multiList struct {
	i, j int
	list blockList
}

// BuildSlabTree bulk-builds a static slab tree over ivs (distinct, valid).
func BuildSlabTree(store eio.Store, ivs []geom.Interval) (*SlabTree, error) {
	b := eio.BlockCapacity(store.PageSize())
	if b < 4 {
		return nil, fmt.Errorf("interval: page size %d too small for a slab tree", store.PageSize())
	}
	s := 2
	for (s+1)*(s+1) <= b {
		s++
	}
	t := &SlabTree{store: store, rs: eio.NewRecordStore(store), b: b, s: s, n: len(ivs)}
	seen := make(map[geom.Interval]bool, len(ivs))
	for _, iv := range ivs {
		if err := validate(iv); err != nil {
			return nil, err
		}
		if seen[iv] {
			return nil, fmt.Errorf("interval: %v: %w", iv, ErrDuplicate)
		}
		seen[iv] = true
	}
	// Endpoint multiset, sorted.
	endpoints := make([]int64, 0, 2*len(ivs))
	for _, iv := range ivs {
		endpoints = append(endpoints, iv.Lo, iv.Hi)
	}
	sort.Slice(endpoints, func(i, j int) bool { return endpoints[i] < endpoints[j] })
	sorted := append([]geom.Interval(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Lo != sorted[j].Lo {
			return sorted[i].Lo < sorted[j].Lo
		}
		return sorted[i].Hi < sorted[j].Hi
	})
	root, err := t.build(endpoints, sorted)
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

// build writes the subtree over the given endpoint multiset and the
// intervals assigned below this node, returning the node's record id.
func (t *SlabTree) build(endpoints []int64, ivs []geom.Interval) (eio.PageID, error) {
	if len(endpoints) <= t.b {
		// Leaf: at most B endpoint occurrences ⇒ at most B/2 intervals.
		n := &slabNode{leaf: true, leafIvs: ivs}
		return t.writeNode(n)
	}
	// Choose s−1 separators at equal endpoint-count positions, skipping
	// duplicates. A separator equal to the maximum endpoint would leave
	// the last slab empty and stall the recursion under heavy value
	// duplication, so separators must be strictly below the maximum —
	// then every slab receives strictly fewer endpoints than the node.
	n := &slabNode{}
	maxEnd := endpoints[len(endpoints)-1]
	for i := 1; i < t.s; i++ {
		sep := endpoints[i*len(endpoints)/t.s]
		if sep >= maxEnd {
			continue
		}
		if len(n.seps) == 0 || sep > n.seps[len(n.seps)-1] {
			n.seps = append(n.seps, sep)
		}
	}
	if len(n.seps) == 0 {
		// All endpoints equal: nothing can cross; make a leaf.
		n.leaf = true
		n.leafIvs = ivs
		return t.writeNode(n)
	}
	nslabs := len(n.seps) + 1

	// Partition: crossing intervals stay here, others go to their slab.
	childIvs := make([][]geom.Interval, nslabs)
	childEnds := make([][]int64, nslabs)
	for _, e := range endpoints {
		childEnds[t.slabOf(n, e)] = append(childEnds[t.slabOf(n, e)], e)
	}
	type slabbed struct {
		iv   geom.Interval
		i, j int
	}
	var here []slabbed
	for _, iv := range ivs {
		i := t.slabOf(n, iv.Lo)
		j := t.slabOf(n, iv.Hi)
		if i == j {
			childIvs[i] = append(childIvs[i], iv)
			continue
		}
		here = append(here, slabbed{iv, i, j})
	}

	// Group crossing intervals into multislabs and the underflow set.
	bySpan := map[[2]int][]geom.Interval{}
	for _, sb := range here {
		if sb.j >= sb.i+2 {
			key := [2]int{sb.i, sb.j}
			bySpan[key] = append(bySpan[key], sb.iv)
		}
	}
	var underIvs []geom.Interval
	small := map[[2]int]bool{}
	for key, list := range bySpan {
		if len(list) < t.b/2 {
			small[key] = true
			underIvs = append(underIvs, list...)
		}
	}

	// Left/right lists per slab (excluding underflow intervals).
	lefts := make([][]geom.Interval, nslabs)
	rights := make([][]geom.Interval, nslabs)
	for _, sb := range here {
		if sb.j >= sb.i+2 && small[[2]int{sb.i, sb.j}] {
			continue // stored only in the underflow structure
		}
		lefts[sb.i] = append(lefts[sb.i], sb.iv)
		rights[sb.j] = append(rights[sb.j], sb.iv)
	}
	n.left = make([]blockList, nslabs)
	n.right = make([]blockList, nslabs)
	for i := 0; i < nslabs; i++ {
		sort.Slice(lefts[i], func(a, b int) bool { return lefts[i][a].Lo < lefts[i][b].Lo })
		sort.Slice(rights[i], func(a, b int) bool { return rights[i][a].Hi > rights[i][b].Hi })
		var err error
		if n.left[i], err = t.writeList(lefts[i]); err != nil {
			return eio.NilPage, err
		}
		if n.right[i], err = t.writeList(rights[i]); err != nil {
			return eio.NilPage, err
		}
	}
	// Multislab lists (the large ones).
	keys := make([][2]int, 0, len(bySpan))
	for key := range bySpan {
		if !small[key] {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	for _, key := range keys {
		bl, err := t.writeList(bySpan[key])
		if err != nil {
			return eio.NilPage, err
		}
		n.multi = append(n.multi, multiList{i: key[0], j: key[1], list: bl})
	}
	// Underflow structure.
	if len(underIvs) > 0 {
		pts := make([]geom.Point, len(underIvs))
		for i, iv := range underIvs {
			pts[i] = iv.Point()
		}
		us, err := smallstruct.Create(t.store, 0, pts)
		if err != nil {
			return eio.NilPage, err
		}
		n.under = us.CatalogID()
	}

	// Children.
	n.children = make([]eio.PageID, nslabs)
	for i := 0; i < nslabs; i++ {
		id, err := t.build(childEnds[i], childIvs[i])
		if err != nil {
			return eio.NilPage, err
		}
		n.children[i] = id
	}
	return t.writeNode(n)
}

// slabOf returns the slab index of value v at node n:
// slab i covers (seps[i-1], seps[i]], the last slab is open above.
func (t *SlabTree) slabOf(n *slabNode, v int64) int {
	for i, sep := range n.seps {
		if v <= sep {
			return i
		}
	}
	return len(n.seps)
}

// writeList packs intervals into point-block pages in order.
func (t *SlabTree) writeList(ivs []geom.Interval) (blockList, error) {
	bl := blockList{count: len(ivs)}
	for lo := 0; lo < len(ivs); lo += t.b {
		hi := min(lo+t.b, len(ivs))
		pts := make([]geom.Point, hi-lo)
		for i := lo; i < hi; i++ {
			pts[i-lo] = ivs[i].Point()
		}
		id, err := eio.WritePointBlock(t.store, eio.NilPage, pts)
		if err != nil {
			return bl, err
		}
		bl.pages = append(bl.pages, id)
	}
	return bl, nil
}

// readListPage reads page k of bl, returning its intervals.
func (t *SlabTree) readListPage(bl blockList, k int) ([]geom.Interval, error) {
	cnt := t.b
	if k == len(bl.pages)-1 {
		cnt = bl.count - k*t.b
	}
	if cnt < 0 || cnt > t.b {
		return nil, fmt.Errorf("interval: list page %d holds %d intervals (block capacity %d)", k, cnt, t.b)
	}
	page := make([]byte, t.store.PageSize())
	if err := t.store.Read(bl.pages[k], page); err != nil {
		return nil, err
	}
	out := make([]geom.Interval, cnt)
	for i := range out {
		out[i] = geom.IntervalFromPoint(eio.GetPoint(page, i*eio.PointSize))
	}
	return out, nil
}

// Stab appends every interval containing q to dst.
func (t *SlabTree) Stab(dst []geom.Interval, q int64) ([]geom.Interval, error) {
	return t.stab(t.root, dst, q)
}

func (t *SlabTree) stab(id eio.PageID, dst []geom.Interval, q int64) ([]geom.Interval, error) {
	n, err := t.readNode(id)
	if err != nil {
		return dst, err
	}
	if n.leaf {
		for _, iv := range n.leafIvs {
			if iv.Contains(q) {
				dst = append(dst, iv)
			}
		}
		return dst, nil
	}
	k := t.slabOf(n, q)
	// Left list of q's slab: ascending by lo, prefix with lo ≤ q.
	for pg := 0; pg < len(n.left[k].pages); pg++ {
		ivs, err := t.readListPage(n.left[k], pg)
		if err != nil {
			return dst, err
		}
		stop := false
		for _, iv := range ivs {
			if iv.Lo > q {
				stop = true
				break
			}
			if iv.Contains(q) { // guards the k == i boundary case
				dst = append(dst, iv)
			}
		}
		if stop {
			break
		}
	}
	// Right list: descending by hi, prefix with hi ≥ q.
	for pg := 0; pg < len(n.right[k].pages); pg++ {
		ivs, err := t.readListPage(n.right[k], pg)
		if err != nil {
			return dst, err
		}
		stop := false
		for _, iv := range ivs {
			if iv.Hi < q {
				stop = true
				break
			}
			if iv.Contains(q) {
				dst = append(dst, iv)
			}
		}
		if stop {
			break
		}
	}
	// Spanning multislabs: fully reported.
	for _, m := range n.multi {
		if m.i < k && k < m.j {
			for pg := 0; pg < len(m.list.pages); pg++ {
				ivs, err := t.readListPage(m.list, pg)
				if err != nil {
					return dst, err
				}
				dst = append(dst, ivs...)
			}
		}
	}
	// Underflow structure: stabbing is the diagonal-corner query.
	if n.under != eio.NilPage {
		us, err := smallstruct.Open(t.store, n.under, 0)
		if err != nil {
			return dst, err
		}
		pts, err := us.Query3(nil, geom.DiagonalCorner(q))
		if err != nil {
			return dst, err
		}
		for _, p := range pts {
			dst = append(dst, geom.IntervalFromPoint(p))
		}
	}
	return t.stab(n.children[k], dst, q)
}

// Len returns the number of stored intervals.
func (t *SlabTree) Len() int { return t.n }

// Fanout returns the slab fan-out √B.
func (t *SlabTree) Fanout() int { return t.s }

// Destroy frees all storage owned by the tree.
func (t *SlabTree) Destroy() error { return t.free(t.root) }

func (t *SlabTree) free(id eio.PageID) error {
	n, err := t.readNode(id)
	if err != nil {
		return err
	}
	if !n.leaf {
		freeList := func(bl blockList) error {
			for _, pg := range bl.pages {
				if err := t.store.Free(pg); err != nil {
					return err
				}
			}
			return nil
		}
		for i := range n.left {
			if err := freeList(n.left[i]); err != nil {
				return err
			}
			if err := freeList(n.right[i]); err != nil {
				return err
			}
		}
		for _, m := range n.multi {
			if err := freeList(m.list); err != nil {
				return err
			}
		}
		if n.under != eio.NilPage {
			us, err := smallstruct.Open(t.store, n.under, 0)
			if err != nil {
				return err
			}
			if err := us.Destroy(); err != nil {
				return err
			}
		}
		for _, c := range n.children {
			if err := t.free(c); err != nil {
				return err
			}
		}
	}
	return t.rs.Delete(id)
}

// --- serialization ---

func (t *SlabTree) writeNode(n *slabNode) (eio.PageID, error) {
	return t.rs.Put(encodeSlabNode(n))
}

func (t *SlabTree) readNode(id eio.PageID) (*slabNode, error) {
	raw, err := t.rs.Get(id, nil)
	if err != nil {
		return nil, fmt.Errorf("interval: read slab node: %w", err)
	}
	return decodeSlabNode(raw)
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func encodeBlockList(out []byte, bl blockList) []byte {
	out = appendU32(out, uint32(bl.count))
	out = appendU32(out, uint32(len(bl.pages)))
	for _, p := range bl.pages {
		out = appendU64(out, uint64(p))
	}
	return out
}

func encodeSlabNode(n *slabNode) []byte {
	var out []byte
	if n.leaf {
		out = appendU32(out, 1)
		out = appendU32(out, uint32(len(n.leafIvs)))
		for _, iv := range n.leafIvs {
			out = appendU64(out, uint64(iv.Lo))
			out = appendU64(out, uint64(iv.Hi))
		}
		return out
	}
	out = appendU32(out, 0)
	out = appendU32(out, uint32(len(n.seps)))
	for _, s := range n.seps {
		out = appendU64(out, uint64(s))
	}
	for _, c := range n.children {
		out = appendU64(out, uint64(c))
	}
	for i := range n.left {
		out = encodeBlockList(out, n.left[i])
		out = encodeBlockList(out, n.right[i])
	}
	out = appendU32(out, uint32(len(n.multi)))
	for _, m := range n.multi {
		out = appendU32(out, uint32(m.i))
		out = appendU32(out, uint32(m.j))
		out = encodeBlockList(out, m.list)
	}
	out = appendU64(out, uint64(n.under))
	return out
}

type slabDecoder struct {
	raw []byte
	off int
	err error
}

func (d *slabDecoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.raw) {
		d.err = fmt.Errorf("interval: truncated slab node")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.raw[d.off:])
	d.off += 4
	return v
}

func (d *slabDecoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.raw) {
		d.err = fmt.Errorf("interval: truncated slab node")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.raw[d.off:])
	d.off += 8
	return v
}

func (d *slabDecoder) blockList() blockList {
	bl := blockList{count: int(d.u32())}
	np := int(d.u32())
	for i := 0; i < np && d.err == nil; i++ {
		bl.pages = append(bl.pages, eio.PageID(d.u64()))
	}
	return bl
}

func decodeSlabNode(raw []byte) (*slabNode, error) {
	d := &slabDecoder{raw: raw}
	n := &slabNode{}
	if d.u32() == 1 {
		n.leaf = true
		cnt := int(d.u32())
		for i := 0; i < cnt && d.err == nil; i++ {
			n.leafIvs = append(n.leafIvs, geom.Interval{Lo: int64(d.u64()), Hi: int64(d.u64())})
		}
		return n, d.err
	}
	nseps := int(d.u32())
	for i := 0; i < nseps && d.err == nil; i++ {
		n.seps = append(n.seps, int64(d.u64()))
	}
	nslabs := nseps + 1
	for i := 0; i < nslabs && d.err == nil; i++ {
		n.children = append(n.children, eio.PageID(d.u64()))
	}
	for i := 0; i < nslabs && d.err == nil; i++ {
		n.left = append(n.left, d.blockList())
		n.right = append(n.right, d.blockList())
	}
	nm := int(d.u32())
	for i := 0; i < nm && d.err == nil; i++ {
		m := multiList{i: int(d.u32()), j: int(d.u32())}
		m.list = d.blockList()
		n.multi = append(n.multi, m)
	}
	n.under = eio.PageID(d.u64())
	return n, d.err
}
