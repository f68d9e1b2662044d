package epst

import (
	"fmt"
	"slices"

	"rangesearch/internal/geom"
	"rangesearch/internal/smallstruct"
)

// Run is a sequence of updates applied as one operation; see Tree.Run.
type Run struct {
	t         *Tree
	sc        *scratch
	m         meta
	metaDirty bool // m differs from the header record
	held      int  // sc.nodes[:held] is the last update's search path, root first
	// shared is set for the rest of an insert that split: its node
	// structures work in sc.small, which the split left warm, and write
	// each edit at once, as a lone insert's always did.
	shared bool
}

// Run applies the updates fn makes through r as one operation in one
// scratch. Any sequence of updates may be run; a point-sorted one gains
// most:
//
//   - the header is read once and written once;
//   - each update descends only below the deepest node its search path
//     shares with the previous update's, whose nodes stay decoded in
//     between;
//   - a held internal node keeps the Y-sets it has fetched for its
//     children and queues the edits against its Q_v, with the catalog
//     loaded in a scratch of its own;
//   - a held node is written back, deepest first, its queued edits in one
//     catalog write, when an update leaves it or when the run ends.
//
// Every Q_v receives its edits in the order single updates would make them
// (smallstruct.Struct.Apply keeps the buffer contents and the rebuild
// moments of one edit at a time), so the tree a run leaves is exactly the
// one the same updates applied one by one leave; only the I/O differs. A
// split, a refill by bubble-up and a global rebuild write out what the run
// holds first and then proceed as a single update does.
//
// An update's own outcome (ErrDuplicate, an absent delete) leaves the run
// intact. An error fn returns ends the run: Run returns it and writes
// nothing more, leaving the store as a failed single update leaves it,
// which a transaction rolls back. Insert and Delete are runs of one. r is
// valid only inside fn.
func (t *Tree) Run(fn func(r *Run) error) error {
	sc := runPool.Get().(*scratch)
	defer putScratchTo(runPool, sc)
	r := &sc.run
	*r = Run{t: t, sc: sc}
	var err error
	if r.m, err = t.loadMeta(sc); err != nil {
		return err
	}
	if err := fn(r); err != nil {
		return err
	}
	if err := r.settleFrom(0); err != nil {
		return err
	}
	if !r.metaDirty {
		return nil
	}
	return t.storeMeta(sc, &r.m)
}

// Insert adds p in O(log_B N) amortized I/Os (Section 3.3.2): the key
// enters the weight-balanced base tree (splitting nodes and reorganizing
// their auxiliary structures as needed), then the point trickles down
// through Y-sets to its proper depth. It is a run of one; see Run.Insert.
func (t *Tree) Insert(p geom.Point) error {
	return t.Run(func(r *Run) error { return r.Insert(p) })
}

// Delete removes p, reporting whether it was present. The point is removed
// wherever it lives (a Y-set along the path or the leaf), the depleted
// Y-set is refilled by a bubble-up, the key leaves the base tree, and a
// global rebuild runs once the live count halves (Section 3.3.2). It is a
// run of one; see Run.Delete.
func (t *Tree) Delete(p geom.Point) (found bool, err error) {
	err = t.Run(func(r *Run) error {
		var e error
		found, e = r.Delete(p)
		return e
	})
	return found, err
}

// Insert adds p to the run's tree. It is one descent: the search path,
// as far as the previous update did not leave decoded, is read and decoded
// once; the duplicate check, the key insertion, the weight and maxKey
// maintenance and the trickle edit that loaded path. Only a split re-reads
// (see splitPath); the nodes a trickle reads off the path are written back
// before Insert returns.
func (r *Run) Insert(p geom.Point) error {
	t, sc := r.t, r.sc
	path, err := r.descend(p)
	if err != nil {
		return err
	}
	leaf := path[len(path)-1]
	pos := lowerBoundKey(leaf, p)
	if pos < len(leaf.keys) && leaf.keys[pos].p == p {
		return fmt.Errorf("epst: insert %v: %w", p, ErrDuplicate)
	}
	// The key enters its leaf "absorbed above"; the trickle sets the flag
	// if the point comes to rest there.
	leaf.keys = slices.Insert(leaf.keys, pos, keyEntry{p: p})
	leaf.dirty = true
	split := len(leaf.keys) >= 2*t.k
	for _, n := range path[:len(path)-1] {
		e := &n.entries[n.idx]
		e.weight++
		if e.maxKey.Less(p) {
			e.maxKey = p
		}
		n.dirty = true
		split = split || nodeWeight(n) >= 2*t.levelCap(n.level)
	}
	if split {
		// The split moves keys, Y-sets and maybe the root: write the queued
		// edits, then the path through the split, and load the new path
		// for the trickle.
		for _, n := range path {
			if err := r.settleEdits(n); err != nil {
				return err
			}
		}
		sc.small.Reset() // held nodes may have rewritten what it holds
		if err := t.splitPath(sc, &r.m, path); err != nil {
			return err
		}
		r.release(0)
		r.shared = true
		if path, err = r.descend(p); err != nil {
			return err
		}
	}
	if err := r.trickle(path, p); err != nil {
		return err
	}
	r.shared = false
	if err := r.settleFrom(r.held); err != nil {
		return err
	}
	r.m.live++
	if r.m.live > r.m.basis {
		r.m.basis = r.m.live
	}
	r.metaDirty = true
	return nil
}

// Delete removes p from the run's tree, reporting whether it was present.
// Like Insert it is one descent: the path is loaded as far as it is not
// held — then, at each internal node until the point is found, the Y-set
// it would be in is looked into — and edited in memory. Only a bubble-up
// re-reads, after the nodes below it are written, so it sees (and
// rewrites) their new contents, not a stale path copy.
func (r *Run) Delete(p geom.Point) (bool, error) {
	t, sc := r.t, r.sc
	path, err := r.descend(p)
	if err != nil {
		return false, err
	}
	inner, leaf := path[:len(path)-1], path[len(path)-1]
	var holder *node // the node whose Q stores p, if one does
	var hy *yset     // and the Y-set p is in
	for _, n := range inner {
		y, err := r.ySet(n, n.idx)
		if err != nil {
			return false, err
		}
		if slices.Contains(y.pts, p) {
			holder, hy = n, y
			break
		}
	}
	pos := lowerBoundKey(leaf, p)
	if pos >= len(leaf.keys) || leaf.keys[pos].p != p {
		if holder != nil {
			return false, fmt.Errorf("epst: delete: %v is stored but has no key", p)
		}
		return false, nil
	}
	leaf.keys = slices.Delete(leaf.keys, pos, pos+1)
	leaf.dirty = true
	for _, n := range inner {
		n.entries[n.idx].weight--
		n.dirty = true
	}
	r.m.live--
	r.metaDirty = true

	if holder != nil {
		e := &holder.entries[holder.idx]
		j := slices.Index(hy.pts, p)
		hy.pts = slices.Delete(hy.pts, j, j+1)
		e.ysize--
		if 2*int(e.ysize) < t.b {
			if err := r.bubble(holder, p); err != nil {
				return false, err
			}
		} else if err := r.edit(holder, smallstruct.Edit{P: p, Del: true}); err != nil {
			return false, err
		}
	}
	if r.m.live*2 < r.m.basis {
		if err := r.settleFrom(0); err != nil {
			return false, err
		}
		sc.small.Reset()
		if err := t.rebuild(sc, &r.m); err != nil {
			return false, err
		}
		r.metaDirty = false // rebuild stored the header
	}
	return true, nil
}

// descend makes the held path p's search path, root first, leaf last, and
// returns it. The held nodes p's search shares stay as they are; the rest
// are written back, deepest first, and released; the nodes below are read
// and decoded. Every internal node on the path knows in idx which child
// the path takes.
func (r *Run) descend(p geom.Point) ([]*node, error) {
	sc := r.sc
	keep := min(r.held, 1) // the root is on every search path
	for keep < r.held && routeChild(sc.nodes[keep-1], p) == sc.nodes[keep-1].idx {
		keep++
	}
	if err := r.settleFrom(keep); err != nil {
		return nil, err
	}
	id := r.m.root
	if keep > 0 {
		n := sc.nodes[keep-1]
		if n.level == 0 {
			return sc.nodes[:keep], nil
		}
		n.idx = routeChild(n, p)
		id = n.entries[n.idx].child
	}
	for {
		n, err := r.t.readNode(sc, id)
		if err != nil {
			return nil, err
		}
		if n.level == 0 {
			break
		}
		n.idx = routeChild(n, p)
		id = n.entries[n.idx].child
	}
	r.held = sc.used
	return sc.nodes[:r.held], nil
}

// settleFrom writes back the held nodes from slot mark on, deepest (last
// read) first, and releases them.
func (r *Run) settleFrom(mark int) error {
	for i := r.sc.used - 1; i >= mark; i-- {
		if err := r.settle(r.sc.nodes[i]); err != nil {
			return err
		}
	}
	r.release(mark)
	return nil
}

func (r *Run) release(mark int) {
	r.sc.release(mark)
	r.held = min(r.held, mark)
}

// trickle moves point p down from the root into its proper Y-set or leaf
// (the recursive procedure at the start of Section 3.3.2). path is p's
// search path, already loaded: the walk stays on it while the point in hand
// is p and may leave it, reading the nodes it then visits, once a full
// Y-set has passed an evicted point down instead. The Y-set fetched to
// decide where the point goes is all of Q_v in the child's key range, so
// the insertion that follows needs no membership probe.
func (r *Run) trickle(path []*node, p geom.Point) error {
	t := r.t
	n := path[0]
	for depth := 0; ; depth++ {
		if n.level == 0 {
			i := lowerBoundKey(n, p)
			if i >= len(n.keys) || n.keys[i].p != p {
				return fmt.Errorf("epst: place: key %v missing from leaf", p)
			}
			n.keys[i].here = true
			n.dirty = true
			return nil
		}
		i := routeChild(n, p)
		e := &n.entries[i]
		y, err := r.ySet(n, i)
		if err != nil {
			return err
		}
		switch {
		case len(y.pts) >= t.yHalf() && belowAll(p, y.pts):
			// Y(v_i) is healthy and p lies below it: p belongs deeper.
		case int(e.ysize) < t.b:
			// p joins Y(v_i).
			e.ysize++
			n.dirty = true
			y.pts = append(y.pts, p)
			return r.edit(n, smallstruct.Edit{P: p})
		default:
			// p joins a full Y(v_i): its lowest point is evicted and
			// trickles into the child in p's place.
			low := 0
			for j := range y.pts {
				if y.pts[j].YLess(y.pts[low]) {
					low = j
				}
			}
			out := y.pts[low]
			y.pts[low] = p
			if err := r.edit(n, smallstruct.Edit{P: p}, smallstruct.Edit{P: out, Del: true}); err != nil {
				return err
			}
			p = out
		}
		if depth+1 < len(path) && path[depth+1].id == e.child {
			n = path[depth+1]
		} else if n, err = t.readNode(r.sc, e.child); err != nil {
			return err
		}
	}
}

// ySet returns Y(child i) of held node n: fetched from Q_v the first time
// the run asks for it, then kept with the run's edits applied to it. A
// fetch is exact although Q_v on the store lacks the queued edits: every
// queued edit lies in the range of a child whose Y-set is already kept.
func (r *Run) ySet(n *node, i int) (*yset, error) {
	for k := len(n.ys) - 1; k >= 0; k-- {
		if n.ys[k].child == i {
			return &n.ys[k], nil
		}
	}
	if len(n.ys) < cap(n.ys) {
		n.ys = n.ys[:len(n.ys)+1]
	} else {
		n.ys = append(n.ys, yset{})
	}
	y := &n.ys[len(n.ys)-1]
	q := r.q(n)
	pts, err := r.t.ySet(y.pts, &q, n, i)
	if err != nil {
		n.ys = n.ys[:len(n.ys)-1]
		return nil, err
	}
	y.child, y.pts = i, pts
	return y, nil
}

// q returns held node n's Q_v, working in n's own scratch, or in the
// shared one for the rest of an insert that split.
func (r *Run) q(n *node) smallstruct.Struct {
	ss := &n.small
	if r.shared {
		ss = &r.sc.small
	}
	return smallstruct.OpenScratch(r.t.store, n.q, r.t.alpha, ss)
}

// edit queues edits against n's Q_v. In the shared scratch they are
// written at once, while it still holds n's catalog.
func (r *Run) edit(n *node, edits ...smallstruct.Edit) error {
	n.edits = append(n.edits, edits...)
	if !r.shared {
		return nil
	}
	return r.settleEdits(n)
}

// settleEdits writes the edits queued against n's Q_v in one catalog
// write, in the scratch that fetched n's Y-sets.
func (r *Run) settleEdits(n *node) error {
	if len(n.edits) == 0 {
		return nil
	}
	q := r.q(n)
	err := q.Apply(n.edits...)
	n.edits = n.edits[:0]
	return err
}

// settle writes back what the run changed of a node it holds: the queued
// edits, then the record if it changed.
func (r *Run) settle(n *node) error {
	if err := r.settleEdits(n); err != nil {
		return err
	}
	if !n.dirty {
		return nil
	}
	return r.t.writeBack(r.sc, n)
}

// bubble removes p from holder's Y-set and refills the set by a bubble-up
// from below, which reads the nodes under the holder: so everything the
// run holds is written back first, deepest first, as a single delete does,
// and let go after, since nothing it held below the holder is current.
// The holder's edits, the bubble-up and the refill work in the holder's
// scratch, where its catalog is loaded.
func (r *Run) bubble(holder *node, p geom.Point) error {
	t, sc := r.t, r.sc
	holder.edits = append(holder.edits, smallstruct.Edit{P: p, Del: true})
	for i := sc.used - 1; i >= 0; i-- {
		n := sc.nodes[i]
		if n != holder {
			if err := r.settle(n); err != nil {
				return err
			}
			continue
		}
		if err := r.settleEdits(n); err != nil {
			return err
		}
		e := &n.entries[n.idx]
		top, ok, err := t.extractTop(sc, &n.small, e.child)
		if err != nil {
			return err
		}
		if ok {
			q := smallstruct.OpenScratch(t.store, n.q, t.alpha, &n.small)
			if err := q.Add(top); err != nil {
				return err
			}
			e.ysize++
		}
		if err := t.writeBack(sc, n); err != nil {
			return err
		}
	}
	r.release(0)
	return nil
}
