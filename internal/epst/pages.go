package epst

import "rangesearch/internal/eio"

// AppendAllPages appends every page the tree owns — the header record,
// every node record, and each internal node's small-structure pages — to
// dst and returns the extended slice. It is the tree's contribution to the
// reachability set consumed by eio.FindLeaks and eio.Scrub.
func (t *Tree) AppendAllPages(dst []eio.PageID) ([]eio.PageID, error) {
	dst, err := t.appendRecord(dst, t.hdr)
	if err != nil {
		return nil, err
	}
	sc := getScratch()
	defer putScratch(sc)
	m, err := t.loadMeta(sc)
	if err != nil {
		return nil, err
	}
	return t.appendSubtree(sc, dst, m.root)
}

func (t *Tree) appendRecord(dst []eio.PageID, id eio.PageID) ([]eio.PageID, error) {
	chain, err := t.rs.Chain(id)
	if err != nil {
		return nil, err
	}
	return append(dst, chain...), nil
}

func (t *Tree) appendSubtree(sc *scratch, dst []eio.PageID, id eio.PageID) ([]eio.PageID, error) {
	defer sc.release(sc.used)
	dst, err := t.appendRecord(dst, id)
	if err != nil {
		return nil, err
	}
	n, err := t.readNode(sc, id)
	if err != nil {
		return nil, err
	}
	if n.level == 0 {
		return dst, nil
	}
	q := t.openQ(sc, n.q)
	dst, err = q.AppendAllPages(dst)
	if err != nil {
		return nil, err
	}
	for i := range n.entries {
		dst, err = t.appendSubtree(sc, dst, n.entries[i].child)
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}
