package epst

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
)

// canonicalDump hashes the whole tree in a form that ignores page ids and
// nothing else. Per node, in preorder: level and, for an internal node,
// every child's maxKey, weight and Y-set size followed by Q_v as it lies on
// disk — each block's points in stored order with its catalog metadata,
// then the buffered insertions and the tombstones in buffer order; for a
// leaf, every key with its stored-here flag. It parses the small
// structure's catalog record itself (the format is documented in
// internal/smallstruct and frozen), so it measures what is on the pages,
// not what some accessor makes of it.
func canonicalDump(t *Tree) (string, error) {
	sc := new(scratch)
	m, err := t.loadMeta(sc)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "height=%d live=%d basis=%d\n", m.height, m.live, m.basis)
	if err := dumpNode(t, sc, h, m.root); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func dumpNode(t *Tree, sc *scratch, h hash.Hash, id eio.PageID) error {
	defer sc.release(sc.used)
	n, err := t.readNode(sc, id)
	if err != nil {
		return err
	}
	if n.level == 0 {
		fmt.Fprintf(h, "leaf %d:", len(n.keys))
		for _, ke := range n.keys {
			fmt.Fprintf(h, " %d,%d,%t", ke.p.X, ke.p.Y, ke.here)
		}
		fmt.Fprintln(h)
		return nil
	}
	fmt.Fprintf(h, "node L%d %d:", n.level, len(n.entries))
	for _, e := range n.entries {
		fmt.Fprintf(h, " (%d,%d w%d y%d)", e.maxKey.X, e.maxKey.Y, e.weight, e.ysize)
	}
	fmt.Fprintln(h)
	raw, err := eio.NewRecordStore(t.store).Get(n.q, nil)
	if err != nil {
		return err
	}
	nb := int(binary.LittleEndian.Uint32(raw[0:]))
	ni := int(binary.LittleEndian.Uint32(raw[4:]))
	nd := int(binary.LittleEndian.Uint32(raw[8:]))
	const hdr, meta = 12, 56
	page := make([]byte, t.store.PageSize())
	for i := 0; i < nb; i++ {
		e := raw[hdr+i*meta:][:meta]
		count := int(binary.LittleEndian.Uint32(e[8:]))
		fmt.Fprintf(h, " block n%d f%d", count, binary.LittleEndian.Uint32(e[12:]))
		for off := 16; off < meta; off += 8 { // xlo xhi yact yret topY
			fmt.Fprintf(h, " %d", int64(binary.LittleEndian.Uint64(e[off:])))
		}
		if err := t.store.Read(eio.PageID(binary.LittleEndian.Uint64(e[0:])), page); err != nil {
			return err
		}
		for j := 0; j < count; j++ {
			p := eio.GetPoint(page, j*eio.PointSize)
			fmt.Fprintf(h, " %d,%d", p.X, p.Y)
		}
		fmt.Fprintln(h)
	}
	fmt.Fprintf(h, " ins %d dels %d:", ni, nd)
	for i := 0; i < ni+nd; i++ {
		p := eio.GetPoint(raw, hdr+nb*meta+i*eio.PointSize)
		fmt.Fprintf(h, " %d,%d", p.X, p.Y)
	}
	fmt.Fprintln(h)
	for _, e := range n.entries {
		if err := dumpNode(t, sc, h, e.child); err != nil {
			return err
		}
	}
	return nil
}

// pageLog is a trace sink that keeps every event.
type pageLog struct{ ev []eio.TraceEvent }

func (l *pageLog) Emit(e eio.TraceEvent) { l.ev = append(l.ev, e) }

// count returns how many events of kind op the log holds, and how many
// distinct pages they touched.
func (l *pageLog) count(op eio.Op) (n, distinct int) {
	seen := map[eio.PageID]bool{}
	for _, e := range l.ev {
		if e.Op == op {
			n++
			seen[e.Page] = true
		}
	}
	return n, len(seen)
}

// catalogPages collects the pages of every Q_v's catalog record under id.
func catalogPages(t *Tree, sc *scratch, id eio.PageID, into map[eio.PageID]bool) error {
	defer sc.release(sc.used)
	n, err := t.readNode(sc, id)
	if err != nil || n.level == 0 {
		return err
	}
	chain, err := t.rs.Chain(n.q)
	if err != nil {
		return err
	}
	for _, pg := range chain {
		into[pg] = true
	}
	for _, e := range n.entries {
		if err := catalogPages(t, sc, e.child, into); err != nil {
			return err
		}
	}
	return nil
}

// queryDigest hashes the answers to n seeded 3-sided queries together with
// the number of pages each read that are not catalog pages: tree nodes,
// the header and index blocks. (Catalog reads are what the rewrite was
// allowed to change: a visited node's catalog used to be read twice.)
func queryDigest(t *Tree, ts *eio.TraceStore, n int, xmax int64) (string, error) {
	sc := new(scratch)
	m, err := t.loadMeta(sc)
	if err != nil {
		return "", err
	}
	catalogs := map[eio.PageID]bool{}
	if err := catalogPages(t, sc, m.root, catalogs); err != nil {
		return "", err
	}
	rng := rand.New(rand.NewSource(77))
	h := sha256.New()
	var dst []geom.Point
	for i := 0; i < n; i++ {
		lo := rng.Int63n(xmax)
		q := geom.Query3{XLo: lo, XHi: lo + rng.Int63n(xmax/8+1), YLo: rng.Int63n(1 << 20)}
		var log pageLog
		ts.SetSink(&log)
		dst, err = t.Query3(dst[:0], q)
		ts.SetSink(nil)
		if err != nil {
			return "", err
		}
		geom.SortByX(dst)
		other := 0
		for _, e := range log.ev {
			if e.Op != eio.OpRead {
				return "", fmt.Errorf("query %v issued a %v", q, e.Op)
			}
			if !catalogs[e.Page] {
				other++
			}
		}
		fmt.Fprintf(h, "%v: %d reads beside catalogs, %v\n", q, other, dst)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// canonicalStream applies the fixed update stream the digests below were
// taken on — n seeded operations on an empty tree, two inserts to one
// delete until the tree holds half of n points, then even — and returns
// the tree.
func canonicalStream(t *testing.T, store eio.Store, opts Options, n int) *Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(20260923))
	tr, err := Create(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	var live []geom.Point
	in := make(map[geom.Point]bool)
	for i := 0; i < n; i++ {
		del := len(live) > 0 && rng.Intn(3) == 0
		if len(live) >= n/2 {
			del = rng.Intn(2) == 0
		}
		if del {
			j := rng.Intn(len(live))
			p := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			delete(in, p)
			if ok, err := tr.Delete(p); err != nil || !ok {
				t.Fatalf("op %d: delete %v: %v, %v", i, p, ok, err)
			}
			continue
		}
		// A narrow x-range makes equal x common; y spans enough that
		// every Y-set sees both joins and pass-throughs.
		p := geom.Point{X: rng.Int63n(int64(n) / 4), Y: rng.Int63n(1 << 20)}
		if in[p] {
			i--
			continue
		}
		in[p] = true
		live = append(live, p)
		if err := tr.Insert(p); err != nil {
			t.Fatalf("op %d: insert %v: %v", i, p, err)
		}
	}
	return tr
}

// TestUpdateStreamCanonicalDump: "same structure, fewer touches". The
// digests were recorded by running this very file against the code as it
// stood before the single-descent update and the merge rebuild (three
// descents per insert, a probe per small-structure update, sort.Slice in
// the rebuild). Equal digests mean the rewrite makes, update for update,
// the same decisions — the same splits, trickles and evictions, the same
// bubble-ups, the same rebuilds at the same moments emitting the same
// blocks, the same buffer contents in the same order — and only touches
// fewer pages on the way. 20 000 operations at B = 16 reach height 4 and
// pass through every branch; the B = 64 run has multi-page catalogs. The
// query digests (same provenance) pin the answers to 1 000 queries and how
// many pages each reads once catalog pages are set aside.
func TestUpdateStreamCanonicalDump(t *testing.T) {
	for _, c := range []struct {
		pageSize, ops int
		opts          Options
		want, wantQ   string
	}{
		{256, 20000, Options{}, "965954c95ee8373b24cee9de94d9f61a24f99f6e37fee146dad69394415ff6a5", "232936c03c0f98283db5b6ce819092c3c970621a30fa7798ef4dfb846c7a4276"},
		{1024, 20000, Options{}, "308cd332e65b830eb65b35436a8991e0090ddfb0e2254f0d4e74bce770cce4f2", "e0d995275edfa6826de1ef04bb0a34a6f763aac3e85b4f8b89d7e887eb330eec"},
		{128, 6000, Options{A: 2, K: 4, Alpha: 3}, "3a800257ad5870c10232726a028c5493df98632d59d037340147ea762293756c", "41aeb0011d2c7ee622ecb704d70bb9331072a512f8948c9df01da099fcd80949"},
	} {
		if testing.Short() && c.pageSize != 256 {
			continue
		}
		store := eio.NewTraceStore(eio.NewMemStore(c.pageSize))
		tr := canonicalStream(t, store, c.opts, c.ops)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		got, err := canonicalDump(tr)
		if err != nil {
			t.Fatal(err)
		}
		h, _ := tr.Height()
		t.Logf("page %d: height %d, digest %s", c.pageSize, h, got)
		if got != c.want {
			t.Errorf("page size %d: canonical dump %s, want %s", c.pageSize, got, c.want)
		}
		// And the same tree answers 1 000 queries the same way at the same
		// block-read count.
		gotQ, err := queryDigest(tr, store, 1000, int64(c.ops)/4)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("page %d: query digest %s", c.pageSize, gotQ)
		if gotQ != c.wantQ {
			t.Errorf("page size %d: query digest %s, want %s", c.pageSize, gotQ, c.wantQ)
		}
	}
}
