package wbuf

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"rangesearch/internal/core"
	"rangesearch/internal/eio"
	"rangesearch/internal/epst"
	"rangesearch/internal/geom"
)

const testDomain = 1 << 10

func newBase(t *testing.T) core.Index {
	t.Helper()
	mem := eio.NewMemStore(512)
	idx, err := core.NewThreeSided(mem, epst.Options{})
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	t.Cleanup(func() { mem.Close() })
	return idx
}

// model is the naive reference: a set of points.
type model map[geom.Point]bool

func (m model) insert(p geom.Point) error {
	if m[p] {
		return core.ErrDuplicate
	}
	m[p] = true
	return nil
}

func (m model) delete(p geom.Point) bool {
	if !m[p] {
		return false
	}
	delete(m, p)
	return true
}

func (m model) query(q geom.Rect) []geom.Point {
	var out []geom.Point
	for p := range m {
		if q.Contains(p) {
			out = append(out, p)
		}
	}
	geom.SortByX(out)
	return out
}

func checkQuery(t *testing.T, b *Buffered, m model, q geom.Rect) {
	t.Helper()
	got, err := b.Query(nil, q)
	if err != nil {
		t.Fatalf("query %+v: %v", q, err)
	}
	want := m.query(q)
	if len(got) != len(want) {
		t.Fatalf("query %+v: got %d points, want %d\ngot:  %v\nwant: %v", q, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("query %+v: point %d = %v, want %v", q, i, got[i], want[i])
		}
	}
}

func TestBufferedSemantics(t *testing.T) {
	base := newBase(t)
	b, err := NewBuffered(base, Options{MaxOps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	p := geom.Point{X: 5, Y: 7}

	// Insert, duplicate insert, delete, delete-again, re-insert.
	if err := b.Insert(p); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := b.Insert(p); !errors.Is(err, core.ErrDuplicate) {
		t.Fatalf("dup insert: got %v, want ErrDuplicate", err)
	}
	if found, err := b.Delete(p); err != nil || !found {
		t.Fatalf("delete: found=%v err=%v", found, err)
	}
	if found, err := b.Delete(p); err != nil || found {
		t.Fatalf("re-delete: found=%v err=%v, want false", found, err)
	}
	if err := b.Insert(p); err != nil {
		t.Fatalf("re-insert: %v", err)
	}
	if n, err := b.Len(); err != nil || n != 1 {
		t.Fatalf("len: %d err=%v, want 1", n, err)
	}

	// Sentinel coordinates rejected without staging.
	bad := geom.Point{X: geom.MaxCoord, Y: 1}
	if err := b.Insert(bad); !errors.Is(err, core.ErrCoordRange) {
		t.Fatalf("sentinel insert: got %v, want ErrCoordRange", err)
	}
	if _, err := b.Delete(bad); !errors.Is(err, core.ErrCoordRange) {
		t.Fatalf("sentinel delete: got %v, want ErrCoordRange", err)
	}

	// Duplicate/found semantics against points living in the BASE, not
	// the buffer.
	q := geom.Point{X: 9, Y: 9}
	if err := base.Insert(q); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(q); !errors.Is(err, core.ErrDuplicate) {
		t.Fatalf("insert of base-resident point: got %v, want ErrDuplicate", err)
	}
	if found, err := b.Delete(q); err != nil || !found {
		t.Fatalf("delete of base-resident point: found=%v err=%v", found, err)
	}
	if err := b.Insert(q); err != nil {
		t.Fatalf("re-insert of tombstoned base point: %v", err)
	}
	// Net effect: q deleted then re-inserted — must appear exactly once.
	res, err := b.Query(nil, geom.Rect{XLo: 9, XHi: 9, YLo: 9, YHi: 9})
	if err != nil || len(res) != 1 {
		t.Fatalf("merged point query: %v err=%v, want exactly one hit", res, err)
	}
}

func TestBufferedDifferentialRandom(t *testing.T) {
	base := newBase(t)
	b, err := NewBuffered(base, Options{MaxOps: 64}) // frequent flushes
	if err != nil {
		t.Fatal(err)
	}
	m := model{}
	rng := rand.New(rand.NewSource(42))
	nOps := 6000
	if testing.Short() {
		nOps = 1200
	}
	for i := 0; i < nOps; i++ {
		p := geom.Point{X: rng.Int63n(testDomain), Y: rng.Int63n(testDomain)}
		switch r := rng.Float64(); {
		case r < 0.5:
			gotErr := b.Insert(p)
			wantErr := m.insert(p)
			if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && !errors.Is(gotErr, core.ErrDuplicate)) {
				t.Fatalf("op %d insert %v: got %v, want %v", i, p, gotErr, wantErr)
			}
		case r < 0.75:
			got, err := b.Delete(p)
			if err != nil {
				t.Fatalf("op %d delete %v: %v", i, p, err)
			}
			if want := m.delete(p); got != want {
				t.Fatalf("op %d delete %v: found=%v, want %v", i, p, got, want)
			}
		default:
			lo, hi := rng.Int63n(testDomain), rng.Int63n(testDomain)
			if lo > hi {
				lo, hi = hi, lo
			}
			ylo, yhi := rng.Int63n(testDomain), rng.Int63n(testDomain)
			if ylo > yhi {
				ylo, yhi = yhi, ylo
			}
			checkQuery(t, b, m, geom.Rect{XLo: lo, XHi: hi, YLo: ylo, YHi: yhi})
		}
		if i%128 == 0 {
			n, err := b.Len()
			if err != nil {
				t.Fatal(err)
			}
			if n != len(m) {
				t.Fatalf("op %d: len=%d, want %d", i, n, len(m))
			}
		}
	}
	// Final flush, then verify the base alone matches the model.
	if err := b.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if b.Depth() != 0 {
		t.Fatalf("depth after flush: %d", b.Depth())
	}
	all := geom.Rect{XLo: 0, XHi: testDomain, YLo: 0, YHi: testDomain}
	got, err := base.Query(nil, all)
	if err != nil {
		t.Fatal(err)
	}
	geom.SortByX(got)
	want := m.query(all)
	if len(got) != len(want) {
		t.Fatalf("base after flush: %d points, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("base after flush: point %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestBufferedSizeThresholdFlush(t *testing.T) {
	base := newBase(t)
	b, err := NewBuffered(base, Options{MaxOps: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		if err := b.Insert(geom.Point{X: i, Y: i}); err != nil {
			t.Fatal(err)
		}
	}
	if b.flushes.Load() == 0 {
		t.Fatalf("no flush after %d inserts with MaxOps=8", 20)
	}
	if b.Depth() >= 8 {
		t.Fatalf("depth %d not kept under threshold", b.Depth())
	}
	if n, _ := b.Len(); n != 20 {
		t.Fatalf("len=%d, want 20", n)
	}
}

func TestBufferedJournalReplayOnReopen(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "wbuf.journal")

	mem := eio.NewMemStore(512)
	defer mem.Close()
	idx, err := core.NewThreeSided(mem, epst.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hdr := idx.HeaderID()

	b, err := NewBuffered(idx, Options{MaxOps: 1 << 20, Journal: jpath})
	if err != nil {
		t.Fatal(err)
	}
	m := model{}
	for i := int64(0); i < 50; i++ {
		p := geom.Point{X: i, Y: i * 3 % 97}
		if err := b.Insert(p); err != nil {
			t.Fatal(err)
		}
		m.insert(p)
	}
	for i := int64(0); i < 50; i += 5 {
		p := geom.Point{X: i, Y: i * 3 % 97}
		if _, err := b.Delete(p); err != nil {
			t.Fatal(err)
		}
		m.delete(p)
	}
	// SIGKILL: drop b on the floor — no Flush, no Close. The base never
	// saw any of it; only the journal did.
	if n, _ := idx.Len(); n != 0 {
		t.Fatalf("base len before crash: %d, want 0 (nothing flushed)", n)
	}

	reopened, err := core.OpenThreeSided(mem, hdr)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := NewBuffered(reopened, Options{MaxOps: 1 << 20, Journal: jpath})
	if err != nil {
		t.Fatalf("reopen with journal: %v", err)
	}
	defer b2.Close()
	if n, _ := b2.Len(); n != len(m) {
		t.Fatalf("len after replay: %d, want %d", n, len(m))
	}
	// Replay flushes: journal must be empty and the base complete.
	if got := b2.Depth(); got != 0 {
		t.Fatalf("depth after replay: %d, want 0", got)
	}
	checkQuery(t, b2, m, geom.Rect{XLo: 0, XHi: testDomain, YLo: 0, YHi: testDomain})
}

func TestBufferedConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	mem := eio.NewMemStore(512)
	defer mem.Close()
	idx, err := core.NewThreeSided(mem, epst.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuffered(idx, Options{MaxOps: 256, Journal: filepath.Join(dir, "j")})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p := geom.Point{X: int64(w*per + i), Y: int64(i)}
				if err := b.Insert(p); err != nil {
					t.Errorf("worker %d insert %v: %v", w, p, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if n, _ := b.Len(); n != workers*per {
		t.Fatalf("len=%d, want %d", n, workers*per)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if n, _ := idx.Len(); n != workers*per {
		t.Fatalf("base len after close: %d, want %d", n, workers*per)
	}
}

func TestBufferedBatch(t *testing.T) {
	base := newBase(t)
	b, err := NewBuffered(base, Options{MaxOps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ops := []core.BatchOp{
		{P: geom.Point{X: 1, Y: 1}},
		{P: geom.Point{X: 1, Y: 1}},               // dup
		{Delete: true, P: geom.Point{X: 1, Y: 1}}, // found
		{Delete: true, P: geom.Point{X: 2, Y: 2}}, // absent
		{P: geom.Point{X: 3, Y: 3}},
	}
	res := b.Apply(ops, nil)
	if res[0].Err != nil {
		t.Fatalf("op0: %v", res[0].Err)
	}
	if !errors.Is(res[1].Err, core.ErrDuplicate) {
		t.Fatalf("op1: got %v, want ErrDuplicate", res[1].Err)
	}
	if res[2].Err != nil || !res[2].Found {
		t.Fatalf("op2: found=%v err=%v", res[2].Found, res[2].Err)
	}
	if res[3].Err != nil || res[3].Found {
		t.Fatalf("op3: found=%v err=%v, want not found", res[3].Found, res[3].Err)
	}
	if n, _ := b.Len(); n != 1 {
		t.Fatalf("len=%d, want 1", n)
	}
}

// TestBufferedFlushOrderDeterministic pins the collapse order: flushes
// apply in canonical (x, y) order regardless of staging order.
func TestBufferedFlushOrderDeterministic(t *testing.T) {
	base := newBase(t)
	b, err := NewBuffered(base, Options{MaxOps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	pts := []geom.Point{{X: 9, Y: 1}, {X: 2, Y: 8}, {X: 5, Y: 5}, {X: 2, Y: 1}}
	for _, p := range pts {
		if err := b.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := base.Query(nil, geom.Rect{XLo: 0, XHi: 10, YLo: 0, YHi: 10})
	if err != nil {
		t.Fatal(err)
	}
	geom.SortByX(got)
	want := append([]geom.Point(nil), pts...)
	sort.Slice(want, func(i, k int) bool { return want[i].Less(want[k]) })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestJournalOrderMatchesStagingOrder is the crash-consistency
// regression for racing writers on the SAME point: the journal record
// sequence is assigned under the staging lock, so replay (last-op-wins
// in sequence order) must reconstruct exactly the state the live buffer
// acknowledged. If staging and appending ever become separate critical
// sections again, a delete/insert race journals in the wrong order and
// this test's post-"crash" replay diverges from the live Query.
func TestJournalOrderMatchesStagingOrder(t *testing.T) {
	dir := t.TempDir()
	base := newBase(t)
	jpath := filepath.Join(dir, "j")
	b, err := NewBuffered(base, Options{MaxOps: 1 << 20, Journal: jpath})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// A tiny shared key set maximizes same-point interleavings.
	points := []geom.Point{{X: 1, Y: 1}, {X: 2, Y: 2}, {X: 3, Y: 3}, {X: 4, Y: 4}}
	const workers, iters = 8, 250
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				p := points[rng.Intn(len(points))]
				if rng.Intn(2) == 0 {
					if err := b.Insert(p); err != nil && !errors.Is(err, core.ErrDuplicate) {
						t.Errorf("insert %v: %v", p, err)
						return
					}
				} else if _, err := b.Delete(p); err != nil {
					t.Errorf("delete %v: %v", p, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Simulate a crash: read the journal as the next boot would, WITHOUT
	// Close (which would flush and truncate it). Every acknowledged write
	// has group-committed, so the file holds the full record sequence.
	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	ops, validLen, _ := ScanJournal(raw)
	if int(validLen) != len(raw) {
		t.Fatalf("journal has a torn tail without a crash: valid %d of %d bytes", validLen, len(raw))
	}
	visible := make(map[geom.Point]bool)
	for _, op := range ops {
		visible[op.P] = !op.Delete
	}
	var want []geom.Point
	for p, v := range visible {
		if v {
			want = append(want, p)
		}
	}
	geom.SortByX(want)
	got, err := b.Query(nil, geom.Rect{XLo: 0, XHi: 10, YLo: 0, YHi: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replay state diverges from acknowledged state:\nreplay: %v\nlive:   %v", want, got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("replay point %d = %v, live has %v", i, want[i], got[i])
		}
	}
}

// TestBufferedCloseIdempotent pins that Close is safe to call twice and
// after Destroy (no double close(b.stop) panic, no journal double-close
// error).
func TestBufferedCloseIdempotent(t *testing.T) {
	dir := t.TempDir()
	b, err := NewBuffered(newBase(t), Options{Journal: filepath.Join(dir, "j"), MaxAge: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(geom.Point{X: 1, Y: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	b2, err := NewBuffered(newBase(t), Options{Journal: filepath.Join(dir, "j2")})
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.Insert(geom.Point{X: 2, Y: 2}); err != nil {
		t.Fatal(err)
	}
	if err := b2.Destroy(); err != nil {
		t.Fatalf("destroy: %v", err)
	}
	if err := b2.Close(); err != nil {
		t.Fatalf("close after destroy: %v", err)
	}
}
