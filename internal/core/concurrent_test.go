package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/eio/eiotest"
	"rangesearch/internal/epst"
	"rangesearch/internal/geom"
	"rangesearch/internal/trace"
)

// newConcurrentThreeSided builds a ThreeSided on a fresh SnapStore over a
// MemStore and wraps it in a Concurrent (volatile stack).
func newConcurrentThreeSided(t *testing.T, opts ConcurrentOptions) (*Concurrent, *eio.SnapStore, *eio.MemStore) {
	t.Helper()
	mem := eio.NewMemStore(512)
	snap := eio.NewSnapStore(mem, 0)
	idx, err := NewThreeSided(snap, epst.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hdr := idx.HeaderID()
	if _, err := snap.Commit(); err != nil { // publish the empty structure
		t.Fatal(err)
	}
	open := func(s eio.Store) (Index, error) { return OpenThreeSided(s, hdr) }
	c, err := NewConcurrent(idx, snap, open, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, snap, mem
}

// newConcurrentDurableThreeSided builds the durable stack:
// Concurrent(Durable(ThreeSided)) on SnapStore(TxStore(MemStore)).
func newConcurrentDurableThreeSided(t *testing.T, walPages int) (*Concurrent, *eio.SnapStore, *eio.TxStore) {
	t.Helper()
	mem := eio.NewMemStore(512)
	tx, err := eio.NewTxStore(mem, eio.TxOptions{WALPages: walPages})
	if err != nil {
		t.Fatal(err)
	}
	snap := eio.NewSnapStore(tx, 0)
	idx, err := NewThreeSided(snap, epst.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hdr := idx.HeaderID()
	if _, err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
	open := func(s eio.Store) (Index, error) { return OpenThreeSided(s, hdr) }
	c, err := NewConcurrent(NewDurable(idx, tx), snap, open, ConcurrentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return c, snap, tx
}

// TestConcurrentBasic exercises the Index surface serially: inserts,
// benign duplicate errors, deletes, queries and Len through snapshots.
func TestConcurrentBasic(t *testing.T) {
	c, _, _ := newConcurrentThreeSided(t, ConcurrentOptions{})
	for i := 0; i < 20; i++ {
		if err := c.Insert(geom.Point{X: int64(i), Y: int64(i * 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Insert(geom.Point{X: 3, Y: 6}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate insert: %v", err)
	}
	if n, err := c.Len(); err != nil || n != 20 {
		t.Fatalf("Len = (%d, %v), want 20", n, err)
	}
	found, err := c.Delete(geom.Point{X: 3, Y: 6})
	if err != nil || !found {
		t.Fatalf("delete: (%v, %v)", found, err)
	}
	if found, _ := c.Delete(geom.Point{X: 3, Y: 6}); found {
		t.Fatal("second delete of same point reported found")
	}
	pts, err := c.Query(nil, geom.Rect{XLo: 0, XHi: 100, YLo: 0, YHi: geom.MaxCoord})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 19 {
		t.Fatalf("query returned %d points, want 19", len(pts))
	}
}

// TestConcurrentSnapshotIsolation checks a held snapshot ignores later
// commits while new snapshots see them, and that epochs advance.
func TestConcurrentSnapshotIsolation(t *testing.T) {
	c, _, _ := newConcurrentThreeSided(t, ConcurrentOptions{})
	for i := 0; i < 10; i++ {
		if err := c.Insert(geom.Point{X: int64(i), Y: 1}); err != nil {
			t.Fatal(err)
		}
	}
	old, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()

	for i := 10; i < 30; i++ {
		if err := c.Insert(geom.Point{X: int64(i), Y: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := old.Len(); n != 10 {
		t.Fatalf("held snapshot Len = %d, want 10", n)
	}
	all := geom.Rect{XLo: 0, XHi: 100, YLo: 0, YHi: geom.MaxCoord}
	if pts, _ := old.Query(nil, all); len(pts) != 10 {
		t.Fatalf("held snapshot sees %d points, want 10", len(pts))
	}
	fresh, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if fresh.Epoch() <= old.Epoch() {
		t.Fatalf("fresh epoch %d not after held epoch %d", fresh.Epoch(), old.Epoch())
	}
	if pts, _ := fresh.Query(nil, all); len(pts) != 30 {
		t.Fatalf("fresh snapshot sees %d points, want 30", len(pts))
	}
}

// TestConcurrentGroupCommit runs parallel writers and checks every insert
// lands, the final state is complete, and the group commits — one published
// epoch each — respect the 64-op cap.
func TestConcurrentGroupCommit(t *testing.T) {
	c, _, _ := newConcurrentThreeSided(t, ConcurrentOptions{})
	epoch0 := c.Epoch()
	const (
		writers = 8
		per     = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p := geom.Point{X: int64(w*per + i), Y: int64(w)}
				if err := c.Insert(p); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	// Beside them, one traced run long enough to span several group
	// commits: 150 inserts, a duplicate of the first, 49 deletes. Results
	// are positional whatever the run was interleaved with.
	const runIns, runDel = 150, 49
	wg.Add(1)
	go func() {
		defer wg.Done()
		var run []BatchOp
		for i := 0; i < runIns; i++ {
			run = append(run, BatchOp{P: geom.Point{X: int64(10000 + i), Y: 1}})
		}
		run = append(run, run[0])
		for i := 0; i < runDel; i++ {
			run = append(run, BatchOp{Delete: true, P: run[i].P})
		}
		sp := trace.New(trace.ID{}, "batch")
		for i, r := range c.Apply(run, sp) {
			switch {
			case i < runIns && r.Err != nil:
				t.Errorf("run op %d (insert): %v", i, r.Err)
			case i == runIns && !errors.Is(r.Err, ErrDuplicate):
				t.Errorf("run op %d (duplicate insert): %v", i, r.Err)
			case i > runIns && (r.Err != nil || !r.Found):
				t.Errorf("run op %d (delete): found=%v err=%v", i, r.Found, r.Err)
			}
		}
		if sp.Phase(trace.PhaseExecute) == 0 || sp.Phase(trace.PhaseCommit) == 0 {
			t.Errorf("traced run recorded no execute/commit time: %+v", sp.Record().Phases)
		}
	}()
	wg.Wait()
	if n, err := c.Len(); err != nil || n != writers*per+runIns-runDel {
		t.Fatalf("Len = (%d, %v), want %d", n, err, writers*per+runIns-runDel)
	}
	// Every op was resolved by a committed batch (the positional checks
	// above), and each batch published one epoch; batches of at most 64 ops
	// need at least ⌈ops/64⌉ of them, one op each at most as many.
	ops := uint64(writers*per + runIns + 1 + runDel)
	if batches := c.Epoch() - epoch0; batches < (ops+63)/64 || batches > ops {
		t.Fatalf("%d ops committed in %d batches, want between %d and %d", ops, batches, (ops+63)/64, ops)
	}
	t.Logf("committed %d ops in %d batches", ops, c.Epoch()-epoch0)

	// Alone in the queue, a run of 200 ops is exactly ⌈200/64⌉ group commits.
	run := make([]BatchOp, 200)
	for i := range run {
		run[i] = BatchOp{P: geom.Point{X: int64(20000 + i), Y: 2}}
	}
	epoch1 := c.Epoch()
	for i, r := range c.Apply(run, nil) {
		if r.Err != nil {
			t.Fatalf("serial run op %d: %v", i, r.Err)
		}
	}
	if got := c.Epoch() - epoch1; got != 4 {
		t.Fatalf("a lone run of 200 ops committed in %d batches, want 4", got)
	}
}

// TestConcurrentDurableGroupCommit checks the durable stack: batches are
// atomic WAL transactions, benign per-op errors do not poison the batch,
// and a WAL-overflowing batch fails without corrupting the index.
func TestConcurrentDurableGroupCommit(t *testing.T) {
	c, _, tx := newConcurrentDurableThreeSided(t, 256)
	epoch0, lsn0 := c.Epoch(), tx.AppliedLSN()
	const (
		writers = 4
		per     = 25
	)
	var wg sync.WaitGroup
	var dups atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// Writers deliberately collide on every second point: the
				// loser's ErrDuplicate must stay its own, not the batch's.
				x := int64(w*per + i)
				if i%2 == 1 {
					x = int64(i)
				}
				err := c.Insert(geom.Point{X: x, Y: 7})
				if errors.Is(err, ErrDuplicate) {
					dups.Add(1)
				} else if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if tx.InTx() {
		t.Fatal("transaction left open after group commits")
	}
	n, err := c.Len()
	if err != nil {
		t.Fatal(err)
	}
	if int64(n)+dups.Load() != writers*per {
		t.Fatalf("Len %d + dups %d != %d submitted", n, dups.Load(), writers*per)
	}
	// A durable batch writes at most one WAL record (none when every op in
	// it was a duplicate) and publishes its epoch at that record's LSN, so
	// the epoch advanced exactly as far as the log.
	batches, records := c.Epoch()-epoch0, tx.AppliedLSN()-lsn0
	if records == 0 || batches != records || records > writers*per {
		t.Fatalf("epoch advanced by %d for %d WAL records, want the same, between 1 and %d", batches, records, writers*per)
	}
	t.Run("late-join", testConcurrentLateJoin)
}

// TestConcurrentPositionNeverAheadOfRead: a durable stack's Position is the
// epoch it has published, so a read opened after Position returned L sees
// every record up to L. One writer inserts points one durable commit each
// while a reader reads Position and then opens a snapshot: the snapshot
// holds at least L − L₀ points, its epoch is at least L, and it holds
// exactly one point per record up to its epoch — the epoch IS the LSN
// whose writes it holds. Run it under -race.
func TestConcurrentPositionNeverAheadOfRead(t *testing.T) {
	c, _, tx := newConcurrentDurableThreeSided(t, 64)
	_, lsn0 := c.Position()
	if e := c.Epoch(); e != lsn0 || lsn0 != tx.AppliedLSN() {
		t.Fatalf("fresh stack: epoch %d, Position %d, log at %d; want all equal", e, lsn0, tx.AppliedLSN())
	}
	n := 2000
	if testing.Short() {
		n = 1000
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			if err := c.Insert(geom.Point{X: int64(i), Y: int64(i)}); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
	}()
	reads, ahead := 0, 0
	for finished := false; !finished; reads++ {
		select {
		case <-done:
			finished = true
		default:
		}
		_, lsn := c.Position()
		sn, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		got, err := sn.Len()
		epoch := sn.Epoch()
		sn.Close()
		if err != nil {
			t.Fatal(err)
		}
		if uint64(got) < lsn-lsn0 || epoch < lsn {
			ahead++
			if ahead <= 3 {
				t.Errorf("Position said lsn %d, then a snapshot at epoch %d held %d points, want at least %d", lsn, epoch, got, lsn-lsn0)
			}
		}
		if uint64(got) != epoch-lsn0 {
			t.Fatalf("snapshot at epoch %d holds %d points, want %d (one per record)", epoch, got, epoch-lsn0)
		}
	}
	if ahead > 0 {
		t.Fatalf("%d of %d reads ran behind the Position read before them", ahead, reads)
	}
	if _, lsn := c.Position(); lsn != tx.AppliedLSN() || lsn-lsn0 != uint64(n) {
		t.Fatalf("after %d commits: Position %d, log at %d", n, lsn, tx.AppliedLSN())
	}
}

// holdStore is a pass-through whose next Read runs a one-shot hook first:
// the test's handle for stopping a commit leader in the middle of an op.
type holdStore struct {
	eio.Store
	hook atomic.Pointer[func()]
}

func (h *holdStore) Read(id eio.PageID, buf []byte) error {
	if f := h.hook.Swap(nil); f != nil {
		(*f)()
	}
	return h.Store.Read(id, buf)
}

// testConcurrentLateJoin pins that a leader absorbs a writer that arrives
// while it is executing — deterministically: the leader is held inside its
// first op until the second writer is in the queue, so the outcome does not
// depend on timing. Both writes must then commit as ONE batch: one WAL
// record, one LSN, one published epoch.
func testConcurrentLateJoin(t *testing.T) {
	tx, err := eio.NewTxStore(eio.NewMemStore(512), eio.TxOptions{WALPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	snap := eio.NewSnapStore(tx, 0)
	hold := &holdStore{Store: snap}
	idx, err := NewThreeSided(hold, epst.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hdr := idx.HeaderID()
	if _, err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
	c, err := NewConcurrent(NewDurable(idx, tx), snap,
		func(s eio.Store) (Index, error) { return OpenThreeSided(s, hdr) },
		ConcurrentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, lsn0 := c.Position()
	epoch0 := c.Epoch()

	executing, release := make(chan struct{}), make(chan struct{})
	hook := func() { close(executing); <-release }
	hold.hook.Store(&hook)
	lsns := make(chan uint64, 2)
	write := func(x int64) {
		if err := c.Insert(geom.Point{X: x, Y: 1}); err != nil {
			t.Errorf("insert %d: %v", x, err)
		}
		_, lsn := c.Position()
		lsns <- lsn
	}
	go write(1)
	<-executing // the leader took its own op and is inside it
	go write(2)
	for queued := 0; queued == 0; runtime.Gosched() {
		c.qmu.Lock()
		queued = len(c.queue)
		c.qmu.Unlock()
	}
	close(release)
	for i := 0; i < 2; i++ {
		if lsn := <-lsns; lsn != lsn0+1 {
			t.Fatalf("a writer was acknowledged at lsn %d, want both at %d", lsn, lsn0+1)
		}
	}
	if b := c.Epoch() - epoch0; b != 1 {
		t.Fatalf("the two writes published %d epochs, want one batch of 2", b)
	}
	if n, err := c.Len(); err != nil || n != 2 {
		t.Fatalf("Len = %d, %v", n, err)
	}
}

// TestConcurrentQueryIOParity pins the acceptance bound: a snapshot query
// costs exactly the same store I/Os as the identical query on the same
// structure queried serially.
func TestConcurrentQueryIOParity(t *testing.T) {
	pts := make([]geom.Point, 0, 4000)
	for i := 0; i < 4000; i++ {
		pts = append(pts, geom.Point{X: int64(i * 3), Y: int64((i * 7919) % 10000)})
	}

	// Serial twin.
	serialMem := eio.NewMemStore(512)
	serial, err := BuildThreeSided(serialMem, epst.Options{}, pts)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent stack over an identically-built tree.
	mem := eio.NewMemStore(512)
	snap := eio.NewSnapStore(mem, 0)
	idx, err := BuildThreeSided(snap, epst.Options{}, pts)
	if err != nil {
		t.Fatal(err)
	}
	hdr := idx.HeaderID()
	if _, err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
	c, err := NewConcurrent(idx, snap, func(s eio.Store) (Index, error) { return OpenThreeSided(s, hdr) }, ConcurrentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sn, err := c.Snapshot() // open the view before measuring
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()

	queries := []geom.Rect{
		{XLo: 0, XHi: 1000, YLo: 5000, YHi: geom.MaxCoord},
		{XLo: 3000, XHi: 9000, YLo: 100, YHi: geom.MaxCoord},
		{XLo: -50, XHi: -1, YLo: 0, YHi: geom.MaxCoord},
		{XLo: 0, XHi: 12000, YLo: 9000, YHi: geom.MaxCoord},
	}
	for qi, q := range queries {
		serialMem.ResetStats()
		want, err := serial.Query(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		wantIO := serialMem.Stats().Reads

		mem.ResetStats()
		got, err := sn.Query(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		gotIO := mem.Stats().Reads + snap.SnapStats().VersionReads

		if len(got) != len(want) {
			t.Fatalf("query %d: %d points vs serial %d", qi, len(got), len(want))
		}
		if gotIO != wantIO {
			t.Fatalf("query %d: snapshot read %d I/Os, serial %d", qi, gotIO, wantIO)
		}
	}
}

// TestConcurrentSoak is the concurrency soak: one writer inserting a known
// monotone sequence, N reader goroutines querying snapshots, all under the
// single-writer linearizability check — every read observes a state equal
// to a prefix of the committed inserts, the epoch→prefix mapping is a
// function (two reads at one epoch agree), prefixes are monotone in
// epoch, and each reader's epochs never go backwards.
func TestConcurrentSoak(t *testing.T) {
	total := 2000
	if testing.Short() {
		total = 400
	}
	const readers = 4

	c, _, _ := newConcurrentThreeSided(t, ConcurrentOptions{})
	all := geom.Rect{XLo: 0, XHi: int64(total + 1), YLo: 0, YHi: geom.MaxCoord}

	type obs struct {
		epoch uint64
		k     int
	}
	var (
		wg       sync.WaitGroup
		done     atomic.Bool
		perR     = make([][]obs, readers)
		readErrs = make(chan error, readers)
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var last obs
			for !done.Load() {
				sn, err := c.Snapshot()
				if err != nil {
					readErrs <- err
					return
				}
				e := sn.Epoch()
				pts, err := sn.Query(nil, all)
				sn.Close()
				if err != nil {
					readErrs <- err
					return
				}
				// The observed state must be exactly the prefix {0..k-1}.
				k := len(pts)
				sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
				for i, p := range pts {
					if p.X != int64(i) || p.Y != int64(i) {
						readErrs <- fmt.Errorf("reader %d epoch %d: position %d holds %v, not a committed prefix", r, e, i, p)
						return
					}
				}
				if e < last.epoch {
					readErrs <- fmt.Errorf("reader %d: epoch %d after %d", r, e, last.epoch)
					return
				}
				if e == last.epoch && k != last.k {
					readErrs <- fmt.Errorf("reader %d: epoch %d read %d then %d points", r, e, last.k, k)
					return
				}
				if k < last.k {
					readErrs <- fmt.Errorf("reader %d: prefix shrank %d -> %d (epochs %d -> %d)", r, last.k, k, last.epoch, e)
					return
				}
				last = obs{epoch: e, k: k}
				perR[r] = append(perR[r], last)
			}
		}(r)
	}

	for i := 0; i < total; i++ {
		if err := c.Insert(geom.Point{X: int64(i), Y: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
	close(readErrs)
	for err := range readErrs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// Cross-reader agreement: the epoch→prefix mapping is one function.
	global := map[uint64]int{}
	reads := 0
	for r := range perR {
		reads += len(perR[r])
		for _, o := range perR[r] {
			if k, ok := global[o.epoch]; ok && k != o.k {
				t.Fatalf("epoch %d observed as both %d and %d points", o.epoch, k, o.k)
			}
			global[o.epoch] = o.k
		}
	}
	// Monotone in epoch across all readers.
	epochs := make([]uint64, 0, len(global))
	for e := range global {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	for i := 1; i < len(epochs); i++ {
		if global[epochs[i]] < global[epochs[i-1]] {
			t.Fatalf("prefix shrank between epochs %d (%d) and %d (%d)",
				epochs[i-1], global[epochs[i-1]], epochs[i], global[epochs[i]])
		}
	}
	if n, _ := c.Len(); n != total {
		t.Fatalf("final Len = %d, want %d", n, total)
	}
	t.Logf("soak: %d inserts, %d reads across %d readers, %d distinct epochs observed",
		total, reads, readers, len(global))
}

// TestConcurrentDestroyWithReaders checks a held snapshot survives Destroy
// (deferred frees) while the writer-side structure is gone.
func TestConcurrentDestroyWithReaders(t *testing.T) {
	c, snap, _ := newConcurrentThreeSided(t, ConcurrentOptions{})
	for i := 0; i < 50; i++ {
		if err := c.Insert(geom.Point{X: int64(i), Y: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sn, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Destroy(); err != nil {
		t.Fatal(err)
	}
	// The snapshot still answers from its epoch.
	pts, err := sn.Query(nil, geom.Rect{XLo: 0, XHi: 100, YLo: 0, YHi: geom.MaxCoord})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 50 {
		t.Fatalf("snapshot after destroy sees %d points, want 50", len(pts))
	}
	sn.Close()
	// Once the pin drains, the deferred frees land on the inner store.
	if _, err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := snap.SnapStats(); st.PendingFrees != 0 {
		t.Fatalf("deferred frees not reclaimed after close: %+v", st)
	}
}

// TestConcurrentDropsStaleViewAfterCommit is the regression test for the
// pinned-forever reader view: one query caches an epoch view; a write-only
// stream must not leave that epoch pinned (every later batch would then
// retain a pre-image of every page it touches — RSS 17 MiB → 1.7 GiB in
// 40 k writes on the serving stack). After each commit the writer drops the
// stale, idle view, so the versions held never exceed one batch's worth and
// no pin survives.
func TestConcurrentDropsStaleViewAfterCommit(t *testing.T) {
	c, snap, _ := newConcurrentThreeSided(t, ConcurrentOptions{})
	if err := c.Insert(geom.Point{X: -1, Y: -1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(nil, geom.Rect{XLo: -10, XHi: 10, YLo: -10, YHi: geom.MaxCoord}); err != nil {
		t.Fatal(err)
	}
	if st := snap.SnapStats(); st.Pins != 1 {
		t.Fatalf("after one query: %d pins, want the cached view's 1", st.Pins)
	}
	for i := 0; i < 5000; i++ {
		before := snap.Stats().Writes
		if err := c.Insert(geom.Point{X: int64(i), Y: int64(i % 97)}); err != nil {
			t.Fatal(err)
		}
		st := snap.SnapStats()
		if st.Pins != 0 {
			t.Fatalf("insert %d: %d pins, want 0 (stale view not dropped)", i, st.Pins)
		}
		// A batch captures at most one pre-image per page it writes, so
		// whatever is still held after its commit is bounded by that.
		if wrote := int64(snap.Stats().Writes - before); st.Versions > wrote {
			t.Fatalf("insert %d: %d page versions held after a batch that wrote %d pages", i, st.Versions, wrote)
		}
	}
	// Readers still work, on a fresh view, and Close leaves nothing pinned.
	if n, err := c.Len(); err != nil || n != 5001 {
		t.Fatalf("Len = %d, %v; want 5001", n, err)
	}
	c.Close()
	if st := snap.SnapStats(); st.Pins != 0 {
		t.Fatalf("after Close: %d pins", st.Pins)
	}
}

// TestConcurrentQueryAllocs bounds the serving layer's own cost on top of
// the allocation-free index query: pinning and releasing the shared epoch
// view allocates nothing once the view exists.
func TestConcurrentQueryAllocs(t *testing.T) {
	if !eiotest.PoolsRecycle() {
		t.Skip("sync.Pool does not recycle on this build (race detector): the per-query scratch is sometimes rebuilt")
	}
	c, _, _ := newConcurrentThreeSided(t, ConcurrentOptions{})
	defer c.Close()
	for i := 0; i < 3000; i++ {
		if err := c.Insert(geom.Point{X: int64(i), Y: int64((i * 31) % 1000)}); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]geom.Point, 0, 3000)
	q := geom.Rect{XLo: 500, XHi: 2500, YLo: 300, YHi: geom.MaxCoord}
	const maxAllocs = 0
	if n := testing.AllocsPerRun(50, func() {
		got, err := c.Query(dst[:0], q)
		if err != nil || len(got) == 0 {
			t.Fatalf("Query: %d points, %v", len(got), err)
		}
	}); n > maxAllocs {
		t.Errorf("Concurrent.Query: %v allocs/op, want ≤ %d", n, maxAllocs)
	}
}

// TestConcurrentApplyAllocs pins the cost of the one write entry point: a
// one-op Apply with a nil span — what a wire INSERT or DELETE becomes —
// allocates no more than Concurrent.Insert / Delete did before Apply
// replaced them (15 and 5 on this stack, measured at the commit that still
// had the separate entry points; the three that are Concurrent's own are
// the run slab, its done channel and the result slice). Both operations
// leave the structure unchanged, so every run costs the same.
func TestConcurrentApplyAllocs(t *testing.T) {
	if !eiotest.PoolsRecycle() {
		t.Skip("sync.Pool does not recycle on this build (race detector): the per-operation scratch is sometimes rebuilt")
	}
	c, _, _ := newConcurrentThreeSided(t, ConcurrentOptions{})
	defer c.Close()
	for i := 0; i < 3000; i++ {
		if err := c.Insert(geom.Point{X: int64(i), Y: int64((i * 31) % 1000)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name      string
		ops       []BatchOp
		maxAllocs float64
	}{
		{"insert of a stored point", []BatchOp{{P: geom.Point{X: 1500, Y: (1500 * 31) % 1000}}}, 15},
		{"delete of an absent point", []BatchOp{{Delete: true, P: geom.Point{X: 1500, Y: 5}}}, 5},
	} {
		if n := testing.AllocsPerRun(200, func() {
			if r := c.Apply(tc.ops, nil)[0]; r.Found || (r.Err != nil && !errors.Is(r.Err, ErrDuplicate)) {
				t.Fatalf("%s: %+v", tc.name, r)
			}
		}); n > tc.maxAllocs {
			t.Errorf("Apply, %s: %v allocs/op, want ≤ %v", tc.name, n, tc.maxAllocs)
		}
	}
}

// TestConcurrentQueryResultsDoNotAliasScratch runs 8 readers against one
// shared epoch view (half through a Snapshot, half through Query) beside a
// writer. Every reader keeps a result, lets other queries — its own and
// seven other goroutines' — recycle the pooled scratch, and only then
// checks the kept result against the model: a returned slice that aliased
// pooled memory would have been overwritten by then. Run it under -race.
func TestConcurrentQueryResultsDoNotAliasScratch(t *testing.T) {
	c, _, _ := newConcurrentThreeSided(t, ConcurrentOptions{})
	defer c.Close()
	// Readers query x < 100000, where the set is static; the writer churns
	// x ≥ 1000000, so the model of the queried region never changes.
	static := map[geom.Point]bool{}
	for i := 0; i < 4000; i++ {
		p := geom.Point{X: int64(i*37%100000 + 1), Y: int64(i*101%5000 + 1)}
		if static[p] {
			continue
		}
		static[p] = true
		if err := c.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	want := func(q geom.Rect) []geom.Point {
		var out []geom.Point
		for p := range static {
			if q.Contains(p) {
				out = append(out, p)
			}
		}
		geom.SortByX(out)
		return out
	}
	shared, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := geom.Point{X: 1000000 + int64(i%500), Y: int64(i)}
			if err := c.Insert(p); err != nil {
				t.Errorf("writer insert: %v", err)
				return
			}
			if i%3 == 0 {
				if _, err := c.Delete(p); err != nil {
					t.Errorf("writer delete: %v", err)
					return
				}
			}
		}
	}()

	var readers sync.WaitGroup
	for g := 0; g < 8; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			query := c.Query
			if g%2 == 0 {
				query = shared.Query
			}
			rng := newSplitMix(uint64(g) + 1)
			rect := func() geom.Rect {
				lo := int64(rng.next() % 90000)
				return geom.Rect{XLo: lo, XHi: lo + int64(rng.next()%20000), YLo: int64(rng.next() % 4000), YHi: geom.MaxCoord}
			}
			for iter := 0; iter < 60; iter++ {
				q := rect()
				kept, err := query(nil, q)
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				// Recycle the scratch a few times before looking at kept.
				scratchDst := make([]geom.Point, 0, 64)
				for k := 0; k < 3; k++ {
					if _, err := query(scratchDst[:0], rect()); err != nil {
						t.Errorf("reader %d: %v", g, err)
						return
					}
				}
				geom.SortByX(kept)
				if w := want(q); !equalPoints(kept, w) {
					t.Errorf("reader %d iter %d: query %v returned %d points, model has %d (result changed after the scratch was reused?)",
						g, iter, q, len(kept), len(w))
					return
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

// splitMix is a tiny per-goroutine generator (math/rand's global source
// would serialize the readers on its lock).
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed * 0x9e3779b97f4a7c15} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func equalPoints(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// recordingIndex passes every update to Index and records it, in the order
// the writer receives them.
type recordingIndex struct {
	Index
	seen []BatchOp
}

func (r *recordingIndex) Insert(p geom.Point) error {
	r.seen = append(r.seen, BatchOp{P: p})
	return r.Index.Insert(p)
}

func (r *recordingIndex) Delete(p geom.Point) (bool, error) {
	r.seen = append(r.seen, BatchOp{Delete: true, P: p})
	return r.Index.Delete(p)
}

// newRecordingConcurrent is newConcurrentThreeSided with the writer index
// wrapped in a recordingIndex.
func newRecordingConcurrent(t *testing.T) (*Concurrent, *recordingIndex) {
	t.Helper()
	snap := eio.NewSnapStore(eio.NewMemStore(512), 0)
	idx, err := NewThreeSided(snap, epst.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hdr := idx.HeaderID()
	if _, err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
	rec := &recordingIndex{Index: idx}
	c, err := NewConcurrent(rec, snap, func(s eio.Store) (Index, error) { return OpenThreeSided(s, hdr) }, ConcurrentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); snap.Close() })
	return c, rec
}

// TestConcurrentApplyRunsInPointOrder: a run submitted in descending x
// reaches the writer index in ascending x — across several group commits,
// since the run is longer than maxBatch — and each result still answers
// the op at its own position.
func TestConcurrentApplyRunsInPointOrder(t *testing.T) {
	c, rec := newRecordingConcurrent(t)
	const n = 3*maxBatch + 5
	ops := make([]BatchOp, n)
	for i := range ops {
		ops[i] = BatchOp{P: geom.Point{X: int64(n - i), Y: int64(i % 7)}}
	}
	ops[n-1] = ops[0] // a repeat: the run's last op, applied right after its first
	for i, r := range c.Apply(ops, nil) {
		if want := i == n-1; errors.Is(r.Err, ErrDuplicate) != want || (!want && r.Err != nil) {
			t.Fatalf("result %d (%v): %v", i, ops[i].P, r.Err)
		}
	}
	if len(rec.seen) != n {
		t.Fatalf("writer saw %d ops, want %d", len(rec.seen), n)
	}
	for i := 1; i < n; i++ {
		if CompareOps(rec.seen[i-1], rec.seen[i]) > 0 {
			t.Fatalf("writer saw %v before %v: the run was not applied in point order", rec.seen[i-1].P, rec.seen[i].P)
		}
	}
}

// TestConcurrentApplySamePointKeepsOrder: the point-order sort is stable,
// so ops on one point take effect in submission order wherever the run's
// other points sort. On an absent point p, insert, delete, insert answers
// OK, Found, OK; on a stored point s, delete, insert answers Found, OK.
func TestConcurrentApplySamePointKeepsOrder(t *testing.T) {
	c, _ := newRecordingConcurrent(t)
	p := geom.Point{X: 50, Y: 5}
	s := geom.Point{X: 70, Y: 7}
	if err := c.Insert(s); err != nil {
		t.Fatal(err)
	}
	ops := []BatchOp{
		{P: p},
		{P: geom.Point{X: 90, Y: 1}},
		{Delete: true, P: s},
		{Delete: true, P: p},
		{P: geom.Point{X: 10, Y: 1}},
		{P: s},
		{P: p},
	}
	want := []BatchResult{{}, {}, {Found: true}, {Found: true}, {}, {}, {}}
	got := c.Apply(ops, nil)
	for i := range ops {
		if got[i] != want[i] {
			t.Errorf("result %d (%+v) = %+v, want %+v", i, ops[i], got[i], want[i])
		}
	}
	pts, err := c.Query(nil, geom.Rect{XLo: 0, XHi: 100, YLo: 0, YHi: geom.MaxCoord})
	if err != nil {
		t.Fatal(err)
	}
	geom.SortByX(pts)
	if fmt.Sprint(pts) != fmt.Sprint([]geom.Point{{X: 10, Y: 1}, p, s, {X: 90, Y: 1}}) {
		t.Fatalf("final contents %v", pts)
	}
}
