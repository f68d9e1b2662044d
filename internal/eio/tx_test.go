package eio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
)

// fillPage returns a page-sized buffer stamped with b.
func fillPage(ps int, b byte) []byte { return bytes.Repeat([]byte{b}, ps) }

// walWrite is one page image of a test-built redo record.
type walWrite struct {
	id    PageID
	image []byte
}

// encodeWALRecord builds a redo record the way a transaction does: image
// slots appended after the header space, then sealed.
func encodeWALRecord(lsn uint64, writes []walWrite, pageSize int) []byte {
	rec := make([]byte, walHdrSize)
	for _, w := range writes {
		rec = append(binary.LittleEndian.AppendUint64(rec, uint64(w.id)), w.image[:pageSize]...)
	}
	return sealWALRecord(rec, lsn, len(writes), pageSize)
}

// decodeWALRecord validates a record and copies its images out.
func decodeWALRecord(buf []byte, pageSize int) (uint64, []walWrite, error) {
	lsn, m, err := checkWALRecord(buf, pageSize)
	if err != nil {
		return 0, nil, err
	}
	writes := make([]walWrite, m)
	for i := range writes {
		id, img := walImage(buf, pageSize, i)
		writes[i] = walWrite{id: id, image: bytes.Clone(img)}
	}
	return lsn, writes, nil
}

// TestTxCommitAtomic exercises the happy path: a multi-page transaction
// commits, the data is visible, and an uncommitted transaction rolls back
// without a trace. (What reaches the inner store, and when, is
// TestTxCommitForcesOnlyLog's.)
func TestTxCommitAtomic(t *testing.T) {
	tx, err := NewTxStore(NewMemStore(128), TxOptions{WALPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	var ids [3]PageID
	for i := range ids {
		if ids[i], err = tx.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Update(func() error {
		for i, id := range ids {
			if err := tx.Write(id, fillPage(128, byte(i+1))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	for i, id := range ids {
		if err := tx.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i+1) {
			t.Fatalf("page %d: committed data missing", id)
		}
	}

	// A failing transaction leaves no trace: writes vanish, allocations
	// are returned.
	pages := tx.Pages()
	boom := errors.New("boom")
	err = tx.Update(func() error {
		id, err := tx.Alloc()
		if err != nil {
			return err
		}
		if err := tx.Write(id, fillPage(128, 0xEE)); err != nil {
			return err
		}
		if err := tx.Write(ids[0], fillPage(128, 0xEE)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Update swallowed the error: %v", err)
	}
	if got := tx.Pages(); got != pages {
		t.Fatalf("rolled-back tx leaked pages: %d -> %d", pages, got)
	}
	if err := tx.Read(ids[0], buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 {
		t.Fatalf("rolled-back write reached the store")
	}
}

// TestTxReadYourWrites pins that a transaction observes its own buffered
// writes and deferred frees.
func TestTxReadYourWrites(t *testing.T) {
	tx, err := NewTxStore(NewMemStore(128), TxOptions{WALPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	a, _ := tx.Alloc()
	b, _ := tx.Alloc()
	if err := tx.Write(a, fillPage(128, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(a, fillPage(128, 2)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if err := tx.Read(a, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 2 {
		t.Fatalf("read did not see buffered write: %d", buf[0])
	}
	if err := tx.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := tx.Read(b, buf); !errors.Is(err, ErrBadPage) {
		t.Fatalf("read of tx-freed page: %v", err)
	}
	if err := tx.Write(b, fillPage(128, 3)); !errors.Is(err, ErrBadPage) {
		t.Fatalf("write of tx-freed page: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestTxOverflow pins ErrTxOverflow when a transaction outgrows its WAL.
func TestTxOverflow(t *testing.T) {
	tx, err := NewTxStore(NewMemStore(128), TxOptions{WALPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	max := (2*128 - 16 - 4) / (8 + 128)
	ids := make([]PageID, max+1)
	for i := range ids {
		ids[i], _ = tx.Alloc()
	}
	err = tx.Update(func() error {
		for _, id := range ids {
			if err := tx.Write(id, fillPage(128, 7)); err != nil {
				return err
			}
		}
		return nil
	})
	if !errors.Is(err, ErrTxOverflow) {
		t.Fatalf("want ErrTxOverflow, got %v", err)
	}
}

// TestTxComposition drives a transaction through the wrapper stack
// TxStore ∘ FaultStore ∘ TraceStore ∘ FileStore, pinning that sync and
// page listing traverse the stack.
func TestTxComposition(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stack.db")
	fs, err := CreateFileStore(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTraceStore(fs)
	cs := NewFaultStore(tr, Cached, 42)
	tx, err := NewTxStore(cs, TxOptions{WALPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	id, err := tx.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(func() error { return tx.Write(id, fillPage(128, 0x55)) }); err != nil {
		t.Fatal(err)
	}
	anchor := tx.Anchor()
	// The committed write must be durable on the FILE despite the crash
	// cache in the middle: commit's sync barrier has to reach FileStore
	// through FaultStore and TraceStore.
	if _, err := cs.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := fs.CloseCrash(); err != nil {
		t.Fatal(err)
	}
	fs2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := OpenTxStore(fs2, anchor)
	if err != nil {
		t.Fatal(err)
	}
	defer tx2.Close()
	buf := make([]byte, 128)
	if err := tx2.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x55 {
		t.Fatalf("committed write lost across crash: %#x", buf[0])
	}
	if _, err := tx2.LivePageIDs(); err != nil {
		t.Fatalf("page listing does not traverse the stack: %v", err)
	}
}

// TestTxSequentialCommits pins that the WAL ring is safely reused across
// many commits (a checkpoint retires the lap before its first record is
// overwritten) and that recovery on a cleanly closed store is a no-op.
func TestTxSequentialCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seq.db")
	fs, err := CreateFileStore(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := NewTxStore(fs, TxOptions{WALPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := tx.Alloc()
	for i := 0; i < 20; i++ {
		if err := tx.Update(func() error { return tx.Write(id, fillPage(128, byte(i))) }); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	anchor := tx.Anchor()
	if err := tx.Close(); err != nil {
		t.Fatal(err)
	}
	fs2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := OpenTxStore(fs2, anchor)
	if err != nil {
		t.Fatal(err)
	}
	defer tx2.Close()
	if r := tx2.Recovery(); r.Dirty() {
		t.Fatalf("clean close needed recovery: %s", r)
	}
	buf := make([]byte, 128)
	if err := tx2.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 19 {
		t.Fatalf("lost commits: page holds %d", buf[0])
	}
}

// TestWALRecordRoundTrip pins the record codec against hostile mutations.
func TestWALRecordRoundTrip(t *testing.T) {
	const ps = 64
	writes := []walWrite{
		{id: 3, image: fillPage(ps, 1)},
		{id: 9, image: fillPage(ps, 2)},
	}
	rec := encodeWALRecord(7, writes, ps)
	lsn, got, err := decodeWALRecord(rec, ps)
	if err != nil || lsn != 7 || len(got) != 2 {
		t.Fatalf("round trip: lsn=%d n=%d err=%v", lsn, len(got), err)
	}
	if got[0].id != 3 || got[1].id != 9 || got[1].image[0] != 2 {
		t.Fatal("round trip corrupted images")
	}
	// Any single-bit flip must be detected.
	for i := 0; i < len(rec); i += 13 {
		mut := bytes.Clone(rec)
		mut[i] ^= 0x40
		if _, _, err := decodeWALRecord(mut, ps); err == nil {
			t.Fatalf("bit flip at byte %d undetected", i)
		}
	}
	// Truncations must error, not panic.
	for n := 0; n < len(rec); n += 7 {
		if _, _, err := decodeWALRecord(rec[:n], ps); err == nil {
			t.Fatalf("truncation to %d bytes undetected", n)
		}
	}
}

// syncCounter counts the durability barriers a TxStore issues.
type syncCounter struct {
	Store
	syncs int
}

func (s *syncCounter) Sync() error { s.syncs++; return nil }

// TestTxOneSyncPerCommit pins the protocol's price: every commit pays one
// barrier, a checkpoint two more, and the store's own counters say so —
// barriers issued = Commits + 2·Checkpoints.
func TestTxOneSyncPerCommit(t *testing.T) {
	sc := &syncCounter{Store: NewMemStore(128)}
	tx, err := NewTxStore(sc, TxOptions{WALPages: 8}) // a one-image record is 2 pages: 4 commits a lap
	if err != nil {
		t.Fatal(err)
	}
	id, _ := tx.Alloc()
	sc.syncs = 0
	before := tx.Timings()
	const commits = 21
	for i := 0; i < commits; i++ {
		if err := tx.Update(func() error { return tx.Write(id, fillPage(128, byte(i))) }); err != nil {
			t.Fatal(err)
		}
	}
	tm := tx.Timings().Sub(before)
	if tm.Commits != commits || tm.Checkpoints != 5 {
		t.Fatalf("commits %d checkpoints %d, want %d and 5", tm.Commits, tm.Checkpoints, commits)
	}
	if want := int(tm.Commits + 2*tm.Checkpoints); sc.syncs != want {
		t.Fatalf("%d barriers issued, counters predict %d", sc.syncs, want)
	}
}

// TestTxHeldFrees pins the free discipline: a freed page is gone for every
// reader of the TxStore at once, but reaches the inner allocator only at
// the checkpoint that retires the records which could still rewrite it.
func TestTxHeldFrees(t *testing.T) {
	mem := NewMemStore(128)
	tx, err := NewTxStore(mem, TxOptions{WALPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	a, _ := tx.Alloc()
	b, _ := tx.Alloc()
	if err := tx.Update(func() error { return tx.Write(a, fillPage(128, 1)) }); err != nil {
		t.Fatal(err)
	}
	pages, inner := tx.Pages(), mem.Pages()
	if err := tx.Update(func() error { return tx.Free(a) }); err != nil { // in a transaction
		t.Fatal(err)
	}
	if err := tx.Free(b); err != nil { // outside one, ring not empty
		t.Fatal(err)
	}
	if got := tx.Pages(); got != pages-2 {
		t.Fatalf("Pages = %d after two frees, want %d", got, pages-2)
	}
	if mem.Pages() != inner {
		t.Fatalf("a free reached the inner store before the checkpoint")
	}
	live, err := tx.LivePageIDs()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range live {
		if id == a || id == b {
			t.Fatalf("LivePageIDs lists freed page %d", id)
		}
	}
	buf := make([]byte, 128)
	if err := tx.Read(a, buf); !errors.Is(err, ErrBadPage) {
		t.Fatalf("read of a held-free page: %v", err)
	}
	if err := tx.Free(b); !errors.Is(err, ErrBadPage) {
		t.Fatalf("double free of a held page: %v", err)
	}
	if id, _ := tx.Alloc(); id == a || id == b {
		t.Fatalf("allocator reused page %d while a record naming it is still in the ring", id)
	}
	if err := tx.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := mem.Pages(); got != inner-2+1 {
		t.Fatalf("inner store holds %d pages after the checkpoint, want %d", got, inner-2+1)
	}
	if got := tx.Pages(); got != pages-2+1 {
		t.Fatalf("Pages = %d after the checkpoint, want %d", got, pages-2+1)
	}
}

// TestTxOpensSingleRecordLayout opens files as the previous, single-record
// protocol left them — one record at WAL byte 0 — under the ring protocol:
// cleanly closed (the record is history, LSN = anchor) and killed
// mid-commit (LSN = anchor + 1, in-place writes missing).
func TestTxOpensSingleRecordLayout(t *testing.T) {
	const ps = 128
	for _, crashed := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "old.db")
		fs, err := CreateFileStore(path, ps)
		if err != nil {
			t.Fatal(err)
		}
		tx, err := NewTxStore(fs, TxOptions{WALPages: 8})
		if err != nil {
			t.Fatal(err)
		}
		var writes []walWrite
		for i := 0; i < 3; i++ {
			id, _ := tx.Alloc()
			if err := tx.Write(id, fillPage(ps, 0xAA)); err != nil {
				t.Fatal(err)
			}
			writes = append(writes, walWrite{id: id, image: fillPage(ps, byte(0xB0+i))})
		}
		// The old Commit of LSN 1: record over the region from page 0, then
		// (unless it died first) the images in place and the anchor bumped.
		rec := encodeWALRecord(1, writes, ps)
		for i := 0; len(rec) > 0; i++ {
			page := make([]byte, ps)
			rec = rec[copy(page, rec):]
			if err := fs.Write(tx.walIDs[i], page); err != nil {
				t.Fatal(err)
			}
		}
		if !crashed {
			for _, w := range writes {
				if err := fs.Write(w.id, w.image); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.writeAnchor(1-tx.slot, tx.seq+1, 1); err != nil {
				t.Fatal(err)
			}
		}
		anchor := tx.Anchor()
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}

		fs2, err := OpenFileStore(path)
		if err != nil {
			t.Fatal(err)
		}
		tx2, err := OpenTxStore(fs2, anchor)
		if err != nil {
			t.Fatalf("crashed=%v: open: %v", crashed, err)
		}
		if ri := tx2.Recovery(); ri.Replayed != crashed || (crashed && (ri.Records != 1 || ri.LSN != 1)) {
			t.Fatalf("crashed=%v: recovery %s", crashed, ri)
		}
		if got := tx2.AppliedLSN(); got != 1 {
			t.Fatalf("crashed=%v: AppliedLSN %d, want 1", crashed, got)
		}
		buf := make([]byte, ps)
		for _, w := range writes {
			if err := tx2.Read(w.id, buf); err != nil || buf[0] != w.image[0] {
				t.Fatalf("crashed=%v: page %d = %#x, %v", crashed, w.id, buf[0], err)
			}
		}
		// The old file keeps working as a ring: the next commit is LSN 2.
		if err := tx2.Update(func() error { return tx2.Write(writes[0].id, fillPage(ps, 0xC0)) }); err != nil {
			t.Fatal(err)
		}
		if got := tx2.AppliedLSN(); got != 2 {
			t.Fatalf("crashed=%v: next commit got LSN %d, want 2", crashed, got)
		}
		if err := tx2.Close(); err != nil {
			t.Fatal(err)
		}
		if rep, err := VerifyFile(path); err != nil || rep.Damaged() {
			t.Fatalf("crashed=%v: verify: %v\n%s", crashed, err, rep)
		}
	}
}

// TestInspectTxLayerRing pins what rsinspect wal reports for each kind of
// record a ring can hold.
func TestInspectTxLayerRing(t *testing.T) {
	mem := NewMemStore(128)
	tx, err := NewTxStore(mem, TxOptions{WALPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := tx.Alloc()
	commit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := tx.Update(func() error { return tx.Write(id, fillPage(128, 1)) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	states := func() string {
		t.Helper()
		info, err := InspectTxLayer(mem, tx.Anchor())
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		fmt.Fprintf(&b, "applied=%d unapplied=%d healthy=%v:", info.Applied, info.Unapplied, info.Healthy())
		for _, r := range info.Records {
			fmt.Fprintf(&b, " %d/%s", r.LSN, r.State)
		}
		return b.String()
	}
	commit(3)
	if got, want := states(), "applied=0 unapplied=3 healthy=true: 1/committed-unapplied 2/committed-unapplied 3/committed-unapplied"; got != want {
		t.Fatalf("un-checkpointed ring:\n got %s\nwant %s", got, want)
	}
	if err := tx.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, want := states(), "applied=3 unapplied=0 healthy=true: 1/applied 2/applied 3/applied"; got != want {
		t.Fatalf("checkpointed ring:\n got %s\nwant %s", got, want)
	}
	commit(1) // the next lap overwrites record 1; 2 and 3 are left over
	if got, want := states(), "applied=3 unapplied=1 healthy=true: 4/committed-unapplied 2/stale 3/stale"; got != want {
		t.Fatalf("second lap:\n got %s\nwant %s", got, want)
	}
	// A commit that died after its first WAL page: magic, no valid CRC.
	torn := fillPage(128, 0)
	copy(torn, walMagic)
	if err := mem.Write(tx.walIDs[2], torn); err != nil {
		t.Fatal(err)
	}
	if got, want := states(), "applied=3 unapplied=1 healthy=false: 4/committed-unapplied 0/torn"; got != want {
		t.Fatalf("torn tail:\n got %s\nwant %s", got, want)
	}
}
