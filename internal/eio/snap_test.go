package eio

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func fill(ps int, b byte) []byte { return bytes.Repeat([]byte{b}, ps) }

// TestSnapStoreEpochIsolation pins the core guarantee: a view fixed at a
// pinned epoch keeps reading that epoch's page contents across later
// overwrites, frees and commits, while the writer and newer views see the
// new state.
func TestSnapStoreEpochIsolation(t *testing.T) {
	s := NewSnapStore(NewMemStore(64), 4)
	defer s.Close()
	ps := s.PageSize()

	a, _ := s.Alloc()
	b, _ := s.Alloc()
	if err := s.Write(a, fill(ps, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(b, fill(ps, 2)); err != nil {
		t.Fatal(err)
	}
	e1, err := s.Commit()
	if err != nil {
		t.Fatal(err)
	}

	// Reader pins epoch 1.
	pinned := s.Pin()
	if pinned != e1 {
		t.Fatalf("Pin = %d, want %d", pinned, e1)
	}
	v1 := s.View(pinned)

	// Writer overwrites page a, frees page b, allocates c; commits epoch 2.
	if err := s.Write(a, fill(ps, 11)); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(b); err != nil {
		t.Fatal(err)
	}
	c, _ := s.Alloc()
	if err := s.Write(c, fill(ps, 3)); err != nil {
		t.Fatal(err)
	}
	e2, err := s.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if e2 != e1+1 {
		t.Fatalf("epoch after commit = %d, want %d", e2, e1+1)
	}

	// The pinned view still sees epoch 1: old a, live b.
	buf := make([]byte, ps)
	if err := v1.Read(a, buf); err != nil || buf[0] != 1 {
		t.Fatalf("view read a = (%v, %d), want content 1", err, buf[0])
	}
	if err := v1.Read(b, buf); err != nil || buf[0] != 2 {
		t.Fatalf("view read b = (%v, %d), want content 2", err, buf[0])
	}

	// A fresh view at epoch 2 sees the new state; b is gone.
	p2 := s.Pin()
	v2 := s.View(p2)
	if err := v2.Read(a, buf); err != nil || buf[0] != 11 {
		t.Fatalf("v2 read a = (%v, %d), want content 11", err, buf[0])
	}
	if err := v2.Read(b, buf); !errors.Is(err, ErrBadPage) {
		t.Fatalf("v2 read freed b: want ErrBadPage, got %v", err)
	}
	if err := v2.Read(c, buf); err != nil || buf[0] != 3 {
		t.Fatalf("v2 read c = (%v, %d), want content 3", err, buf[0])
	}

	// Writer-side read of freed b fails; of a sees current content.
	if err := s.Read(b, buf); !errors.Is(err, ErrBadPage) {
		t.Fatalf("writer read freed b: want ErrBadPage, got %v", err)
	}
	if err := s.Read(a, buf); err != nil || buf[0] != 11 {
		t.Fatalf("writer read a = (%v, %d), want 11", err, buf[0])
	}

	// b's inner free is deferred while epoch 1 is pinned.
	if got := s.SnapStats().PendingFrees; got != 1 {
		t.Fatalf("PendingFrees = %d, want 1", got)
	}
	s.Unpin(pinned)
	s.Unpin(p2)
	if _, err := s.Commit(); err != nil { // empty commit still GCs
		t.Fatal(err)
	}
	st := s.SnapStats()
	if st.PendingFrees != 0 || st.Versions != 0 {
		t.Fatalf("after GC: %+v, want no pending frees or versions", st)
	}
}

// TestSnapStoreViewIsReadOnly pins ErrReadOnly on every mutating view
// method.
func TestSnapStoreViewIsReadOnly(t *testing.T) {
	s := NewSnapStore(NewMemStore(64), 0)
	defer s.Close()
	id, _ := s.Alloc()
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	v := s.View(s.Pin())
	if _, err := v.Alloc(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("view Alloc: %v", err)
	}
	if err := v.Free(id); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("view Free: %v", err)
	}
	if err := v.Write(id, fill(s.PageSize(), 9)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("view Write: %v", err)
	}
}

// TestSnapStoreUncommittedInvisible checks that a batch in flight is
// invisible to views — including through a TxStore, whose buffered
// transaction writes must never leak into a snapshot read.
func TestSnapStoreUncommittedInvisible(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "plain"
		if durable {
			name = "tx"
		}
		t.Run(name, func(t *testing.T) {
			var inner Store = NewMemStore(64)
			var tx *TxStore
			if durable {
				var err error
				tx, err = NewTxStore(inner, TxOptions{WALPages: 8})
				if err != nil {
					t.Fatal(err)
				}
				inner = tx
			}
			s := NewSnapStore(inner, 0)
			defer s.Close()
			ps := s.PageSize()

			id, _ := s.Alloc()
			if err := s.Write(id, fill(ps, 1)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Commit(); err != nil {
				t.Fatal(err)
			}

			v := s.View(s.Pin())
			if durable {
				if err := tx.Begin(); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Write(id, fill(ps, 99)); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, ps)
			if err := v.Read(id, buf); err != nil || buf[0] != 1 {
				t.Fatalf("mid-batch view read = (%v, %d), want committed content 1", err, buf[0])
			}
			if durable {
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Commit(); err != nil {
				t.Fatal(err)
			}
			// Still epoch-1 content after the commit — the pin holds.
			if err := v.Read(id, buf); err != nil || buf[0] != 1 {
				t.Fatalf("post-commit view read = (%v, %d), want 1", err, buf[0])
			}
		})
	}
}

// TestSnapStoreAbort checks that Abort discards the batch's capture
// bookkeeping: with a TxStore rollback restoring the inner pages, reads at
// the pinned epoch come back from the (restored) inner store.
func TestSnapStoreAbort(t *testing.T) {
	tx, err := NewTxStore(NewMemStore(64), TxOptions{WALPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSnapStore(tx, 0)
	defer s.Close()
	ps := s.PageSize()

	id, _ := s.Alloc()
	if err := s.Write(id, fill(ps, 1)); err != nil {
		t.Fatal(err)
	}
	e1, err := s.Commit()
	if err != nil {
		t.Fatal(err)
	}

	pin := s.Pin()
	if err := tx.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(id, fill(ps, 50)); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	s.Abort()

	if got := s.Epoch(); got != e1 {
		t.Fatalf("epoch after abort = %d, want %d", got, e1)
	}
	st := s.SnapStats()
	if st.Versions != 0 || st.PendingFrees != 0 {
		t.Fatalf("abort left bookkeeping: %+v", st)
	}
	buf := make([]byte, ps)
	if err := s.View(pin).Read(id, buf); err != nil || buf[0] != 1 {
		t.Fatalf("post-abort view read = (%v, %d), want 1", err, buf[0])
	}
	if err := s.Read(id, buf); err != nil || buf[0] != 1 {
		t.Fatalf("post-abort writer read = (%v, %d), want 1", err, buf[0])
	}
	s.Unpin(pin)
}

// TestSnapStorePagesAccounting checks Pages() excludes deferred frees.
func TestSnapStorePagesAccounting(t *testing.T) {
	s := NewSnapStore(NewMemStore(64), 0)
	defer s.Close()
	a, _ := s.Alloc()
	if _, err := s.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	pin := s.Pin() // blocks the free from reaching the inner store
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	if got := s.Pages(); got != 1 {
		t.Fatalf("Pages with deferred free = %d, want 1", got)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.Pages(); got != 1 {
		t.Fatalf("Pages after commit (still pinned) = %d, want 1", got)
	}
	s.Unpin(pin)
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.Pages(); got != 1 {
		t.Fatalf("Pages after GC = %d, want 1", got)
	}
	// Double free fails like any store.
	if err := s.Free(a); !errors.Is(err, ErrBadPage) {
		t.Fatalf("double free: want ErrBadPage, got %v", err)
	}
}

// TestSnapStoreConcurrentReaders hammers one writer against many readers
// under the race detector: each reader repeatedly pins an epoch, reads a
// group of pages that the writer rewrites together, and asserts the group
// is internally consistent (all pages carry the same batch stamp) — the
// multi-page torn-read case a bare store would fail.
func TestSnapStoreConcurrentReaders(t *testing.T) {
	s := NewSnapStore(NewMemStore(64), 8)
	defer s.Close()
	ps := s.PageSize()

	const npages = 6
	ids := make([]PageID, npages)
	for i := range ids {
		id, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		if err := s.Write(id, fill(ps, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	const (
		readers = 4
		rounds  = 300
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	stop := make(chan struct{})

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, ps)
			var lastEpoch uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				pin := s.Pin()
				if pin < lastEpoch {
					errs <- fmt.Errorf("epoch went backwards: %d after %d", pin, lastEpoch)
					s.Unpin(pin)
					return
				}
				lastEpoch = pin
				v := s.View(pin)
				var stamp byte
				for i, id := range ids {
					if err := v.Read(id, buf); err != nil {
						errs <- fmt.Errorf("read page %d: %w", id, err)
						s.Unpin(pin)
						return
					}
					if i == 0 {
						stamp = buf[0]
					} else if buf[0] != stamp {
						errs <- fmt.Errorf("torn snapshot at epoch %d: page %d has stamp %d, first page %d", pin, id, buf[0], stamp)
						s.Unpin(pin)
						return
					}
				}
				s.Unpin(pin)
			}
		}()
	}

	// Single writer: rewrite all pages with a new stamp each round.
	for round := 1; round <= rounds; round++ {
		stamp := byte(round % 251)
		for _, id := range ids {
			if err := s.Write(id, fill(ps, stamp)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// With every pin released and a final commit, all version memory is
	// reclaimed.
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := s.SnapStats(); st.Versions != 0 || st.Pins != 0 {
		t.Fatalf("leftover snapshot state: %+v", st)
	}
}

// newSnapFile is a SnapStore over a FileStore, the inner store whose Read
// refuses a freed page.
func newSnapFile(t *testing.T) (*SnapStore, *FileStore) {
	t.Helper()
	fs, err := CreateFileStore(t.TempDir()+"/snap.db", 64)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSnapStore(fs, 0)
	t.Cleanup(func() { s.Close() })
	return s, fs
}

// TestSnapStoreFreeKeepsCommittedImage pins why Free needs no capture: a
// view pinned before the Free reads the committed image from the inner
// page — no version, no version read — until the pin is released and a
// Commit applies the inner free.
func TestSnapStoreFreeKeepsCommittedImage(t *testing.T) {
	s, fs := newSnapFile(t)
	ps := s.PageSize()
	id, _ := s.Alloc()
	if err := s.Write(id, fill(ps, 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	pin := s.Pin()
	reads := fs.Stats().Reads
	if err := s.Free(id); err != nil {
		t.Fatal(err)
	}
	if got := fs.Stats().Reads; got != reads {
		t.Fatalf("Free read the page back: %d inner reads", got-reads)
	}
	buf := make([]byte, ps)
	for i := 0; i < 2; i++ { // before and after the Commit that publishes the free
		if err := s.View(pin).Read(id, buf); err != nil || !bytes.Equal(buf, fill(ps, 7)) {
			t.Fatalf("pinned view read of the freed page: %v", err)
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.SnapStats(); st.Versions != 0 || st.VersionReads != 0 || st.PendingFrees != 1 {
		t.Fatalf("snap stats %+v, want no versions and one pending free", st)
	}
	if err := s.Write(id, fill(ps, 8)); !errors.Is(err, ErrBadPage) {
		t.Fatalf("write of a freed page: want ErrBadPage, got %v", err)
	}
	s.Unpin(pin)
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Read(id, buf); !errors.Is(err, ErrBadPage) {
		t.Fatalf("inner read after the free applied: want ErrBadPage, got %v", err)
	}
}

// TestSnapStoreAbortUndoesFree: an aborted batch's Free leaves the page
// readable and freeable, and a version an earlier batch captured stays.
func TestSnapStoreAbortUndoesFree(t *testing.T) {
	s, fs := newSnapFile(t)
	ps := s.PageSize()
	id, _ := s.Alloc()
	if err := s.Write(id, fill(ps, 1)); err != nil {
		t.Fatal(err)
	}
	e1, err := s.Commit()
	if err != nil {
		t.Fatal(err)
	}
	pin := s.Pin()
	if err := s.Write(id, fill(ps, 2)); err != nil { // captures 1 for the pin
		t.Fatal(err)
	}
	if err := s.CommitAt(e1); err != nil { // same epoch, pinned: the version stays
		t.Fatal(err)
	}
	if err := s.Free(id); err != nil {
		t.Fatal(err)
	}
	s.Abort()
	buf := make([]byte, ps)
	if err := s.Read(id, buf); err != nil || buf[0] != 2 {
		t.Fatalf("writer read after abort = (%v, %d), want 2", err, buf[0])
	}
	if err := s.View(pin).Read(id, buf); err != nil || buf[0] != 1 {
		t.Fatalf("pinned view read after abort = (%v, %d), want the captured 1", err, buf[0])
	}
	if st := s.SnapStats(); st.Versions != 1 || st.PendingFrees != 0 {
		t.Fatalf("snap stats after abort %+v, want the one version and no pending free", st)
	}
	s.Unpin(pin)
	if err := s.Free(id); err != nil {
		t.Fatalf("free after abort: %v", err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if fs.Pages() != 0 {
		t.Fatalf("inner Pages() = %d after the free, want 0", fs.Pages())
	}
}

// TestSnapStoreFreeAllocs pins Free on a warm store at zero heap
// allocations: it records the deferral in maps that already have room.
func TestSnapStoreFreeAllocs(t *testing.T) {
	s, _ := newSnapFile(t)
	ids := make([]PageID, 128)
	for i := range ids {
		ids[i], _ = s.Alloc()
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids { // warm the maps, then undo
		if err := s.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	s.Abort()
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		if err := s.Free(ids[i]); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("SnapStore.Free: %v allocs/op, want 0", n)
	}
}

// TestSnapStoreReleasedBounded runs 10 000 alloc/free cycles, with pins
// holding some frees back, and checks that the pages SnapStore remembers as
// released are all on the inner free list.
func TestSnapStoreReleasedBounded(t *testing.T) {
	s, fs := newSnapFile(t)
	var live []PageID
	pin, pinned := uint64(0), false
	for cycle := 0; cycle < 10000; cycle++ {
		if cycle%3 != 2 || len(live) == 0 {
			id, err := s.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		} else {
			i := (cycle * 7919) % len(live)
			if err := s.Free(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		}
		if cycle%5 == 4 {
			if _, err := s.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if cycle%50 == 0 {
			if pinned {
				s.Unpin(pin)
			}
			pin, pinned = s.Pin(), true
		}
	}
	if pinned {
		s.Unpin(pin)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	free := freeList(fs)
	if len(s.released) > len(free) {
		t.Fatalf("released holds %d ids, the inner store has %d free pages", len(s.released), len(free))
	}
	for id := range s.released {
		if fs.state[id] != pageFree {
			t.Fatalf("released page %d is not free in the inner store", id)
		}
	}
	if got := fs.Pages(); got != len(live) {
		t.Fatalf("inner Pages() = %d, want %d", got, len(live))
	}
}
