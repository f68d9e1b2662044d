package eio

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// These tests pin the SnapStore∘Pool composition — the stack rsserve -pool
// serves over a non-durable file store. The interesting
// interactions are between snapshot version capture (which reads the
// pre-image through the pool, possibly from a dirty frame that never
// reached the backing store) and the pool's write-back/eviction machinery,
// plus deferred frees flowing through Pool.Free's drop-without-writeback
// path. (The test names still say ShardPool, after the striped pool that
// backed -pool before Pool did, so their ids stay put.)

// newSnapPoolStack builds SnapStore(Pool(MemStore)) with a pool small
// enough that a handful of pages forces evictions.
func newSnapPoolStack(poolCap int) (*SnapStore, *Pool, *MemStore) {
	mem := NewMemStore(64)
	p := NewPool(mem, poolCap)
	return NewSnapStore(p, 8), p, mem
}

func genPage(ps int, tag byte, gen byte) []byte {
	b := bytes.Repeat([]byte{tag}, ps)
	b[0] = gen
	return b
}

// TestSnapShardPoolIsolation checks that a pinned epoch keeps reading its
// page images while the writer overwrites them through the pool —
// including across an explicit pool Flush, which moves dirty frames to the
// backing store underneath the version chains.
func TestSnapShardPoolIsolation(t *testing.T) {
	snap, pool, _ := newSnapPoolStack(4)
	defer snap.Close()
	ps := snap.PageSize()

	// More pages than pool frames.
	const n = 10
	ids := make([]PageID, n)
	for i := range ids {
		id, err := snap.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		if err := snap.Write(id, genPage(ps, byte(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := snap.Commit(); err != nil {
		t.Fatal(err)
	}

	epoch := snap.Pin()
	view := snap.View(epoch)

	// Overwrite every page; capture must fetch generation-1 images through
	// the pool (some resident, some already evicted to backing).
	for i, id := range ids {
		if err := snap.Write(id, genPage(ps, byte(i), 2)); err != nil {
			t.Fatal(err)
		}
	}
	// Flush mid-batch: write-back of generation-2 frames must not disturb
	// the captured generation-1 versions.
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Commit(); err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, ps)
	for i, id := range ids {
		if err := view.Read(id, buf); err != nil {
			t.Fatalf("view read page %d: %v", id, err)
		}
		if !bytes.Equal(buf, genPage(ps, byte(i), 1)) {
			t.Fatalf("pinned view of page %d saw generation %d, want 1", id, buf[0])
		}
		if err := snap.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, genPage(ps, byte(i), 2)) {
			t.Fatalf("writer read of page %d saw generation %d, want 2", id, buf[0])
		}
	}
	snap.Unpin(epoch)
}

// TestSnapShardPoolDeferredFree checks that a free deferred behind a pin
// flows through the pool (dropping any resident frame) only after the pin
// drains, and that the composed stack then scrubs clean via the delegated
// LivePageIDs.
func TestSnapShardPoolDeferredFree(t *testing.T) {
	snap, _, mem := newSnapPoolStack(2)
	defer snap.Close()
	ps := snap.PageSize()

	keep, err := snap.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	victim, err := snap.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Write(keep, genPage(ps, 0xAA, 1)); err != nil {
		t.Fatal(err)
	}
	if err := snap.Write(victim, genPage(ps, 0xBB, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Commit(); err != nil {
		t.Fatal(err)
	}

	epoch := snap.Pin()
	view := snap.View(epoch)
	if err := snap.Free(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Commit(); err != nil {
		t.Fatal(err)
	}

	// The pin holds the free back: the view still reads the page, the
	// backing store still owns it.
	buf := make([]byte, ps)
	if err := view.Read(victim, buf); err != nil {
		t.Fatalf("pinned view lost deferred-freed page: %v", err)
	}
	if !bytes.Equal(buf, genPage(ps, 0xBB, 1)) {
		t.Fatal("pinned view of deferred-freed page corrupted")
	}
	if err := snap.Read(victim, buf); !errors.Is(err, ErrBadPage) {
		t.Fatalf("writer read of freed page: want ErrBadPage, got %v", err)
	}
	if got := mem.Pages(); got != 2 {
		t.Fatalf("backing freed page under a pin: %d pages, want 2", got)
	}

	snap.Unpin(epoch)
	if _, err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := mem.Pages(); got != 1 {
		t.Fatalf("deferred free never applied: backing has %d pages, want 1", got)
	}

	// Quiescent now: scrubbing through the full composition must agree
	// with the backing store and report no leaks.
	rep, err := FindLeaks(snap, []PageID{keep})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Allocated != 1 || len(rep.Leaked) != 0 {
		t.Fatalf("scrub through snap∘pool: allocated=%d leaked=%v, want 1 and none", rep.Allocated, rep.Leaked)
	}
}

// TestSnapShardPoolLivePageIDsDelegation checks the PageLister delegation
// chain: SnapStore → Pool → backing, with dirty unflushed frames
// (allocation state lives in the backing store, so no flush is needed),
// and the error path when the backing store cannot enumerate.
func TestSnapShardPoolLivePageIDsDelegation(t *testing.T) {
	snap, _, mem := newSnapPoolStack(2)
	defer snap.Close()
	var ids []PageID
	for i := 0; i < 5; i++ {
		id, err := snap.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	got, err := snap.LivePageIDs()
	if err != nil {
		t.Fatal(err)
	}
	want, err := mem.LivePageIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ids) || len(got) != len(want) {
		t.Fatalf("LivePageIDs through composition: %d ids, backing %d, allocated %d", len(got), len(want), len(ids))
	}

	// A backing store without PageLister surfaces a clear error, not a
	// panic, through both layers.
	blind := NewSnapStore(NewPool(bareStore{NewMemStore(64)}, 2), 0)
	defer blind.Close()
	if _, err := blind.LivePageIDs(); err == nil {
		t.Fatal("LivePageIDs over non-enumerable backing: want error, got nil")
	}
}

// bareStore wraps a store without forwarding LivePageIDs, so the wrapped
// value is a Store but not a PageLister (embedding would promote the
// method; explicit delegation avoids that).
type bareStore struct{ inner Store }

func (b bareStore) PageSize() int                   { return b.inner.PageSize() }
func (b bareStore) Alloc() (PageID, error)          { return b.inner.Alloc() }
func (b bareStore) Free(id PageID) error            { return b.inner.Free(id) }
func (b bareStore) Read(id PageID, p []byte) error  { return b.inner.Read(id, p) }
func (b bareStore) Write(id PageID, p []byte) error { return b.inner.Write(id, p) }
func (b bareStore) Stats() Stats                    { return b.inner.Stats() }
func (b bareStore) ResetStats()                     { b.inner.ResetStats() }
func (b bareStore) Pages() int                      { return b.inner.Pages() }
func (b bareStore) Close() error                    { return b.inner.Close() }

// TestSnapShardPoolConcurrentReaders runs pinned readers against a writer
// that keeps overwriting and committing through the pool — the
// raw-page analogue of the serving loop. Every reader must see a fully
// consistent generation for its pinned epoch on every page.
func TestSnapShardPoolConcurrentReaders(t *testing.T) {
	snap, _, _ := newSnapPoolStack(4)
	defer snap.Close()
	ps := snap.PageSize()

	const n = 16
	ids := make([]PageID, n)
	for i := range ids {
		id, err := snap.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		if err := snap.Write(id, genPage(ps, byte(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := snap.Commit(); err != nil {
		t.Fatal(err)
	}

	const rounds = 40
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			buf := make([]byte, ps)
			for k := 0; k < rounds; k++ {
				epoch := snap.Pin()
				view := snap.View(epoch)
				// Within one pinned epoch, every page must carry the same
				// generation byte.
				var gen byte
				ok := true
				for i, id := range ids {
					if err := view.Read(id, buf); err != nil {
						errc <- fmt.Errorf("reader: page %d: %w", id, err)
						ok = false
						break
					}
					if buf[1] != byte(i) {
						errc <- fmt.Errorf("reader: page %d tag mismatch", id)
						ok = false
						break
					}
					if i == 0 {
						gen = buf[0]
					} else if buf[0] != gen {
						errc <- fmt.Errorf("reader: epoch %d mixed generations %d and %d", epoch, gen, buf[0])
						ok = false
						break
					}
				}
				snap.Unpin(epoch)
				if !ok {
					return
				}
			}
		}(r)
	}

	for g := byte(2); g <= rounds; g++ {
		for i, id := range ids {
			b := genPage(ps, byte(i), g)
			if err := snap.Write(id, b); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := snap.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
