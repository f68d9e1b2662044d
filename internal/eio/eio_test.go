package eio

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"rangesearch/internal/geom"
)

// storeFactories lets every conformance test run against both store kinds.
func storeFactories(t *testing.T) map[string]func() Store {
	t.Helper()
	dir := t.TempDir()
	return map[string]func() Store{
		"mem": func() Store { return NewMemStore(128) },
		"file": func() Store {
			fs, err := CreateFileStore(filepath.Join(dir, "pages.db"), 128)
			if err != nil {
				t.Fatal(err)
			}
			return fs
		},
	}
}

func TestStoreConformance(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()

			if s.PageSize() != 128 {
				t.Fatalf("page size %d", s.PageSize())
			}
			id1, err := s.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if id1 == NilPage {
				t.Fatal("Alloc returned NilPage")
			}
			data := make([]byte, 128)
			for i := range data {
				data[i] = byte(i)
			}
			if err := s.Write(id1, data); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 128)
			if err := s.Read(id1, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, data) {
				t.Fatal("read back different data")
			}

			// Stats: 1 alloc, 1 write, 1 read so far.
			st := s.Stats()
			if st.Allocs != 1 || st.Writes != 1 || st.Reads != 1 {
				t.Fatalf("stats %v", st)
			}
			if st.IOs() != 2 {
				t.Fatalf("IOs %d", st.IOs())
			}

			// Free + reuse: freed page must come back zeroed.
			if err := s.Free(id1); err != nil {
				t.Fatal(err)
			}
			id2, err := s.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if id2 != id1 {
				t.Fatalf("expected page reuse, got %d after freeing %d", id2, id1)
			}
			if err := s.Read(id2, buf); err != nil {
				t.Fatal(err)
			}
			for _, b := range buf {
				if b != 0 {
					t.Fatal("reused page not zeroed")
				}
			}

			// Short write rejected.
			if err := s.Write(id2, make([]byte, 4)); !errors.Is(err, ErrPageSize) {
				t.Fatalf("short write: %v", err)
			}
			// NilPage is invalid.
			if err := s.Read(NilPage, buf); err == nil {
				t.Fatal("read of NilPage succeeded")
			}
			if err := s.Free(NilPage); err != nil {
				t.Fatal("free of NilPage must be a no-op")
			}

			if got := s.Pages(); got != 1 {
				t.Fatalf("Pages() = %d, want 1", got)
			}
			s.ResetStats()
			if s.Stats() != (Stats{}) {
				t.Fatal("ResetStats did not clear")
			}
		})
	}
}

func TestMemStoreBadPage(t *testing.T) {
	s := NewMemStore(64)
	defer s.Close()
	buf := make([]byte, 64)
	if err := s.Read(PageID(99), buf); !errors.Is(err, ErrBadPage) {
		t.Fatalf("expected ErrBadPage, got %v", err)
	}
	id, _ := s.Alloc()
	if err := s.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := s.Read(id, buf); !errors.Is(err, ErrBadPage) {
		t.Fatalf("read of freed page: %v", err)
	}
}

func TestFileStoreReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reopen.db")
	fs, err := CreateFileStore(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	id, err := fs.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xAB}, 64)
	if err := fs.Write(id, data); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if fs2.PageSize() != 64 {
		t.Fatalf("page size after reopen: %d", fs2.PageSize())
	}
	buf := make([]byte, 64)
	if err := fs2.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("data lost across reopen")
	}
	// Free list must survive reopen too.
	if err := fs2.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := fs2.Sync(); err != nil {
		t.Fatal(err)
	}
	id2, err := fs2.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id {
		t.Fatalf("free list not reused after reopen: %d vs %d", id2, id)
	}
}

// TestFileStoreNoSpace: a write the file system refuses with ENOSPC
// surfaces as ErrNoSpace, so the serving stack answers it DISKFULL. The
// Linux /dev/full device fails every write that way.
func TestFileStoreNoSpace(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	_, err := CreateFileStore("/dev/full", 128)
	if !errors.Is(err, ErrNoSpace) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("create on /dev/full: want ErrNoSpace wrapping ENOSPC, got %v", err)
	}
}

func TestPoolHitsAreFree(t *testing.T) {
	mem := NewMemStore(64)
	p := NewPool(mem, 4)
	defer p.Close()

	id, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{7}, 64)
	if err := p.Write(id, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for i := 0; i < 10; i++ {
		if err := p.Read(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	// No backing I/O yet: everything is pooled and dirty.
	if st := mem.Stats(); st.Reads != 0 || st.Writes != 0 {
		t.Fatalf("backing I/O before eviction: %v", st)
	}
	ps := p.PoolStats()
	if ps.Hits < 10 {
		t.Fatalf("expected ≥10 hits, got %+v", ps)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := mem.Stats(); st.Writes != 1 {
		t.Fatalf("flush should write once: %v", st)
	}
	if !bytes.Equal(readPage(t, mem, id), data) {
		t.Fatal("flushed data mismatch")
	}
}

func TestPoolEviction(t *testing.T) {
	mem := NewMemStore(64)
	p := NewPool(mem, 2)
	defer p.Close()

	var ids []PageID
	for i := 0; i < 5; i++ {
		id, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(id, bytes.Repeat([]byte{byte(i + 1)}, 64)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Capacity 2: at least 3 evictions with write-back must have happened.
	ps := p.PoolStats()
	if ps.Evictions < 3 || ps.Writeback < 3 {
		t.Fatalf("pool stats %+v", ps)
	}
	// All pages readable with correct contents through the pool.
	buf := make([]byte, 64)
	for i, id := range ids {
		if err := p.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i+1) {
			t.Fatalf("page %d contents %d", i, buf[0])
		}
	}
}

func TestPoolRandomizedAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	mem := NewMemStore(32)
	shadow := map[PageID][]byte{}
	p := NewPool(mem, 3)
	defer p.Close()

	var ids []PageID
	for op := 0; op < 3000; op++ {
		switch {
		case len(ids) == 0 || rng.Intn(10) == 0:
			id, err := p.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
			shadow[id] = make([]byte, 32)
		case rng.Intn(2) == 0:
			id := ids[rng.Intn(len(ids))]
			data := make([]byte, 32)
			rng.Read(data)
			if err := p.Write(id, data); err != nil {
				t.Fatal(err)
			}
			shadow[id] = data
		default:
			id := ids[rng.Intn(len(ids))]
			buf := make([]byte, 32)
			if err := p.Read(id, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, shadow[id]) {
				t.Fatalf("op %d: page %d diverged", op, id)
			}
		}
	}
}

// TestFaultStore pins the error model: Arm(k) fails the k-th operation
// from now, of any kind, once; Arm(0) disarms; Ops counts every operation
// and, separately, the mutating ones.
func TestFaultStore(t *testing.T) {
	mem := NewMemStore(64)
	f := NewFaultStore(mem, Fail, 0)
	defer f.Close()
	id, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)

	f.Arm(2)
	if err := f.Read(id, buf); err != nil {
		t.Fatalf("first read should succeed: %v", err)
	}
	if err := f.Read(id, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("second read should fail: %v", err)
	}
	if err := f.Read(id, buf); err != nil {
		t.Fatalf("fault should disarm after firing: %v", err)
	}

	f.Arm(1)
	if err := f.Write(id, buf); !errors.Is(err, ErrInjected) {
		t.Fatal("write fault did not fire")
	}
	f.Arm(1)
	if _, err := f.Alloc(); !errors.Is(err, ErrInjected) {
		t.Fatal("alloc fault did not fire")
	}
	f.Arm(1)
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatal("sync fault did not fire")
	}
	f.Arm(1)
	f.Arm(0)
	if err := f.Free(id); err != nil {
		t.Fatalf("disarmed fault fired: %v", err)
	}
	if all, mutating := f.Ops(); all != 8 || mutating != 5 {
		t.Fatalf("Ops() = %d, %d; want 8 operations, 5 of them mutating", all, mutating)
	}
}

func TestRecordStoreRoundTrip(t *testing.T) {
	mem := NewMemStore(64)
	rs := NewRecordStore(mem)
	rng := rand.New(rand.NewSource(4))

	for _, size := range []int{0, 1, 47, 48, 49, 100, 1000, 5000} {
		data := make([]byte, size)
		rng.Read(data)
		id, err := rs.Put(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rs.Get(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("size %d: round trip mismatch", size)
		}
		if want := rs.PagesFor(size); chainPages(t, rs, id) != want {
			t.Fatalf("size %d: chain has %d pages, want %d", size, chainPages(t, rs, id), want)
		}
	}
}

func TestRecordStoreUpdateGrowShrink(t *testing.T) {
	mem := NewMemStore(64)
	rs := NewRecordStore(mem)
	id, err := rs.Put(bytes.Repeat([]byte{1}, 10))
	if err != nil {
		t.Fatal(err)
	}
	before := mem.Pages()

	big := bytes.Repeat([]byte{2}, 900)
	if err := rs.Update(id, big, nil); err != nil {
		t.Fatal(err)
	}
	got, err := rs.Get(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("grown record mismatch")
	}
	if mem.Pages() <= before {
		t.Fatal("grow did not allocate pages")
	}

	small := bytes.Repeat([]byte{3}, 5)
	if err := rs.Update(id, small, nil); err != nil {
		t.Fatal(err)
	}
	got, err = rs.Get(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, small) {
		t.Fatal("shrunk record mismatch")
	}
	if mem.Pages() != before {
		t.Fatalf("shrink leaked pages: %d vs %d", mem.Pages(), before)
	}

	if err := rs.Delete(id); err != nil {
		t.Fatal(err)
	}
	if mem.Pages() != before-1 {
		t.Fatalf("delete leaked pages: %d", mem.Pages())
	}
}

func TestRecordStoreIOCost(t *testing.T) {
	mem := NewMemStore(64)
	rs := NewRecordStore(mem)
	data := make([]byte, 480) // ~10 pages at 56 payload bytes/page
	id, err := rs.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	mem.ResetStats()
	if _, err := rs.Get(id, nil); err != nil {
		t.Fatal(err)
	}
	want := uint64(rs.PagesFor(len(data)))
	if got := mem.Stats().Reads; got != want {
		t.Fatalf("reading a %d-page record cost %d reads", want, got)
	}
}

func chainPages(t *testing.T, rs *RecordStore, id PageID) int {
	t.Helper()
	pages, err := rs.chain(id)
	if err != nil {
		t.Fatal(err)
	}
	return len(pages)
}

func readPage(t *testing.T, s Store, id PageID) []byte {
	t.Helper()
	buf := make([]byte, s.PageSize())
	if err := s.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestPointBlockRoundTrip(t *testing.T) {
	mem := NewMemStore(128) // B = 8
	pts := []geom.Point{{X: -5, Y: 10}, {X: 0, Y: 0}, {X: geom.MaxCoord, Y: geom.MinCoord}}
	id, err := WritePointBlock(mem, NilPage, pts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadPointBlock(nil, mem, id, len(pts), make([]byte, mem.PageSize()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if got[i] != pts[i] {
			t.Fatalf("point %d: %v != %v", i, got[i], pts[i])
		}
	}
	// Overwrite in place keeps the id.
	id2, err := WritePointBlock(mem, id, pts[:1])
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id {
		t.Fatal("overwrite allocated a new page")
	}
	// Overfull block rejected.
	big := make([]geom.Point, 9)
	if _, err := WritePointBlock(mem, NilPage, big); err == nil {
		t.Fatal("overfull block accepted")
	}
}

func TestBlockCapacity(t *testing.T) {
	if BlockCapacity(4096) != 256 {
		t.Fatalf("BlockCapacity(4096) = %d", BlockCapacity(4096))
	}
}

// TestConcurrentStoreAccess hammers a store (and a pool over it) from many
// goroutines; run with -race to validate the locking.
func TestConcurrentStoreAccess(t *testing.T) {
	for _, wrap := range []struct {
		name string
		mk   func() Store
	}{
		{"mem", func() Store { return NewMemStore(64) }},
		{"pool", func() Store { return NewPool(NewMemStore(64), 8) }},
	} {
		t.Run(wrap.name, func(t *testing.T) {
			s := wrap.mk()
			defer s.Close()
			// Pre-allocate shared pages.
			ids := make([]PageID, 16)
			for i := range ids {
				id, err := s.Alloc()
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = id
			}
			done := make(chan error, 8)
			for g := 0; g < 8; g++ {
				go func(seed int64) {
					rng := rand.New(rand.NewSource(seed))
					buf := make([]byte, 64)
					for i := 0; i < 500; i++ {
						id := ids[rng.Intn(len(ids))]
						if rng.Intn(2) == 0 {
							rng.Read(buf)
							if err := s.Write(id, buf); err != nil {
								done <- err
								return
							}
						} else if err := s.Read(id, buf); err != nil {
							done <- err
							return
						}
					}
					done <- nil
				}(int64(g))
			}
			for g := 0; g < 8; g++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
