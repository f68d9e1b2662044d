package eio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"path/filepath"
	"testing"
)

// The allocation guards pin the page path's steady state at zero heap
// allocations per operation: a page moves pread → FileStore slot → pool
// frame → caller buffer through memory each layer already owns. They run
// warm (buffers grown, maps sized) because that is the state a serving
// process is in; testing.AllocsPerRun itself does one untimed warm-up call.

func TestFileStoreReadWriteAllocFree(t *testing.T) {
	fs, err := CreateFileStore(filepath.Join(t.TempDir(), "alloc.db"), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	id, err := fs.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{0xab}, 256)
	if n := testing.AllocsPerRun(100, func() {
		if err := fs.Write(id, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("FileStore.Write: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := fs.Read(id, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("FileStore.Read: %v allocs/op, want 0", n)
	}
}

func TestPoolAllocFree(t *testing.T) {
	mem := NewMemStore(128)
	p := NewPool(mem, 2)
	defer p.Close()
	var ids [4]PageID
	for i := range ids {
		id, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	buf := make([]byte, 128)

	// Hit: the most recently allocated page is resident.
	if n := testing.AllocsPerRun(100, func() {
		if err := p.Read(ids[3], buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Pool.Read hit: %v allocs/op, want 0", n)
	}

	// Steady-state misses over a working set twice the pool: every write
	// misses and leaves a dirty frame, every read misses and evicts one.
	i := 0
	before := p.PoolStats()
	const runs = 200
	if n := testing.AllocsPerRun(runs, func() {
		if err := p.Write(ids[i%4], buf); err != nil {
			t.Fatal(err)
		}
		if err := p.Read(ids[(i+2)%4], buf); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("Pool miss with dirty eviction: %v allocs/op, want 0", n)
	}
	d := p.PoolStats()
	if misses := d.Misses - before.Misses; misses != 2*(runs+1) {
		t.Errorf("measured loop missed %d times, want %d (the guard must measure misses)", misses, 2*(runs+1))
	}
	if wb := d.Writeback - before.Writeback; wb < runs {
		t.Errorf("measured loop wrote back %d dirty victims, want ≥ %d", wb, runs)
	}
}

func TestRecordStoreGetAllocFree(t *testing.T) {
	mem := NewMemStore(128)
	rs := NewRecordStore(mem)
	for _, size := range []int{100, 300} { // 1 and 3 pages of 128 bytes
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i*7 + size)
		}
		id, err := rs.Put(data)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := chainPages(t, rs, id), rs.PagesFor(size); got != want {
			t.Fatalf("%d-byte record occupies %d pages, want %d", size, got, want)
		}
		var buf RecordBuf
		if n := testing.AllocsPerRun(100, func() {
			got, err := rs.Get(id, &buf)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("record contents differ")
			}
		}); n != 0 {
			t.Errorf("RecordStore.Get of a %d-page record into a warm buffer: %v allocs/op, want 0", rs.PagesFor(size), n)
		}
	}
}

// TestRecordStoreGetCorruptLength: a head page that claims 2³⁹ bytes must
// fail with ErrBadRecord once the chain runs out, having grown the
// destination only by the pages that were actually there.
func TestRecordStoreGetCorruptLength(t *testing.T) {
	const ps = 128
	mem := NewMemStore(ps)
	rs := NewRecordStore(mem)
	id, err := rs.Put(make([]byte, 300)) // a 3-page chain
	if err != nil {
		t.Fatal(err)
	}
	head := readPage(t, mem, id)
	binary.LittleEndian.PutUint64(head[8:], 1<<39)
	if err := mem.Write(id, head); err != nil {
		t.Fatal(err)
	}
	var buf RecordBuf
	if _, err := rs.Get(id, &buf); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("Get of a record claiming 2^39 bytes: %v, want ErrBadRecord", err)
	}
	// Doubling growth may overshoot the three pages read, but not by more
	// than a factor of two — and certainly not to the claimed half terabyte.
	if len(buf.b) > 2*3*ps {
		t.Fatalf("Get grew its buffer to %d bytes for a 3-page (%d-byte) chain", len(buf.b), 3*ps)
	}
	binary.LittleEndian.PutUint64(head[8:], maxRecordLen+1)
	if err := mem.Write(id, head); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Get(id, nil); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("Get of a record claiming more than the maximum length: %v, want ErrBadRecord", err)
	}
}

// TestPageCRCMatchesLibrary pins the hand-folded id prefix of pageCRC to
// the library computation it replaces (the on-disk format depends on it).
func TestPageCRCMatchesLibrary(t *testing.T) {
	data := []byte("a page's worth of bytes, more or less")
	for _, id := range []PageID{0, 1, 2, 255, 256, 1 << 20, 0xdeadbeefcafe, ^PageID(0)} {
		var idb [8]byte
		binary.LittleEndian.PutUint64(idb[:], uint64(id))
		want := crc32.Update(crc32.Update(0, castagnoli, idb[:]), castagnoli, data)
		if got := pageCRC(id, data); got != want {
			t.Errorf("pageCRC(%d) = %08x, library says %08x", id, got, want)
		}
	}
}
