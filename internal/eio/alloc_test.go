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

// TestRecordStoreUpdateThroughBuf: an Update of the record a RecordBuf last
// read takes the chain from the buffer — zero reads, zero allocations, the
// same chain as a walking Update would leave — across growing and
// shrinking; a buffer that has since read another record, or whose Update
// failed, makes Update walk again instead of trusting it.
func TestRecordStoreUpdateThroughBuf(t *testing.T) {
	mem := NewMemStore(128)
	faulty := NewFaultStore(mem, Fail, 0)
	rs := NewRecordStore(faulty)
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	id, err := rs.Put(fill(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	other, err := rs.Put(fill(300, 9))
	if err != nil {
		t.Fatal(err)
	}
	var buf RecordBuf
	base := mem.Pages()
	for i, size := range []int{100, 300, 301, 120, 500, 90} { // 1, 3, 3, 1, 5, 1 pages
		data := fill(size, byte(10+i))
		if _, err := rs.Get(id, &buf); err != nil {
			t.Fatal(err)
		}
		mem.ResetStats()
		if err := rs.Update(id, data, &buf); err != nil {
			t.Fatal(err)
		}
		if st := mem.Stats(); st.Reads != 0 || int(st.Writes) != rs.PagesFor(size) {
			t.Errorf("Update to %d bytes after a Get into the same buffer: %d reads, %d writes; want 0 and %d", size, st.Reads, st.Writes, rs.PagesFor(size))
		}
		// The buffer describes the new chain: a second Update needs no Get.
		mem.ResetStats()
		if err := rs.Update(id, data, &buf); err != nil {
			t.Fatal(err)
		}
		if r := mem.Stats().Reads; r != 0 {
			t.Errorf("second Update through the buffer: %d reads", r)
		}
		if got, err := rs.Get(id, nil); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("record after Update to %d bytes: %v, equal=%v", size, err, bytes.Equal(got, data))
		}
		if got, want := mem.Pages(), base-1+rs.PagesFor(size); got != want {
			t.Fatalf("after Update to %d bytes the store holds %d pages, want %d", size, got, want)
		}
	}

	// Warm, same-size rewrite: nothing to allocate.
	data := fill(300, 7)
	if err := rs.Update(id, data, &buf); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := rs.Update(id, data, &buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Update through a warm buffer: %v allocs/op, want 0", n)
	}

	// The buffer moves on to another record: Update of id walks.
	if _, err := rs.Get(other, &buf); err != nil {
		t.Fatal(err)
	}
	mem.ResetStats()
	if err := rs.Update(id, data, &buf); err != nil {
		t.Fatal(err)
	}
	if r := mem.Stats().Reads; int(r) != rs.PagesFor(len(data)) {
		t.Errorf("Update through a buffer holding another record: %d reads, want a %d-page walk", r, rs.PagesFor(len(data)))
	}

	// A failed Update leaves the buffer describing nothing.
	faulty.Arm(2) // through a warm buffer Update only writes
	if err := rs.Update(id, data, &buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("Update with the second write failing: %v", err)
	}
	mem.ResetStats()
	if err := rs.Update(id, data, &buf); err != nil {
		t.Fatal(err)
	}
	if r := mem.Stats().Reads; r == 0 {
		t.Error("Update after a failed Update trusted the buffer")
	}
}

// TestRecordStoreShrinkReadableAfterFault: a record that shrinks across a
// page boundary stays readable whichever of the Update's operations fails
// (three writes, then three frees) — its head goes first, so the old
// length never outlives the pages it needs.
func TestRecordStoreShrinkReadableAfterFault(t *testing.T) {
	for k := 1; k <= 6; k++ {
		mem := NewMemStore(128)
		faulty := NewFaultStore(mem, Fail, 0)
		rs := NewRecordStore(faulty)
		id, err := rs.Put(bytes.Repeat([]byte{1}, 600)) // 6 pages
		if err != nil {
			t.Fatal(err)
		}
		var buf RecordBuf
		if _, err := rs.Get(id, &buf); err != nil {
			t.Fatal(err)
		}
		faulty.Arm(k)
		if err := rs.Update(id, bytes.Repeat([]byte{2}, 300), &buf); !errors.Is(err, ErrInjected) {
			t.Fatalf("op %d failing: Update returned %v", k, err)
		}
		got, err := rs.Get(id, nil)
		if err != nil {
			t.Fatalf("op %d failing: record unreadable afterwards: %v", k, err)
		}
		if len(got) != 600 && len(got) != 300 {
			t.Fatalf("op %d failing: record reads as %d bytes", k, len(got))
		}
	}
}
