package eio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzRecordRoundTrip feeds arbitrary payloads and page sizes through the
// record store. Run with `go test -fuzz=FuzzRecordRoundTrip ./internal/eio`
// to explore; the seed corpus runs as an ordinary test.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint16(32))
	f.Add([]byte("hello"), uint16(32))
	f.Add(bytes.Repeat([]byte{0xAA}, 1000), uint16(48))
	f.Add([]byte{1, 2, 3}, uint16(4096))
	f.Fuzz(func(t *testing.T, data []byte, pageSize16 uint16) {
		pageSize := int(pageSize16)
		if pageSize < 24 || pageSize > 1<<16 {
			t.Skip()
		}
		if len(data) > 1<<16 {
			t.Skip()
		}
		store := NewMemStore(pageSize)
		defer store.Close()
		rs := NewRecordStore(store)
		id, err := rs.Put(data)
		if err != nil {
			t.Fatalf("put: %v", err)
		}
		got, err := rs.Get(id, nil)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip mismatch: %d vs %d bytes", len(got), len(data))
		}
		// Update to a mutated payload, then delete; nothing may leak.
		mutated := append(append([]byte{0x42}, data...), 0x17)
		if err := rs.Update(id, mutated, nil); err != nil {
			t.Fatalf("update: %v", err)
		}
		got, err = rs.Get(id, nil)
		if err != nil || !bytes.Equal(got, mutated) {
			t.Fatalf("update round trip: %v", err)
		}
		if err := rs.Delete(id); err != nil {
			t.Fatalf("delete: %v", err)
		}
		if store.Pages() != 0 {
			t.Fatalf("%d pages leaked", store.Pages())
		}
	})
}

// FuzzWALRecord throws arbitrary bytes at the redo-record parser. The
// contract under attack: hostile WAL contents (torn tails, bit rot, stale
// records from a smaller page size) must come back as an error, never as a
// panic or an out-of-range page image.
func FuzzWALRecord(f *testing.F) {
	good := encodeWALRecord(7, []walWrite{
		{id: 3, image: bytes.Repeat([]byte{0x11}, 64)},
		{id: 9, image: bytes.Repeat([]byte{0x22}, 64)},
	}, 64)
	f.Add(good, uint16(64))
	f.Add(good[:len(good)-5], uint16(64)) // torn tail
	f.Add(good, uint16(32))               // parsed at the wrong page size
	f.Add([]byte{}, uint16(64))
	f.Add(make([]byte, 256), uint16(64)) // all zeros: the erased-WAL state
	f.Fuzz(func(t *testing.T, data []byte, pageSize16 uint16) {
		pageSize := int(pageSize16)
		if pageSize < minTxPageSize || pageSize > 1<<15 {
			t.Skip()
		}
		lsn, writes, err := decodeWALRecord(data, pageSize)
		if err != nil {
			return
		}
		// Whatever decoded must be internally consistent: full-page images
		// only, valid ids, and it must re-encode to a decodable record.
		for _, w := range writes {
			if len(w.image) != pageSize {
				t.Fatalf("decoded image of %d bytes, page size %d", len(w.image), pageSize)
			}
			if w.id == NilPage {
				t.Fatal("decoded a write to NilPage")
			}
		}
		re := encodeWALRecord(lsn, writes, pageSize)
		lsn2, writes2, err := decodeWALRecord(re, pageSize)
		if err != nil || lsn2 != lsn || len(writes2) != len(writes) {
			t.Fatalf("re-encode round trip: lsn %d/%d, %d/%d writes, %v",
				lsn, lsn2, len(writes), len(writes2), err)
		}
	})
}

// FuzzVerifyFile feeds arbitrary bytes to the on-disk verifier as if they
// were a store file. VerifyFile inspects untrusted input by design
// (rsinspect points it at whatever path the operator names), so it must
// return an error or a damage report — never panic or loop.
func FuzzVerifyFile(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a store"))
	f.Add(make([]byte, 4096))
	// A genuine (tiny) store file as a seed so the fuzzer can mutate from a
	// valid superblock.
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.db")
	fs, err := CreateFileStore(path, 32)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := fs.Alloc(); err != nil {
		f.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip()
		}
		p := filepath.Join(t.TempDir(), "fuzz.db")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := VerifyFile(p)
		if err == nil && rep == nil {
			t.Fatal("VerifyFile returned neither report nor error")
		}
	})
}

// FuzzAnchor does the same for the anchor codec: arbitrary bytes either
// fail or decode to values that survive a round trip.
func FuzzAnchor(f *testing.F) {
	f.Add(encodeAnchor(1, 0))
	f.Add(encodeAnchor(^uint64(0), ^uint64(0)))
	f.Add([]byte{})
	f.Add(make([]byte, anchorSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, applied, err := decodeAnchor(data)
		if err != nil {
			return
		}
		s2, a2, err := decodeAnchor(encodeAnchor(seq, applied))
		if err != nil || s2 != seq || a2 != applied {
			t.Fatalf("anchor round trip: (%d,%d) vs (%d,%d), %v", seq, applied, s2, a2, err)
		}
	})
}

// FuzzWALRing throws an arbitrary WAL region and two arbitrary anchor pages
// at recovery. The contract under attack: OpenTxStore never panics, never
// replays a record whose LSN does not continue the chain from the winning
// anchor, and never replays past a CRC failure — checked against a
// deliberately naive re-walk of the same bytes.
func FuzzWALRing(f *testing.F) {
	const ps, walPages, dataPages = 64, 6, 4
	img := func(b byte) []byte { return bytes.Repeat([]byte{b}, ps) }
	rec := func(lsn uint64, id PageID, b byte) []byte {
		r := encodeWALRecord(lsn, []walWrite{{id: id, image: img(b)}}, ps)
		return append(r, make([]byte, (ps-len(r)%ps)%ps)...) // page-align the next record
	}
	// The data pages are allocated first below, so they are ids 1-4.
	chain := bytes.Join([][]byte{rec(6, 1, 1), rec(7, 2, 2), rec(4, 3, 3)}, nil) // two live records, one stale
	broken := bytes.Clone(chain)
	broken[2*ps+20] ^= 0xFF // CRC failure inside the second record
	f.Add(chain, encodeAnchor(3, 5), encodeAnchor(2, 4))
	f.Add(broken, encodeAnchor(3, 5), encodeAnchor(2, 4))
	f.Add(chain, encodeAnchor(3, 4), encodeAnchor(9, 6))    // anchor already past the first record: LSN gap
	f.Add(rec(1, 4, 9), encodeAnchor(2, 0), []byte("torn")) // the parent's single-record layout, mid-commit
	f.Add([]byte{}, []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, wal, anchorA, anchorB []byte) {
		mem := NewMemStore(ps)
		for i := 0; i < dataPages; i++ {
			if _, err := mem.Alloc(); err != nil {
				t.Fatal(err)
			}
		}
		tx, err := NewTxStore(mem, TxOptions{WALPages: walPages})
		if err != nil {
			t.Fatal(err)
		}
		region := make([]byte, walPages*ps)
		copy(region, wal)
		page := func(src []byte) []byte { p := make([]byte, ps); copy(p, src); return p }
		for i, id := range tx.walIDs {
			if err := mem.Write(id, region[i*ps:(i+1)*ps]); err != nil {
				t.Fatal(err)
			}
		}
		anchors := [2][]byte{page(anchorA), page(anchorB)}
		for i, id := range tx.anchors {
			if err := mem.Write(id, anchors[i]); err != nil {
				t.Fatal(err)
			}
		}

		// The naive walk: winning anchor, then records while each is whole
		// and carries exactly the next LSN.
		var applied, bestSeq uint64
		haveAnchor := false
		for _, a := range anchors {
			if seq, lsn, err := decodeAnchor(a); err == nil && (!haveAnchor || seq > bestSeq) {
				applied, bestSeq, haveAnchor = lsn, seq, true
			}
		}
		records := 0
		for off := 0; off+walHdrSize+walCRCSize <= len(region); {
			r := region[off:]
			m := int(binary.LittleEndian.Uint32(r[4:]))
			end := walHdrSize + m*(8+ps)
			if string(r[:4]) != walMagic || m < 0 || end+walCRCSize > len(r) ||
				crc32c(r[:end]) != binary.LittleEndian.Uint32(r[end:]) ||
				binary.LittleEndian.Uint64(r[8:]) != applied+1 {
				break
			}
			applied++
			records++
			off += (end + walCRCSize + ps - 1) / ps * ps
		}

		t2, err := OpenTxStore(mem, tx.dir)
		if !haveAnchor {
			if err == nil {
				t.Fatal("recovery succeeded with no valid anchor")
			}
			return
		}
		if err != nil {
			return // a CRC-valid record naming a page the store lacks: refused, not replayed blind
		}
		buf := make([]byte, ps)
		if err := mem.Read(3, buf); err != nil || (bytes.Equal(wal, chain) && buf[0] != 0) {
			t.Fatalf("stale record was replayed over page 3: %v, %x", err, buf[0])
		}
		if got := t2.AppliedLSN(); got != applied || t2.Recovery().Records != records {
			t.Fatalf("recovery replayed %d records to lsn %d; the chain holds %d records to lsn %d",
				t2.Recovery().Records, got, records, applied)
		}
	})
}

// FuzzFileStoreOps drives a FileStore with Alloc, Free, Write, Read, Sync,
// a crash (CloseCrash and reopen), a second Free of a freed page and a
// Write that puts an image back on a freed page, against a map model. No
// id is ever live twice, every read returns the page's last write or
// zeros, and after a crash the store holds the allocation state of the
// last Sync, or that state plus leaked pages: every page live at that Sync
// reads back its last write (FileStore writes pages in place at once; only
// the allocation state waits for Sync) and none is on the free list.
func FuzzFileStoreOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 2, 5, 1, 1, 4, 0, 3, 0, 6, 0, 5, 0, 0, 0, 3, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 4, 0, 0, 0, 5, 0, 7, 3, 3, 0, 4, 0, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const ps = 32
		if len(data) > 512 {
			data = data[:512]
		}
		path := filepath.Join(t.TempDir(), "ops.db")
		fs, err := CreateFileStore(path, ps)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { fs.Close() }()
		live := map[PageID]byte{}   // page -> fill byte of its last write (0: fresh)
		disk := map[PageID]byte{}   // page -> fill byte the file holds for it
		synced := map[PageID]bool{} // live as of the last Sync
		freed := map[PageID]bool{}  // freed since the last reopen, not handed out since
		buf := make([]byte, ps)
		pick := func(m map[PageID]byte, arg byte) PageID {
			ids := make([]PageID, 0, len(m))
			for id := range m {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			return ids[int(arg)%len(ids)]
		}
		pickFreed := func(arg byte) PageID {
			ids := make([]PageID, 0, len(freed))
			for id := range freed {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			return ids[int(arg)%len(ids)]
		}
		wantRead := func(id PageID, fill byte) {
			t.Helper()
			if err := fs.Read(id, buf); err != nil {
				t.Fatalf("read of live page %d: %v", id, err)
			}
			if !bytes.Equal(buf, bytes.Repeat([]byte{fill}, ps)) {
				t.Fatalf("page %d reads %x, want %#x throughout", id, buf, fill)
			}
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%8, data[i+1]
			switch {
			case op == 0 || (op <= 3 && len(live) == 0):
				id, err := fs.Alloc()
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := live[id]; ok {
					t.Fatalf("Alloc handed out live page %d", id)
				}
				live[id] = 0
				delete(freed, id)
			case op == 1:
				id := pick(live, arg)
				if err := fs.Free(id); err != nil {
					t.Fatalf("free of live page %d: %v", id, err)
				}
				delete(live, id)
				freed[id] = true
			case op == 2:
				id := pick(live, arg)
				if err := fs.Write(id, bytes.Repeat([]byte{arg}, ps)); err != nil {
					t.Fatal(err)
				}
				live[id], disk[id] = arg, arg
			case op == 3:
				id := pick(live, arg)
				wantRead(id, live[id])
			case op == 4:
				if err := fs.Sync(); err != nil {
					t.Fatal(err)
				}
				clear(synced)
				for id, fill := range live {
					synced[id], disk[id] = true, fill // a fresh page's zeros are written now
				}
			case op == 5:
				if err := fs.CloseCrash(); err != nil {
					t.Fatal(err)
				}
				if fs, err = OpenFileStore(path); err != nil {
					t.Fatalf("reopen after crash: %v", err)
				}
				clear(live)
				for id := range synced {
					live[id] = disk[id]
					wantRead(id, disk[id])
				}
				for _, id := range freeList(fs) {
					if synced[id] {
						t.Fatalf("synced page %d is on the free list after the crash", id)
					}
				}
				if fs.Pages() < len(synced) {
					t.Fatalf("Pages() = %d after the crash, %d were synced", fs.Pages(), len(synced))
				}
				clear(freed)
			case op == 6 && len(freed) > 0:
				id := pickFreed(arg)
				if err := fs.Free(id); !errors.Is(err, ErrBadPage) {
					t.Fatalf("second free of page %d: want ErrBadPage, got %v", id, err)
				}
				if err := fs.Read(id, buf); !errors.Is(err, ErrBadPage) {
					t.Fatalf("read of freed page %d: want ErrBadPage, got %v", id, err)
				}
			case op == 7 && len(freed) > 0:
				id := pickFreed(arg)
				if err := fs.Write(id, bytes.Repeat([]byte{arg}, ps)); err != nil {
					t.Fatal(err)
				}
				delete(freed, id)
				live[id], disk[id] = arg, arg
			}
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
		if fs, err = OpenFileStore(path); err != nil {
			t.Fatal(err)
		}
		for id, fill := range live {
			wantRead(id, fill)
		}
		if rep, err := VerifyFile(path); err != nil || rep.Damaged() || rep.FreeListNote != "" {
			t.Fatalf("verify after a clean close: %v\n%s", err, rep)
		}
	})
}
