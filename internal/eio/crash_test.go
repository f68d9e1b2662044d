package eio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCrashRecoveryProperty drives a randomized alloc/write/free/sync
// workload through a FaultStore over FileStore under the Cached model,
// crashes at a random point (the last unsynced write torn), reopens the file and asserts the recovery
// contract: the superblock is valid, every page committed by the last Sync
// either reads back exactly or — only for the single torn page — fails
// with ErrChecksum, a page freed twice is refused, and the store remains
// allocatable. Every allocated page reads as zeros before anything writes
// it, whether or not a Sync has written its zero page yet.
func TestCrashRecoveryProperty(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			path := filepath.Join(t.TempDir(), "crash.db")
			fs, err := CreateFileStore(path, 128)
			if err != nil {
				t.Fatal(err)
			}
			cs := NewFaultStore(fs, Cached, seed)

			// current tracks live pages and their as-written content;
			// durable snapshots current at every Sync.
			current := make(map[PageID][]byte)
			durable := make(map[PageID][]byte)
			snapshot := func() {
				durable = make(map[PageID][]byte, len(current))
				for id, d := range current {
					durable[id] = append([]byte(nil), d...)
				}
			}

			zeroCheck := make([]byte, 128)
			nops := 40 + rng.Intn(120)
			for i := 0; i < nops; i++ {
				switch r := rng.Float64(); {
				case r < 0.35 || len(current) == 0:
					id, err := cs.Alloc()
					if err != nil {
						t.Fatal(err)
					}
					current[id] = make([]byte, 128)
					if err := cs.Read(id, zeroCheck); err != nil || !bytes.Equal(zeroCheck, current[id]) {
						t.Fatalf("seed %d: fresh page %d does not read as zeros: %v", seed, id, err)
					}
				case r < 0.75:
					id := randLive(rng, current)
					data := make([]byte, 128)
					rng.Read(data)
					if err := cs.Write(id, data); err != nil {
						t.Fatal(err)
					}
					current[id] = data
				case r < 0.85:
					id := randLive(rng, current)
					if err := cs.Free(id); err != nil {
						t.Fatal(err)
					}
					delete(current, id)
				default:
					if err := cs.Sync(); err != nil {
						t.Fatal(err)
					}
					snapshot()
				}
			}

			torn, err := cs.Crash()
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.CloseCrash(); err != nil {
				t.Fatal(err)
			}

			// Recovery: the file must open and commit the last-synced state.
			fs2, err := OpenFileStore(path)
			if err != nil {
				t.Fatalf("seed %d: reopen after crash: %v", seed, err)
			}
			defer fs2.Close()
			buf := make([]byte, 128)
			for id, want := range durable {
				err := fs2.Read(id, buf)
				if id == torn {
					if err != nil && !errors.Is(err, ErrChecksum) {
						t.Fatalf("seed %d: torn page %d: want ErrChecksum or clean read, got %v", seed, id, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("seed %d: synced page %d unreadable after crash: %v", seed, id, err)
				}
				if !bytes.Equal(buf, want) {
					t.Fatalf("seed %d: synced page %d content diverged after crash", seed, id)
				}
			}

			// Offline verification agrees: only the torn page may be bad.
			rep, err := VerifyFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, bad := range rep.BadPages {
				if bad != torn {
					t.Fatalf("seed %d: verify flagged page %d, only %d may be torn\n%s", seed, bad, torn, rep)
				}
			}

			// A page on the recovered free list, and a synced page freed
			// once, cannot be freed again.
			if free := freeList(fs2); len(free) > 0 {
				if err := fs2.Free(free[rng.Intn(len(free))]); !errors.Is(err, ErrBadPage) {
					t.Fatalf("seed %d: free of a page on the recovered free list: want ErrBadPage, got %v", seed, err)
				}
			}
			if len(durable) > 0 {
				id := randLive(rng, durable)
				if err := fs2.Free(id); err != nil {
					t.Fatalf("seed %d: free of synced page %d: %v", seed, id, err)
				}
				if err := fs2.Free(id); !errors.Is(err, ErrBadPage) {
					t.Fatalf("seed %d: double free of page %d: want ErrBadPage, got %v", seed, id, err)
				}
				delete(durable, id)
			}

			// The recovered store must keep allocating (a truncated free
			// list leaks pages but never blocks allocation), and what it
			// hands out reads as zeros.
			for i := 0; i < 5; i++ {
				id, err := fs2.Alloc()
				if err != nil {
					t.Fatalf("seed %d: alloc after recovery: %v", seed, err)
				}
				if _, ok := durable[id]; ok {
					t.Fatalf("seed %d: alloc after recovery handed out synced page %d", seed, id)
				}
				if err := fs2.Read(id, buf); err != nil || !bytes.Equal(buf, make([]byte, 128)) {
					t.Fatalf("seed %d: page %d allocated after recovery does not read as zeros: %v", seed, id, err)
				}
			}
		})
	}
}

func randLive(rng *rand.Rand, m map[PageID][]byte) PageID {
	ids := make([]PageID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	// Map order is random; sort for determinism under a fixed seed.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids[rng.Intn(len(ids))]
}

// TestTornSuperblockRecovery corrupts the newest superblock slot and
// checks that reopening falls back to the older valid slot; with both
// slots corrupted the open must fail.
func TestTornSuperblockRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "super.db")
	fs, err := CreateFileStore(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	id, err := fs.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5A}, 64)
	if err := fs.Write(id, data); err != nil {
		t.Fatal(err)
	}
	// Two syncs so both slots commit the same allocation state.
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.CloseCrash(); err != nil {
		t.Fatal(err)
	}

	// Tear the slot with the higher sequence number.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [superRegionSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		t.Fatal(err)
	}
	seq0 := binary.LittleEndian.Uint64(hdr[40:])
	seq1 := binary.LittleEndian.Uint64(hdr[superSlotSize+40:])
	newest := int64(0)
	if seq1 > seq0 {
		newest = 1
	}
	if _, err := f.WriteAt([]byte{0xFF, 0xFF, 0xFF, 0xFF}, newest*superSlotSize+20); err != nil {
		t.Fatal(err)
	}

	fs2, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen with one torn superblock: %v", err)
	}
	buf := make([]byte, 64)
	if err := fs2.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("data lost after superblock fallback")
	}
	if err := fs2.CloseCrash(); err != nil {
		t.Fatal(err)
	}

	rep, err := VerifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Super[newest].Valid {
		t.Fatal("verify did not notice the torn slot")
	}
	if rep.Damaged() {
		t.Fatalf("one valid superblock slot must be enough:\n%s", rep)
	}

	// Tear the surviving slot too: now the store is gone.
	other := 1 - newest
	if _, err := f.WriteAt([]byte{0xFF, 0xFF, 0xFF, 0xFF}, other*superSlotSize+20); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := OpenFileStore(path); err == nil {
		t.Fatal("open succeeded with both superblocks torn")
	}
	rep, err = VerifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Damaged() {
		t.Fatal("verify must report both-slots-torn as damage")
	}
}

// TestChecksumDetectsCorruption flips bytes inside a committed page and
// checks that Read fails with ErrChecksum and VerifyFile pinpoints the
// page.
func TestChecksumDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rot.db")
	fs, err := CreateFileStore(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, err := fs.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Write(id, bytes.Repeat([]byte{byte(i + 1)}, 64)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt one byte in the middle of the third page's data.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	victim := ids[2]
	off := superRegionSize + int64(victim-1)*int64(64+pageTrailerSize) + 17
	if _, err := f.WriteAt([]byte{0xEE}, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rep, err := VerifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.BadPages) != 1 || rep.BadPages[0] != victim {
		t.Fatalf("verify bad pages = %v, want [%d]\n%s", rep.BadPages, victim, rep)
	}
	if !rep.Damaged() {
		t.Fatal("corruption must count as damage")
	}

	fs2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	buf := make([]byte, 64)
	if err := fs2.Read(victim, buf); !errors.Is(err, ErrChecksum) {
		t.Fatalf("read of corrupted page: want ErrChecksum, got %v", err)
	}
	for _, id := range ids {
		if id == victim {
			continue
		}
		if err := fs2.Read(id, buf); err != nil {
			t.Fatalf("read of intact page %d: %v", id, err)
		}
	}
}

// TestCrashStoreSemantics checks the volatile-cache crash models against a
// MemStore: buffered writes are invisible to the inner store until Sync,
// reads see the buffer, frees are deferred, and Crash kills the wrapper;
// an armed crash fires at the k-th mutating operation and takes every
// later one, reads included, with it.
func TestCrashStoreSemantics(t *testing.T) {
	mem := NewMemStore(64)
	cs := NewFaultStore(mem, DropAll, 1)
	id, err := cs.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xAA}, 64)
	if err := cs.Write(id, data); err != nil {
		t.Fatal(err)
	}
	// Read-your-writes through the cache.
	buf := make([]byte, 64)
	if err := cs.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("crash store does not serve its own buffered write")
	}
	// The inner store still sees zeroes.
	if err := mem.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 64)) {
		t.Fatal("buffered write leaked to the inner store before Sync")
	}
	if cs.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", cs.Pending())
	}
	if err := cs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := mem.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("Sync did not flush the buffered write")
	}

	// Deferred free: gone for the wrapper, present underneath until Sync.
	if err := cs.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := cs.Read(id, buf); !errors.Is(err, ErrBadPage) {
		t.Fatalf("read of freed page: want ErrBadPage, got %v", err)
	}
	if got := cs.Pages(); got != 0 {
		t.Fatalf("Pages() = %d, want 0 after deferred free", got)
	}
	if got := mem.Pages(); got != 1 {
		t.Fatalf("inner Pages() = %d, want 1 before Sync", got)
	}

	// Crash drops the deferred free; the wrapper is dead afterwards.
	if _, err := cs.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Alloc(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("alloc after crash: want ErrCrashed, got %v", err)
	}
	if err := cs.Write(id, data); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash: want ErrCrashed, got %v", err)
	}
	if got := mem.Pages(); got != 1 {
		t.Fatalf("inner Pages() = %d after crash, want 1 (free dropped)", got)
	}
	if err := mem.Read(id, buf); err != nil || !bytes.Equal(buf, data) {
		t.Fatalf("inner page content changed by crash: %v", err)
	}

	armed := NewFaultStore(mem, DropAll, 1)
	armed.Arm(2)
	if err := armed.Write(id, data); err != nil {
		t.Fatalf("first mutating op crashed: %v", err)
	}
	if err := armed.Read(id, buf); err != nil {
		t.Fatalf("a read before the crash point failed: %v", err)
	}
	if err := armed.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("second mutating op: want ErrCrashed, got %v", err)
	}
	if err := armed.Read(id, buf); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read after the crash point: want ErrCrashed, got %v", err)
	}
	if all, mutating := armed.Ops(); all != 3 || mutating != 2 {
		t.Fatalf("Ops() = %d, %d; want 3 and 2 — nothing counts past the crash", all, mutating)
	}
	if _, err := armed.Crash(); err != nil {
		t.Fatalf("Crash after an armed crash fired: %v", err)
	}
	if armed.Pending() != 0 {
		t.Fatal("the crash kept buffered writes")
	}
}

// TestCrashStoreDropsUnsyncedWrites checks that writes after the last Sync
// do not survive a crash.
func TestCrashStoreDropsUnsyncedWrites(t *testing.T) {
	mem := NewMemStore(64)
	cs := NewFaultStore(mem, DropAll, 2)
	id, _ := cs.Alloc()
	v1 := bytes.Repeat([]byte{1}, 64)
	v2 := bytes.Repeat([]byte{2}, 64)
	if err := cs.Write(id, v1); err != nil {
		t.Fatal(err)
	}
	if err := cs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := cs.Write(id, v2); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Crash(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := mem.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, v1) {
		t.Fatal("un-synced write survived the crash")
	}
}

// TestCrashStoreSubsetSurvival pins the SubsetWhole disk model: across
// seeds a crash leaves every mix of old and new page images — whole pages
// only, synced state untouched, frees and the torn-write candidate aside —
// and a given seed leaves the same mix every time.
func TestCrashStoreSubsetSurvival(t *testing.T) {
	const pages = 6
	image := func(seed int64) string {
		mem := NewMemStore(64)
		cs := NewFaultStore(mem, SubsetWhole, seed)
		var ids [pages]PageID
		for i := range ids {
			ids[i], _ = cs.Alloc()
			if err := cs.Write(ids[i], bytes.Repeat([]byte{1}, 64)); err != nil {
				t.Fatal(err)
			}
		}
		if err := cs.Sync(); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids[:pages-1] {
			if err := cs.Write(id, bytes.Repeat([]byte{2}, 64)); err != nil {
				t.Fatal(err)
			}
		}
		if err := cs.Free(ids[pages-1]); err != nil {
			t.Fatal(err)
		}
		if _, err := cs.Crash(); err != nil {
			t.Fatal(err)
		}
		var got []byte
		buf := make([]byte, 64)
		for _, id := range ids {
			if err := mem.Read(id, buf); err != nil {
				t.Fatalf("seed %d: page %d: %v (a free survived the crash?)", seed, id, err)
			}
			if !bytes.Equal(buf, bytes.Repeat(buf[:1], 64)) || buf[0] < 1 || buf[0] > 2 {
				t.Fatalf("seed %d: page %d is neither image whole: % x", seed, id, buf[:8])
			}
			got = append(got, '0'+buf[0])
		}
		return string(got)
	}
	seen := map[string]bool{}
	for seed := int64(0); seed < 64; seed++ {
		img := image(seed)
		if img != image(seed) {
			t.Fatalf("seed %d does not reproduce", seed)
		}
		if img[pages-1] != '1' {
			t.Fatalf("seed %d: unwritten page changed: %s", seed, img)
		}
		seen[img] = true
	}
	if !seen["111111"] || !seen["222221"] || len(seen) < 8 {
		t.Fatalf("64 seeds produced only %d distinct images (none/all survived: %v/%v)", len(seen), seen["111111"], seen["222221"])
	}
}

// TestFileStoreV1Compat handcrafts a v1-format file (what the first build
// wrote: no checksums, one superblock in page slot 0) and checks that both
// entry points reject it by name instead of misparsing it, and leave the
// file untouched.
func TestFileStoreV1Compat(t *testing.T) {
	const ps = 64
	path := filepath.Join(t.TempDir(), "v1.db")
	img := make([]byte, 2*ps)
	binary.LittleEndian.PutUint64(img[0:], fileMagicV1)
	binary.LittleEndian.PutUint64(img[8:], ps)
	binary.LittleEndian.PutUint64(img[16:], 2) // npages: superblock + 1 data page
	for i := 0; i < ps; i++ {
		img[ps+i] = byte(i)
	}
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}

	if fs, err := OpenFileStore(path); err == nil {
		fs.Close()
		t.Fatal("OpenFileStore accepted a v1 file")
	} else if !strings.Contains(err.Error(), "unsupported format v1") {
		t.Fatalf("OpenFileStore: %v, want an unsupported-format-v1 error", err)
	}
	if rep, err := VerifyFile(path); err == nil {
		t.Fatalf("VerifyFile accepted a v1 file: %+v", rep)
	} else if !strings.Contains(err.Error(), "unsupported format v1") {
		t.Fatalf("VerifyFile: %v, want an unsupported-format-v1 error", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, img) {
		t.Fatal("rejecting a v1 file modified it")
	}
}

// TestVerifyCleanStore checks the all-clear path on a freshly written v2
// store with frees on the free list.
func TestVerifyCleanStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clean.db")
	fs, err := CreateFileStore(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 6; i++ {
		id, _ := fs.Alloc()
		if err := fs.Write(id, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids[:3] {
		if err := fs.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Damaged() {
		t.Fatalf("clean store reported damaged:\n%s", rep)
	}
	if rep.FreeListNote != "" {
		t.Fatalf("clean store free list note: %q", rep.FreeListNote)
	}
	if rep.FreePages != 3 || rep.FreeReachable != 3 || rep.NFree != 3 {
		t.Fatalf("free accounting: %+v", rep)
	}
	if rep.Version != 2 {
		t.Fatalf("Version = %d", rep.Version)
	}
}

// TestSuperblockWrittenOnlyWhenBehind pins FileStore.Sync's economy: a slot
// is rewritten only while one of the two is behind the allocation state in
// memory — two Syncs after a change, then none — and a slot a crash tore is
// brought back by the next Sync of the reopened store.
func TestSuperblockWrittenOnlyWhenBehind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "super.db")
	fs, err := CreateFileStore(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	seqs := func() [2]uint64 {
		t.Helper()
		var hdr [superRegionSize]byte
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.ReadAt(hdr[:], 0); err != nil {
			t.Fatal(err)
		}
		var out [2]uint64 // a slot that does not parse reads as 0
		for i := range out {
			if st, ok := parseSuperSlot(hdr[i*superSlotSize : (i+1)*superSlotSize]); ok {
				out[i] = st.seq
			}
		}
		return out
	}
	sync := func() [2]uint64 {
		t.Helper()
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		return seqs()
	}
	fresh := seqs()
	if got := sync(); got != fresh {
		t.Fatalf("Sync of an unchanged fresh store rewrote a slot: %v -> %v", fresh, got)
	}
	id, err := fs.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	one, two := sync(), sync()
	if one == fresh || two == one || two[0] == fresh[0] || two[1] == fresh[1] {
		t.Fatalf("after an Alloc two Syncs must write one slot each: %v, %v, %v", fresh, one, two)
	}
	if err := fs.Write(id, bytes.Repeat([]byte{1}, 64)); err != nil { // page writes move no allocation state
		t.Fatal(err)
	}
	if got := sync(); got != two {
		t.Fatalf("third Sync rewrote a slot: %v -> %v", two, got)
	}
	if err := fs.CloseCrash(); err != nil {
		t.Fatal(err)
	}

	// Tear the newer slot: the reopened store runs on the other and its
	// first Sync rewrites the torn one, although nothing was allocated.
	newest := int64(0)
	if two[1] > two[0] {
		newest = 1
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF, 0xFF, 0xFF, 0xFF}, newest*superSlotSize+20); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if torn := seqs(); torn[newest] != 0 || torn[1-newest] != two[1-newest] {
		t.Fatalf("tearing slot %d left %v", newest, torn)
	}
	if fs, err = OpenFileStore(path); err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if repaired := sync(); repaired[newest] == 0 || repaired[1-newest] != two[1-newest] {
		t.Fatalf("Sync after a torn slot left %v, want slot %d valid again and the other untouched", repaired, newest)
	}
	if rep, err := VerifyFile(path); err != nil || rep.Damaged() {
		t.Fatalf("verify: %v\n%s", err, rep)
	}
}
