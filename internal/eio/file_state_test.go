package eio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// The FileStore allocation-state cases: Alloc and Free touch no file, and
// what they leave is written before anything exposes the on-disk state.
// Each case ends by closing, reopening and checking the free list the file
// commits (head first) and that VerifyFile finds it consistent.

func newStateStore(t *testing.T) (*FileStore, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "state.db")
	fs, err := CreateFileStore(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	return fs, path
}

// reopen closes fs (cleanly, or as a crash) and opens path again.
func reopen(t *testing.T, fs *FileStore, path string, crash bool) *FileStore {
	t.Helper()
	shut := fs.Close
	if crash {
		shut = fs.CloseCrash
	}
	if err := shut(); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

// freeList returns fs's free list, head first.
func freeList(fs *FileStore) []PageID {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	l := slices.Clone(fs.free)
	slices.Reverse(l)
	return l
}

// wantOnDisk closes fs, reopens it and checks the free list the file
// commits and a consistent VerifyFile report. It returns the reopened store.
func wantOnDisk(t *testing.T, fs *FileStore, path string, free ...PageID) *FileStore {
	t.Helper()
	fs = reopen(t, fs, path, false)
	if got := freeList(fs); !slices.Equal(got, free) {
		t.Fatalf("free list after reopen = %v, want %v", got, free)
	}
	rep, err := VerifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Damaged() || rep.FreeListNote != "" || rep.NFree != uint64(len(free)) {
		t.Fatalf("verify after reopen:\n%s", rep)
	}
	return fs
}

func allocN(t *testing.T, s Store, n int) []PageID {
	t.Helper()
	ids := make([]PageID, n)
	for i := range ids {
		id, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func wantZeros(t *testing.T, s Store, id PageID) {
	t.Helper()
	buf := bytes.Repeat([]byte{0xee}, s.PageSize())
	if err := s.Read(id, buf); err != nil {
		t.Fatalf("read page %d: %v", id, err)
	}
	if !bytes.Equal(buf, make([]byte, s.PageSize())) {
		t.Fatalf("page %d does not read as zeros", id)
	}
}

func TestFileStoreFreshPageReadsZeros(t *testing.T) {
	fs, path := newStateStore(t)
	size := fileSize(t, path)
	id := allocN(t, fs, 1)[0]
	if got := fileSize(t, path); got != size {
		t.Fatalf("Alloc grew the file %d -> %d bytes before a Sync", size, got)
	}
	wantZeros(t, fs, id)
	if st := fs.Stats(); st.Allocs != 1 || st.Reads != 1 || st.Writes != 0 {
		t.Fatalf("stats %+v, want 1 alloc and 1 read", st)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got <= size {
		t.Fatalf("Sync did not write the fresh page's zero image (file %d bytes)", got)
	}
	wantZeros(t, fs, id)
	fs = wantOnDisk(t, fs, path)
	wantZeros(t, fs, id)
	if fs.Pages() != 1 {
		t.Fatalf("Pages() = %d, want 1", fs.Pages())
	}
}

func TestFileStoreAllocAfterFreeReusesID(t *testing.T) {
	fs, path := newStateStore(t)
	ids := allocN(t, fs, 3)
	if err := fs.Free(ids[1]); err != nil {
		t.Fatal(err)
	}
	if got := allocN(t, fs, 1)[0]; got != ids[1] {
		t.Fatalf("Alloc after Free(%d) = %d", ids[1], got)
	}
	wantZeros(t, fs, ids[1])
	if err := fs.Free(ids[2]); err != nil {
		t.Fatal(err)
	}
	fs = wantOnDisk(t, fs, path, ids[2])
	if got := allocN(t, fs, 1)[0]; got != ids[2] {
		t.Fatalf("Alloc after reopen = %d, want the freed %d", got, ids[2])
	}
	wantOnDisk(t, fs, path)
}

func TestFileStoreReadFreedPage(t *testing.T) {
	fs, path := newStateStore(t)
	ids := allocN(t, fs, 2)
	if err := fs.Write(ids[0], bytes.Repeat([]byte{7}, 64)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for _, id := range ids { // one written, one fresh
		if err := fs.Free(id); err != nil {
			t.Fatal(err)
		}
		if err := fs.Read(id, buf); !errors.Is(err, ErrBadPage) {
			t.Fatalf("read of freed page %d: want ErrBadPage, got %v", id, err)
		}
	}
	fs = wantOnDisk(t, fs, path, ids[1], ids[0])
	for _, id := range ids {
		if err := fs.Read(id, buf); !errors.Is(err, ErrBadPage) {
			t.Fatalf("read of freed page %d after reopen: want ErrBadPage, got %v", id, err)
		}
	}
}

func TestFileStoreDoubleFree(t *testing.T) {
	fs, path := newStateStore(t)
	ids := allocN(t, fs, 3)
	if err := fs.Free(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := fs.Free(ids[0]); !errors.Is(err, ErrBadPage) {
		t.Fatalf("double free in one session: want ErrBadPage, got %v", err)
	}
	if err := fs.Free(ids[2]); err != nil {
		t.Fatal(err)
	}
	fs = wantOnDisk(t, fs, path, ids[2], ids[0])
	for _, id := range []PageID{ids[0], ids[2]} {
		if err := fs.Free(id); !errors.Is(err, ErrBadPage) {
			t.Fatalf("double free of %d across a reopen: want ErrBadPage, got %v", id, err)
		}
	}
	if fs.Pages() != 1 {
		t.Fatalf("Pages() = %d after refused frees, want 1", fs.Pages())
	}
	wantOnDisk(t, fs, path, ids[2], ids[0])
}

func TestFileStoreWriteTakesPageOffFreeList(t *testing.T) {
	fs, path := newStateStore(t)
	ids := allocN(t, fs, 4)
	for _, id := range ids[:3] {
		if err := fs.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// The list is ids[2] → ids[1] → ids[0], all on disk. Putting an image
	// back on the middle one unlinks it; the head's node, which linked to
	// it, is rewritten by the next flush.
	img := bytes.Repeat([]byte{0x42}, 64)
	if err := fs.Write(ids[1], img); err != nil {
		t.Fatal(err)
	}
	if got := freeList(fs); !slices.Equal(got, []PageID{ids[2], ids[0]}) {
		t.Fatalf("free list after the write = %v", got)
	}
	if fs.Pages() != 2 {
		t.Fatalf("Pages() = %d, want 2", fs.Pages())
	}
	fs = wantOnDisk(t, fs, path, ids[2], ids[0])
	buf := make([]byte, 64)
	if err := fs.Read(ids[1], buf); err != nil || !bytes.Equal(buf, img) {
		t.Fatalf("the written page after reopen: %v", err)
	}
	// A WriteRun over the head does the same.
	if err := fs.WriteRun(ids[2], img); err != nil {
		t.Fatal(err)
	}
	fs = wantOnDisk(t, fs, path, ids[0])
	if got := allocN(t, fs, 2); got[0] != ids[0] || got[1] != ids[3]+1 {
		t.Fatalf("allocations after the writes = %v, want %d then a new page", got, ids[0])
	}
}

// TestFileStoreOpenEndsBrokenChain plants a data page and a cycle in the
// middle of an on-disk free list: the walk at open keeps the nodes above
// the break and leaks the rest, and the next flush rewrites the kept ones
// so the file's list is consistent again.
func TestFileStoreOpenEndsBrokenChain(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plant func(fs *FileStore, ids []PageID) error
	}{
		{"data page", func(fs *FileStore, ids []PageID) error {
			return fs.writePage(ids[1], bytes.Repeat([]byte{9}, 64), pageFlagData)
		}},
		{"cycle", func(fs *FileStore, ids []PageID) error {
			return fs.writeZeroPage(ids[1], ids[3], pageFlagFree)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, path := newStateStore(t)
			ids := allocN(t, fs, 4)
			for _, id := range ids {
				if err := fs.Free(id); err != nil {
					t.Fatal(err)
				}
			}
			fs = wantOnDisk(t, fs, path, ids[3], ids[2], ids[1], ids[0])
			fs.mu.Lock()
			err := tc.plant(fs, ids)
			fs.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			fs = reopen(t, fs, path, true)
			want := []PageID{ids[3], ids[2]}
			if tc.name == "cycle" { // ids[1] is a valid node whose link returns to the head
				want = append(want, ids[1])
			}
			if got := freeList(fs); !slices.Equal(got, want) {
				t.Fatalf("free list at open = %v, want %v", got, want)
			}
			if err := fs.Free(ids[0]); err != nil {
				t.Fatalf("free of a leaked page: %v", err)
			}
			fs = wantOnDisk(t, fs, path, append([]PageID{ids[0]}, want...)...)
			got := allocN(t, fs, len(want)+2)
			if !slices.Equal(got[:len(want)+1], append([]PageID{ids[0]}, want...)) || got[len(want)+1] != ids[3]+1 {
				t.Fatalf("allocations = %v", got)
			}
		})
	}
}

// TestFileStoreCrashKeepsUnwrittenPop pins the gain of a pop without I/O:
// a page taken off the free list and never written is still a valid node
// when a crash drops the superblock that popped it, so nothing leaks.
func TestFileStoreCrashKeepsUnwrittenPop(t *testing.T) {
	fs, path := newStateStore(t)
	ids := allocN(t, fs, 2)
	for _, id := range ids {
		if err := fs.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	allocN(t, fs, 2)
	fs = reopen(t, fs, path, true)
	if got := freeList(fs); !slices.Equal(got, []PageID{ids[1], ids[0]}) {
		t.Fatalf("free list after the crash = %v", got)
	}
	if rep, err := VerifyFile(path); err != nil || rep.FreeListNote != "" {
		t.Fatalf("verify after the crash: %v\n%s", err, rep)
	}
}
