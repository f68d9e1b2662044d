package eio

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

// contractFactories covers every Store implementation with the shared
// buffer-length contract suite, including the wrappers (Pool, FaultStore
// under the error model and under a cached crash model) that must not
// weaken the contract of what they wrap.
func contractFactories(t *testing.T) map[string]func() Store {
	t.Helper()
	dir := t.TempDir()
	return map[string]func() Store{
		"mem": func() Store { return NewMemStore(128) },
		"file": func() Store {
			fs, err := CreateFileStore(filepath.Join(dir, "contract.db"), 128)
			if err != nil {
				t.Fatal(err)
			}
			return fs
		},
		"pool":      func() Store { return NewPool(NewMemStore(128), 2) },
		"snap":      func() Store { return NewSnapStore(NewMemStore(128), 0) },
		"snap-pool": func() Store { return NewSnapStore(NewPool(NewMemStore(128), 8), 0) },
		"snap-tx": func() Store {
			tx, err := NewTxStore(NewMemStore(128), TxOptions{WALPages: 4})
			if err != nil {
				t.Fatal(err)
			}
			return NewSnapStore(tx, 0)
		},
		"fault": func() Store { return NewFaultStore(NewMemStore(128), Fail, 0) },
		"crash": func() Store { return NewFaultStore(NewMemStore(128), DropAll, 7) },
		"trace": func() Store {
			ts := NewTraceStore(NewMemStore(128))
			ts.SetSink(discardSink{})
			return ts
		},
		"tx-mem": func() Store {
			tx, err := NewTxStore(NewMemStore(128), TxOptions{WALPages: 4})
			if err != nil {
				t.Fatal(err)
			}
			return tx
		},
		"tx-file": func() Store {
			fs, err := CreateFileStore(filepath.Join(dir, "tx-contract.db"), 128)
			if err != nil {
				t.Fatal(err)
			}
			tx, err := NewTxStore(fs, TxOptions{WALPages: 4})
			if err != nil {
				t.Fatal(err)
			}
			return tx
		},
	}
}

// TestBufferContract pins the documented Store buffer rules on every
// implementation: Read accepts any buffer of at least PageSize bytes and
// touches only the page-sized prefix; shorter read buffers and any
// non-exact write buffer fail with ErrPageSize without performing I/O.
func TestBufferContract(t *testing.T) {
	for name, mk := range contractFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			ps := s.PageSize()
			id, err := s.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			data := bytes.Repeat([]byte{0xC3}, ps)
			if err := s.Write(id, data); err != nil {
				t.Fatal(err)
			}

			// Exact-size read.
			buf := make([]byte, ps)
			if err := s.Read(id, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, data) {
				t.Fatal("exact-size read mismatch")
			}

			// Oversized read: prefix filled, tail untouched.
			big := make([]byte, ps+16)
			for i := range big {
				big[i] = 0x77
			}
			if err := s.Read(id, big); err != nil {
				t.Fatalf("oversized read buffer rejected: %v", err)
			}
			if !bytes.Equal(big[:ps], data) {
				t.Fatal("oversized read prefix mismatch")
			}
			for i := ps; i < len(big); i++ {
				if big[i] != 0x77 {
					t.Fatalf("read touched buf[%d] beyond PageSize", i)
				}
			}

			// Short read buffer: ErrPageSize, data untouched.
			short := make([]byte, ps-1)
			if err := s.Read(id, short); !errors.Is(err, ErrPageSize) {
				t.Fatalf("short read buffer: want ErrPageSize, got %v", err)
			}

			// Writes must be exactly one page.
			if err := s.Write(id, data[:ps-1]); !errors.Is(err, ErrPageSize) {
				t.Fatalf("short write: want ErrPageSize, got %v", err)
			}
			if err := s.Write(id, append(data, 0)); !errors.Is(err, ErrPageSize) {
				t.Fatalf("oversized write: want ErrPageSize, got %v", err)
			}
			// The rejected writes must not have modified the page.
			if err := s.Read(id, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, data) {
				t.Fatal("rejected write modified the page")
			}
		})
	}
}

// TestPoolReadShortBufferOnHit is the regression test for the cache-hit
// path silently truncating the page into a short buffer: the short read
// must fail identically whether the page is pooled or not.
func TestPoolReadShortBufferOnHit(t *testing.T) {
	mem := NewMemStore(64)
	p := NewPool(mem, 4)
	defer p.Close()
	id, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(id, bytes.Repeat([]byte{1}, 64)); err != nil {
		t.Fatal(err)
	}
	// The page is now resident (Alloc/Write keep it pooled) — this read is
	// a cache hit.
	short := make([]byte, 16)
	if err := p.Read(id, short); !errors.Is(err, ErrPageSize) {
		t.Fatalf("cache-hit short read: want ErrPageSize, got %v", err)
	}
	for _, b := range short {
		if b != 0 {
			t.Fatal("failed read wrote into the short buffer")
		}
	}
	// Same call on a cache miss for symmetry.
	p2 := NewPool(mem, 4)
	defer p2.Close()
	if err := p2.Read(id, short); !errors.Is(err, ErrPageSize) {
		t.Fatalf("cache-miss short read: want ErrPageSize, got %v", err)
	}
}

// TestPoolAllocNoLeakOnEvictionFailure is the regression test for Alloc
// leaking the freshly allocated backing page when inserting it into a full
// pool forces an eviction whose write-back fails.
func TestPoolAllocNoLeakOnEvictionFailure(t *testing.T) {
	mem := NewMemStore(64)
	f := NewFaultStore(mem, Fail, 0)
	p := NewPool(f, 1)
	defer p.Close()

	// Fill the single frame with a dirty page.
	if _, err := p.Alloc(); err != nil {
		t.Fatal(err)
	}
	before := mem.Pages()

	// The next Alloc must evict the dirty frame; fail that write-back.
	f.Arm(2) // the backing Alloc, then the write-back
	id, err := p.Alloc()
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("alloc during failing eviction: want ErrInjected, got (%v, %v)", id, err)
	}
	if id != NilPage {
		t.Fatalf("failed alloc returned page %d", id)
	}
	if got := mem.Pages(); got != before {
		t.Fatalf("failed alloc leaked a page: backing has %d pages, want %d", got, before)
	}
}
