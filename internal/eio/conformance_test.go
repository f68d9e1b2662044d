package eio

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

// contractFactories covers every Store implementation with the shared
// buffer-length contract suite, including the wrappers (Pool, FaultStore,
// CrashStore) that must not weaken the contract of what they wrap.
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
		"fault": func() Store { return NewFaultStore(NewMemStore(128)) },
		"crash": func() Store { return NewCrashStore(NewMemStore(128), 7) },
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
	f := NewFaultStore(mem)
	p := NewPool(f, 1)
	defer p.Close()

	// Fill the single frame with a dirty page.
	if _, err := p.Alloc(); err != nil {
		t.Fatal(err)
	}
	before := mem.Pages()

	// The next Alloc must evict the dirty frame; fail that write-back.
	f.FailAfter(OpWrite, 1)
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

// TestFaultStoreModes exercises the persistent, probabilistic and
// global-index arming modes plus the op trace.
func TestFaultStoreModes(t *testing.T) {
	mem := NewMemStore(64)
	f := NewFaultStore(mem)
	defer f.Close()
	id, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)

	// FailAlways persists until Disarm.
	f.FailAlways(OpRead)
	for i := 0; i < 3; i++ {
		if err := f.Read(id, buf); !errors.Is(err, ErrInjected) {
			t.Fatalf("persistent fault round %d: %v", i, err)
		}
	}
	f.Disarm()
	if err := f.Read(id, buf); err != nil {
		t.Fatalf("read after Disarm: %v", err)
	}

	// FailProb is deterministic under a fixed seed.
	pattern := func() []bool {
		f.Seed(42)
		f.FailProb(OpWrite, 0.5)
		defer f.Disarm()
		var out []bool
		for i := 0; i < 32; i++ {
			err := f.Write(id, buf)
			if err != nil && !errors.Is(err, ErrInjected) {
				t.Fatalf("unexpected write error: %v", err)
			}
			out = append(out, err != nil)
		}
		return out
	}
	a, b := pattern(), pattern()
	var fails int
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("FailProb not reproducible under the same seed")
		}
		if a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("FailProb(0.5) injected %d/%d faults", fails, len(a))
	}

	// FailNth counts operations of every kind from the arming point.
	start := f.Ops()
	f.FailNth(3)
	if err := f.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := f.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Alloc(); !errors.Is(err, ErrInjected) {
		t.Fatalf("3rd op after FailNth(3) did not fail: %v", err)
	}
	if err := f.Read(id, buf); err != nil {
		t.Fatalf("FailNth must be one-shot: %v", err)
	}
	if f.Ops() != start+4 {
		t.Fatalf("Ops() = %d, want %d", f.Ops(), start+4)
	}

	// FailRun fails exactly the next n ops of one kind; SetTransient makes
	// injected errors additionally wrap ErrTransient.
	f.SetTransient(true)
	f.FailRun(OpWrite, 2)
	for i := 0; i < 2; i++ {
		if err := f.Write(id, buf); !errors.Is(err, ErrTransient) || !errors.Is(err, ErrInjected) {
			t.Fatalf("burst write %d: want ErrTransient+ErrInjected, got %v", i, err)
		}
	}
	if err := f.Write(id, buf); err != nil {
		t.Fatalf("write after a 2-op burst: %v", err)
	}
	f.SetTransient(false)
	f.FailRun(OpRead, 1)
	if err := f.Read(id, buf); !errors.Is(err, ErrInjected) || errors.Is(err, ErrTransient) {
		t.Fatalf("permanent fault: %v", err)
	}

	// The trace retains the recent ops, oldest first, marking the injection.
	trace := f.Trace()
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	var sawInjected bool
	for i := 1; i < len(trace); i++ {
		if trace[i].N != trace[i-1].N+1 {
			t.Fatalf("trace not contiguous: %v then %v", trace[i-1], trace[i])
		}
	}
	for _, e := range trace {
		if e.Injected && e.Op == OpAlloc {
			sawInjected = true
		}
	}
	if !sawInjected {
		t.Fatalf("trace lost the injected alloc: %v", trace)
	}
}

// TestFaultStoreTornWrite checks that an injected write fault in torn
// mode leaves a half-applied page behind on a checksumming store, so the
// next read reports ErrChecksum rather than stale-but-valid data.
func TestFaultStoreTornWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.db")
	fs, err := CreateFileStore(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFaultStore(fs)
	defer f.Close()
	f.Seed(5)
	f.SetTornWrites(true)

	id, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Write(id, bytes.Repeat([]byte{0x11}, 64)); err != nil {
		t.Fatal(err)
	}
	f.FailAfter(OpWrite, 1)
	if err := f.Write(id, bytes.Repeat([]byte{0x22}, 64)); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed write did not fail: %v", err)
	}
	buf := make([]byte, 64)
	err = f.Read(id, buf)
	if err == nil {
		// The tear may coincidentally reproduce the old bytes only if the
		// prefix matched; with distinct fill bytes it cannot.
		t.Fatal("torn write left a valid-looking page")
	}
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("read after torn write: want ErrChecksum, got %v", err)
	}
}
