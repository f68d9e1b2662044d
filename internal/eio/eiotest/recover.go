package eiotest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"rangesearch/internal/eio"
)

// RecoveryWorkload scripts one structure operation for the crash-recovery
// sweep: RecoverySweep builds the structure once on a transactional
// file-backed store, then crashes the backing store at EVERY mutating
// operation the scripted op's commit and the checkpoint after it perform
// (WAL append, barriers, cache flush and steal writes, anchor, held frees),
// reopens the file, runs recovery (eio.OpenTxStore), and asserts that the
// structure's full state is exactly the pre-op or the post-op state — the
// post-op state once the commit returned — with invariants intact and a
// clean eio.VerifyFile.
type RecoveryWorkload struct {
	// Name labels sweep sub-tests.
	Name string
	// PageSize is the page size of the fresh FileStore.
	PageSize int
	// WALPages sizes the TxStore redo log (0 = eio.DefaultWALPages). It
	// must admit the largest single op the workload performs.
	WALPages int
	// Build creates the structure in its pre-op state on st and returns
	// the header id Op and State are given. It runs outside a transaction.
	Build func(st eio.Store) (eio.PageID, error)
	// Op opens the structure identified by hdr on st and performs exactly
	// one deterministic logical update (an Insert or a Delete). The
	// harness runs it inside a single transaction; it must change State.
	Op func(st eio.Store, hdr eio.PageID) error
	// Prefix, when set, is a second deterministic update independent of
	// Op. The sweep then runs a second time with Prefix committed but NOT
	// checkpointed before Op: the crashed image holds a non-empty WAL ring,
	// recovery has to replay Prefix's record and then (maybe) Op's, and the
	// recovered state must contain Prefix either way.
	Prefix func(st eio.Store, hdr eio.PageID) error
	// State opens the structure on st, audits its invariants, and returns
	// a canonical dump of its full contents. Two calls returning the same
	// string mean the same logical state.
	State func(st eio.Store, hdr eio.PageID) (string, error)
	// Reachable returns every page reachable from the structure (its exact
	// page set, not a sample). When set, each recovered image is also
	// scrubbed — leaked allocations reclaimed via eio.Scrub — and the
	// state is re-audited afterwards.
	Reachable func(st eio.Store, hdr eio.PageID) ([]eio.PageID, error)
	// MaxRuns caps sweep iterations per stack variant, sampling evenly as
	// in Sweep. 0 means the package default (400).
	MaxRuns int
}

// crashVariants are the disk models each crash point runs under: the bare
// FileStore (writes reach the file immediately; the crash truncates the
// op), an eio.CrashStore with torn writes (unsynced writes vanish and the
// last in-flight one is torn) and a CrashStore in subset-survival mode (an
// arbitrary subset of the unsynced writes reaches the disk, allocation
// state stale, one of the others torn).
var crashVariants = []string{"direct", "cached", "subset"}

// smallCacheFrames is the TxStore page cache of the second pass of every
// sweep: small enough that one scripted op's reads and its commit evict
// dirty frames, so steal writes are among the operations crashed.
const smallCacheFrames = 4

// RecoverySweep crashes w.Op's transaction and the checkpoint that follows
// it at every backing-store mutating operation (writes, allocs, frees and
// syncs) and asserts before-or-after recovery semantics under each of
// crashVariants — from a checkpointed pre-op image and, when w.Prefix is
// set, again from one whose WAL ring is not empty; each with the built-in
// page cache (every in-place write is a checkpoint flush) and again with
// one of smallCacheFrames frames (some are steals, between the commit
// point and the checkpoint).
func RecoverySweep(t *testing.T, w RecoveryWorkload) {
	t.Helper()
	dir := t.TempDir()
	pre := filepath.Join(dir, "preop.db")
	hdr, anchor := buildPreOp(t, w, pre)

	for _, pass := range []struct{ small, ring bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
		if pass.ring && w.Prefix == nil {
			continue
		}
		prefix := w.Name + "/" // of this pass's sub-test names
		if pass.small {
			prefix += "smallcache/"
		}
		if pass.ring {
			prefix += "ring/"
		}
		r := sweepRun{w: w, pre: pre, dir: dir, hdr: hdr, anchor: anchor, ring: pass.ring, small: pass.small}
		// Baseline: run uncrashed on a copy, counting the mutating store
		// operations and capturing the states on either side of the op.
		total := r.run(t, "baseline", 0)
		if r.after == r.before {
			t.Fatalf("%s: op did not change the structure state", w.Name)
		}
		ks := sampleOps(total, w.MaxRuns)
		t.Logf("%s: recovery sweep over %d of %d mutating ops", strings.TrimSuffix(prefix, "/"), len(ks), total)
		for _, k := range ks {
			for _, variant := range crashVariants {
				t.Run(fmt.Sprintf("%sop%d/%s", prefix, k, variant), func(t *testing.T) {
					r.run(t, variant, k)
				})
			}
		}
	}
}

// buildPreOp creates the structure on a fresh transactional FileStore at
// path and returns its header and the TxStore anchor.
func buildPreOp(t *testing.T, w RecoveryWorkload, path string) (eio.PageID, eio.PageID) {
	t.Helper()
	fs, err := eio.CreateFileStore(path, w.PageSize)
	if err != nil {
		t.Fatalf("%s: create store: %v", w.Name, err)
	}
	tx, err := eio.NewTxStore(fs, eio.TxOptions{WALPages: w.WALPages})
	if err != nil {
		t.Fatalf("%s: create tx layer: %v", w.Name, err)
	}
	hdr, err := w.Build(tx)
	if err != nil {
		t.Fatalf("%s: build: %v", w.Name, err)
	}
	if _, err := w.State(tx, hdr); err != nil {
		t.Fatalf("%s: pre-op state: %v", w.Name, err)
	}
	anchor := tx.Anchor()
	if err := tx.Close(); err != nil {
		t.Fatalf("%s: close pre-op store: %v", w.Name, err)
	}
	rep, err := eio.VerifyFile(path)
	if err != nil {
		t.Fatalf("%s: verify pre-op file: %v", w.Name, err)
	}
	if rep.Damaged() {
		t.Fatalf("%s: pre-op file damaged:\n%s", w.Name, rep)
	}
	return hdr, anchor
}

// sweepRun is one pre-op image of a workload and the states that may
// follow it: before is the state the op starts from (with the prefix
// commit in it when ring is set), after the state once the op committed.
type sweepRun struct {
	w             RecoveryWorkload
	pre, dir      string
	hdr, anchor   eio.PageID
	ring, small   bool
	before, after string
}

// openTx opens the transactional layer with the cache this run sweeps.
func (r *sweepRun) openTx(st eio.Store) (*eio.TxStore, error) {
	if r.small {
		return eio.OpenTxStoreFrames(st, r.anchor, smallCacheFrames)
	}
	return eio.OpenTxStore(st, r.anchor)
}

// run executes the op's transaction and the checkpoint after it on a copy
// of the pre-op image under one disk model. With k == 0 (the baseline) it
// runs to completion, records before/after and returns the number of
// mutating store operations; with k > 0 it crashes at the k-th, recovers,
// and checks before-or-after semantics.
func (r *sweepRun) run(t *testing.T, variant string, k int) int {
	t.Helper()
	w := r.w
	path := filepath.Join(r.dir, fmt.Sprintf("run-%v-%v-%d-%s.db", r.small, r.ring, k, variant))
	copyFile(t, r.pre, path)
	defer os.Remove(path)

	fs, err := eio.OpenFileStore(path)
	if err != nil {
		t.Fatalf("open copy: %v", err)
	}
	var base eio.Store = fs
	var cs *eio.CrashStore
	if variant == "cached" || variant == "subset" {
		cs = eio.NewCrashStore(fs, int64(1000+k))
		cs.SetTornWrites(true)
		cs.SetSubsetSurvival(variant == "subset")
		base = cs
	}
	cp := NewCrashPoint(base)
	tx, err := r.openTx(cp)
	if err != nil {
		t.Fatalf("open tx layer: %v", err)
	}
	if ri := tx.Recovery(); ri.Dirty() {
		t.Fatalf("clean image needed recovery: %s", ri)
	}
	if r.ring {
		// Committed, not checkpointed: its record stays in the ring.
		if err := tx.Update(func() error { return w.Prefix(tx, r.hdr) }); err != nil {
			t.Fatalf("prefix commit failed: %v", err)
		}
	}
	if k == 0 {
		if r.before, err = w.State(tx, r.hdr); err != nil {
			t.Fatalf("pre-op state: %v", err)
		}
	}

	cp.Arm(k)
	err = updateGuarded(tx, func() error { return w.Op(tx, r.hdr) })
	committed := err == nil
	if committed {
		err = tx.Sync() // the checkpoint: apply barrier, anchor, held frees
	}
	if k == 0 {
		if err != nil {
			t.Fatalf("baseline op failed: %v", err)
		}
		total := cp.Count()
		if r.after, err = w.State(tx, r.hdr); err != nil {
			t.Fatalf("post-op state: %v", err)
		}
		if err := tx.Close(); err != nil {
			t.Fatalf("close baseline store: %v", err)
		}
		return total
	}
	if err == nil {
		t.Fatalf("crash at mutating op %d was not reached (op finished)", k)
	}
	var pe panicError
	if errors.As(err, &pe) {
		t.Fatalf("panic with crash at op %d: %v\n%s", k, pe.value, pe.stack)
	}
	if !errors.Is(err, eio.ErrCrashed) {
		t.Fatalf("crash at op %d surfaced as a non-crash error: %v", k, err)
	}
	acked := tx.AppliedLSN()
	if cs != nil {
		if _, err := cs.Crash(); err != nil {
			t.Fatalf("crash cache: %v", err)
		}
	}
	if err := fs.CloseCrash(); err != nil {
		t.Fatalf("close crashed file: %v", err)
	}

	// Recover: reopen the file and let OpenTxStore replay or discard.
	fs2, err := eio.OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	tx2, err := r.openTx(fs2)
	if err != nil {
		t.Fatalf("recovery failed (crash at op %d): %v", k, err)
	}
	if got := tx2.AppliedLSN(); got < acked {
		t.Fatalf("crash at op %d: recovered lsn %d below acknowledged lsn %d (recovery %s)", k, got, acked, tx2.Recovery())
	}
	state, err := w.State(tx2, r.hdr)
	if err != nil {
		t.Fatalf("post-recovery state audit failed (crash at op %d, recovery %s): %v", k, tx2.Recovery(), err)
	}
	if state != r.after && (committed || state != r.before) {
		t.Fatalf("crash at op %d (op committed: %v) recovered to the wrong state (recovery %s):\npre:  %s\npost: %s\ngot:  %s",
			k, committed, tx2.Recovery(), r.before, r.after, state)
	}

	// Scrub leaked allocations; the logical state must not move.
	if w.Reachable != nil {
		reach, err := w.Reachable(tx2, r.hdr)
		if err != nil {
			t.Fatalf("reachability walk failed (crash at op %d): %v", k, err)
		}
		meta, err := tx2.MetaPages()
		if err != nil {
			t.Fatalf("tx meta pages: %v", err)
		}
		rep, err := eio.Scrub(fs2, append(reach, meta...))
		if err != nil {
			t.Fatalf("scrub failed (crash at op %d): %v", k, err)
		}
		after, err := w.State(tx2, r.hdr)
		if err != nil {
			t.Fatalf("post-scrub state audit failed (crash at op %d, %s): %v", k, rep, err)
		}
		if after != state {
			t.Fatalf("scrub changed the structure state (crash at op %d, %s)", k, rep)
		}
	}

	if err := tx2.Close(); err != nil {
		t.Fatalf("close recovered store: %v", err)
	}
	rep, err := eio.VerifyFile(path)
	if err != nil {
		t.Fatalf("verify recovered file: %v", err)
	}
	if rep.Damaged() {
		t.Fatalf("recovered file damaged (crash at op %d):\n%s", k, rep)
	}
	return 0
}

// updateGuarded runs tx.Update(fn) converting panics into errors.
func updateGuarded(tx *eio.TxStore, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError{value: r, stack: debug.Stack()}
		}
	}()
	return tx.Update(fn)
}

// copyFile clones the pre-op image for one sweep iteration.
func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatalf("read %s: %v", src, err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatalf("write %s: %v", dst, err)
	}
}

// CrashPoint wraps a store and simulates fail-stop process death at the
// k-th mutating operation (Write, Alloc, Free or Sync) after Arm: that
// operation and every operation after it — reads included — fail with
// eio.ErrCrashed without reaching the inner store. Unlike FaultStore's
// one-shot faults, nothing executes past the crash, so the disk image is
// frozen exactly as the crash left it.
type CrashPoint struct {
	mu    sync.Mutex
	inner eio.Store
	n     int // mutating operations seen since Arm
	k     int // crash at the k-th (0 = never, count only)
	dead  bool
}

// NewCrashPoint wraps inner, counting only until Arm sets a crash point.
func NewCrashPoint(inner eio.Store) *CrashPoint { return &CrashPoint{inner: inner} }

// Arm restarts the count and sets the crash point: the k-th mutating
// operation from now dies (k == 0 never does).
func (c *CrashPoint) Arm(k int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n, c.k = 0, k
}

// Count returns the mutating operations seen since Arm.
func (c *CrashPoint) Count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// trip counts a mutating operation and reports whether the store is dead.
func (c *CrashPoint) trip() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.dead {
		c.n++
		if c.k > 0 && c.n >= c.k {
			c.dead = true
		}
	}
	if c.dead {
		return fmt.Errorf("eiotest: crash point: %w", eio.ErrCrashed)
	}
	return nil
}

func (c *CrashPoint) PageSize() int { return c.inner.PageSize() }

func (c *CrashPoint) Alloc() (eio.PageID, error) {
	if err := c.trip(); err != nil {
		return eio.NilPage, err
	}
	return c.inner.Alloc()
}

func (c *CrashPoint) Free(id eio.PageID) error {
	if err := c.trip(); err != nil {
		return err
	}
	return c.inner.Free(id)
}

func (c *CrashPoint) Read(id eio.PageID, buf []byte) error {
	c.mu.Lock()
	dead := c.dead
	c.mu.Unlock()
	if dead {
		return fmt.Errorf("eiotest: crash point: %w", eio.ErrCrashed)
	}
	return c.inner.Read(id, buf)
}

func (c *CrashPoint) Write(id eio.PageID, buf []byte) error {
	if err := c.trip(); err != nil {
		return err
	}
	return c.inner.Write(id, buf)
}

// Sync is a mutating operation too: a crash can land exactly on the
// durability barrier, the most interesting point of a commit.
func (c *CrashPoint) Sync() error {
	if err := c.trip(); err != nil {
		return err
	}
	if s, ok := c.inner.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}

func (c *CrashPoint) Stats() eio.Stats { return c.inner.Stats() }
func (c *CrashPoint) ResetStats()      { c.inner.ResetStats() }
func (c *CrashPoint) Pages() int       { return c.inner.Pages() }
func (c *CrashPoint) Close() error     { return c.inner.Close() }
