// Package eiotest is the fault-sweep harness for the structures built on
// eio. One Workload scripts a structure update; Sweep runs it inside a
// transaction on a file-backed eio.TxStore and, at every sampled operation,
// fails it with an error and crashes it under each disk model, asserting
// that the structure comes back exactly pre-op or post-op; SweepBare fails
// every operation of the script on a bare store, with no transaction, and
// asserts that the error surfaces and every page stays reachable.
//
// This turns "what happens when I/O k fails?" from an anecdote exercised
// by a couple of hand-picked tests into a property checked for every I/O
// a workload performs.
package eiotest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"rangesearch/internal/eio"
)

// Workload scripts one structure and one update of it.
type Workload struct {
	// Name labels sweep sub-tests.
	Name string
	// PageSize is the page size of the fresh store.
	PageSize int
	// WALPages sizes the TxStore redo log (0 = eio.DefaultWALPages). It
	// must admit the largest single op the workload performs.
	WALPages int
	// Build creates the structure in its pre-op state on st and returns
	// the header id the other functions are given. Sweep runs it outside a
	// transaction, once.
	Build func(st eio.Store) (eio.PageID, error)
	// Op opens the structure identified by hdr on st and performs one
	// deterministic update. Sweep runs it inside a single transaction; it
	// must change State.
	Op func(st eio.Store, hdr eio.PageID) error
	// Prefix, when set, is a second deterministic update independent of
	// Op. Sweep then runs a second time with Prefix committed but NOT
	// checkpointed before Op: the crashed image holds a non-empty WAL ring,
	// recovery has to replay Prefix's record and then (maybe) Op's, and the
	// recovered state must contain Prefix either way. SweepBare runs it
	// between Build and Op.
	Prefix func(st eio.Store, hdr eio.PageID) error
	// State opens the structure on st, audits its invariants, and returns
	// a canonical dump of its full contents. Two calls returning the same
	// string mean the same logical state. SweepBare does not use it.
	State func(st eio.Store, hdr eio.PageID) (string, error)
	// Reachable returns every page reachable from the structure (its exact
	// page set, not a sample). Sweep scrubs each recovered image with it
	// (leaked allocations reclaimed via eio.Scrub) and re-audits the state;
	// SweepBare requires the walk to succeed after every fault.
	Reachable func(st eio.Store, hdr eio.PageID) ([]eio.PageID, error)
	// MaxRuns caps the operation indices swept per fault kind and pass;
	// past it they are sampled evenly, always including the first and
	// last. 0 means the package default (400).
	MaxRuns int
}

// defaultMaxRuns bounds sweep time for op-heavy workloads.
const defaultMaxRuns = 400

// crashModels are the disk models each crash point runs under: the bare
// file (the crash truncates the op), a volatile cache that loses every
// unsynced write and tears the last one, and one that lets an arbitrary
// subset through and tears one of the others.
var crashModels = []eio.Model{eio.Direct, eio.Cached, eio.Subset}

// smallCacheFrames is the TxStore page cache of the second pass of every
// sweep: small enough that one scripted op's reads and its commit evict
// dirty frames, so steal writes are among the operations faulted.
const smallCacheFrames = 4

// Sweep runs w.Op's transaction and the checkpoint after it, and at every
// sampled operation
//
//   - crashes it under each of crashModels (k counts mutating operations:
//     sub-tests op<k>/<model>), reopens the file, recovers, and asserts the
//     state is pre-op or post-op — post-op once the commit returned — with
//     an LSN not below the acknowledged one, a scrub that leaves the state
//     unchanged, and a clean eio.VerifyFile;
//   - fails it with an error instead (k counts every operation: sub-tests
//     error/op<k>), and asserts the error surfaces, the store still serves
//     the pre-op state, or the post-op one if the commit point was passed,
//     or else fails with its sticky error, and that a checkpoint, close
//     and recovery land on the same answer.
//
// It does so from a checkpointed pre-op image and, when w.Prefix is set,
// again from one whose WAL ring is not empty; each with the built-in page
// cache (every in-place write is a checkpoint flush) and again with one of
// smallCacheFrames frames (some are steals, between the commit point and
// the checkpoint).
func Sweep(t *testing.T, w Workload) {
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
		r := &txRun{w: w, pre: pre, dir: dir, hdr: hdr, anchor: anchor, ring: pass.ring, small: pass.small}
		ops, muts := r.baseline(t)
		name := strings.TrimSuffix(prefix, "/")
		ks := sampleOps(muts, w.MaxRuns)
		t.Logf("%s: crash sweep over %d of %d mutating ops", name, len(ks), muts)
		for _, k := range ks {
			for _, m := range crashModels {
				t.Run(fmt.Sprintf("%sop%d/%s", prefix, k, m), func(t *testing.T) { r.crash(t, m, k) })
			}
		}
		ks = sampleOps(ops, w.MaxRuns)
		t.Logf("%s: error sweep over %d of %d ops", name, len(ks), ops)
		for _, k := range ks {
			t.Run(fmt.Sprintf("%serror/op%d", prefix, k), func(t *testing.T) { r.fail(t, k) })
		}
	}
}

// buildPreOp creates the structure on a fresh transactional FileStore at
// path and returns its header and the TxStore anchor.
func buildPreOp(t *testing.T, w Workload, path string) (eio.PageID, eio.PageID) {
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
	verify(t, path, "pre-op file")
	return hdr, anchor
}

// txRun is one pre-op image of a workload and the states that may follow
// it: before is the state the op starts from (with the prefix commit in it
// when ring is set), after the state once the op committed.
type txRun struct {
	w             Workload
	pre, dir      string
	hdr, anchor   eio.PageID
	ring, small   bool
	before, after string
}

// open copies the pre-op image to a file of its own and opens the
// transactional layer on it through a FaultStore under model m, with this
// run's cache and, in a ring pass, the prefix committed.
func (r *txRun) open(t *testing.T, name string, m eio.Model, seed int64) (string, *eio.FileStore, *eio.FaultStore, *eio.TxStore) {
	t.Helper()
	path := filepath.Join(r.dir, fmt.Sprintf("run-%v-%v-%s.db", r.small, r.ring, name))
	data, err := os.ReadFile(r.pre)
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		t.Fatalf("copy pre-op image: %v", err)
	}
	t.Cleanup(func() { os.Remove(path) })
	fs, err := eio.OpenFileStore(path)
	if err != nil {
		t.Fatalf("open copy: %v", err)
	}
	f := eio.NewFaultStore(fs, m, seed)
	tx, err := r.openTx(f)
	if err != nil {
		t.Fatalf("open tx layer: %v", err)
	}
	if ri := tx.Recovery(); ri.Dirty() {
		t.Fatalf("clean image needed recovery: %s", ri)
	}
	if r.ring {
		// Committed, not checkpointed: its record stays in the ring.
		if err := tx.Update(func() error { return r.w.Prefix(tx, r.hdr) }); err != nil {
			t.Fatalf("prefix commit failed: %v", err)
		}
	}
	return path, fs, f, tx
}

// openTx opens the transactional layer with the cache this run sweeps.
func (r *txRun) openTx(st eio.Store) (*eio.TxStore, error) {
	if r.small {
		return eio.OpenTxStoreFrames(st, r.anchor, smallCacheFrames)
	}
	return eio.OpenTxStore(st, r.anchor)
}

// update runs the op's transaction and, if it commits, the checkpoint
// after it: the window every fault point falls in.
func (r *txRun) update(tx *eio.TxStore) (committed bool, err error) {
	err = guard(func() error { return tx.Update(func() error { return r.w.Op(tx, r.hdr) }) })
	if err == nil {
		return true, tx.Sync() // the checkpoint: apply barrier, anchor, held frees
	}
	return false, err
}

// baseline runs the op unfaulted, records the states on either side of it
// and returns the operations it performed: all, and mutating. The op runs
// on a cold cache, as in every faulted run; the pre-op state is read on a
// copy of its own.
func (r *txRun) baseline(t *testing.T) (ops, muts int) {
	t.Helper()
	_, _, _, tx := r.open(t, "pre", eio.Fail, 0)
	var err error
	if r.before, err = r.w.State(tx, r.hdr); err != nil {
		t.Fatalf("%s: pre-op state: %v", r.w.Name, err)
	}
	if err := tx.Close(); err != nil {
		t.Fatalf("%s: close pre-op store: %v", r.w.Name, err)
	}
	_, _, f, tx := r.open(t, "baseline", eio.Fail, 0)
	ops0, muts0 := f.Ops()
	if _, err := r.update(tx); err != nil {
		t.Fatalf("%s: baseline op failed: %v", r.w.Name, err)
	}
	ops, muts = f.Ops()
	if r.after, err = r.w.State(tx, r.hdr); err != nil {
		t.Fatalf("%s: post-op state: %v", r.w.Name, err)
	}
	if r.after == r.before {
		t.Fatalf("%s: op did not change the structure state", r.w.Name)
	}
	if err := tx.Close(); err != nil {
		t.Fatalf("%s: close baseline store: %v", r.w.Name, err)
	}
	return ops - ops0, muts - muts0
}

// crash crashes the op at its k-th mutating operation under model m,
// recovers, and checks before-or-after semantics.
func (r *txRun) crash(t *testing.T, m eio.Model, k int) {
	t.Helper()
	path, fs, f, tx := r.open(t, fmt.Sprintf("%d-%s", k, m), m, int64(1000+k))
	f.Arm(k)
	committed, err := r.update(tx)
	if err == nil {
		t.Fatalf("crash at mutating op %d was not reached (op finished)", k)
	}
	checkFault(t, err, eio.ErrCrashed, "crash at op", k)
	acked := tx.AppliedLSN()
	if _, err := f.Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	if err := fs.CloseCrash(); err != nil {
		t.Fatalf("close crashed file: %v", err)
	}
	want := "" // pre-op or post-op
	if committed {
		want = r.after
	}
	r.recover(t, path, acked, want, fmt.Sprintf("crash at op %d (op committed: %v)", k, committed))
}

// fail fails the op's k-th operation with an error, checks the store's
// state in process, then checkpoints, closes, recovers and checks that the
// file agrees.
func (r *txRun) fail(t *testing.T, k int) {
	t.Helper()
	path, _, f, tx := r.open(t, fmt.Sprintf("%d-error", k), eio.Fail, 0)
	lsn := tx.AppliedLSN()
	f.Arm(k)
	_, err := r.update(tx)
	if err == nil {
		t.Fatalf("error at op %d was swallowed: the op reported success", k)
	}
	checkFault(t, err, eio.ErrInjected, "error at op", k)
	acked := tx.AppliedLSN()
	want := r.before
	if acked > lsn {
		want = r.after // the commit point was passed
	}
	// The fault fired once; an injected error from here on is the store's
	// sticky one, after which only a reopen tells pre-op from post-op.
	state, err := r.state(tx)
	switch {
	case errors.Is(err, eio.ErrInjected):
		if acked == lsn {
			want = ""
		}
	case err != nil:
		t.Fatalf("error at op %d: in-process state audit failed: %v", k, err)
	case state != want:
		t.Fatalf("error at op %d (lsn %d -> %d) left the wrong state in process:\npre:  %s\npost: %s\ngot:  %s",
			k, lsn, acked, r.before, r.after, state)
	}
	stopped := err != nil
	for _, step := range []func() error{tx.Sync, tx.Close} {
		if err := step(); err != nil && !(stopped && errors.Is(err, eio.ErrInjected)) {
			t.Fatalf("error at op %d: checkpoint or close after the error: %v", k, err)
		}
	}
	r.recover(t, path, acked, want, fmt.Sprintf("error at op %d", k))
}

// recover reopens the file at path, runs recovery, and checks the LSN
// against acked, the state against want (or against pre-op and post-op
// when want is empty), the scrub, and the file.
func (r *txRun) recover(t *testing.T, path string, acked uint64, want, when string) {
	t.Helper()
	fs, err := eio.OpenFileStore(path)
	if err != nil {
		t.Fatalf("%s: reopen: %v", when, err)
	}
	tx, err := r.openTx(fs)
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", when, err)
	}
	if got := tx.AppliedLSN(); got < acked {
		t.Fatalf("%s: recovered lsn %d below acknowledged lsn %d (recovery %s)", when, got, acked, tx.Recovery())
	}
	state, err := r.state(tx)
	if err != nil {
		t.Fatalf("%s: post-recovery state audit failed (recovery %s): %v", when, tx.Recovery(), err)
	}
	if state != want && (want != "" || state != r.before && state != r.after) {
		t.Fatalf("%s: recovered to the wrong state (recovery %s):\npre:  %s\npost: %s\ngot:  %s",
			when, tx.Recovery(), r.before, r.after, state)
	}

	// Scrub leaked allocations; the logical state must not move.
	reach, err := r.w.Reachable(tx, r.hdr)
	if err != nil {
		t.Fatalf("%s: reachability walk failed: %v", when, err)
	}
	meta, err := tx.MetaPages()
	if err != nil {
		t.Fatalf("%s: tx meta pages: %v", when, err)
	}
	rep, err := eio.Scrub(fs, append(reach, meta...))
	if err != nil {
		t.Fatalf("%s: scrub failed: %v", when, err)
	}
	if after, err := r.state(tx); err != nil || after != state {
		t.Fatalf("%s: scrub (%s) changed the structure state: %v", when, rep, err)
	}
	if err := tx.Close(); err != nil {
		t.Fatalf("%s: close recovered store: %v", when, err)
	}
	verify(t, path, when+": recovered file")
}

// state is w.State with a panic turned into a failure.
func (r *txRun) state(st eio.Store) (s string, err error) {
	err = guard(func() error {
		s, err = r.w.State(st, r.hdr)
		return err
	})
	return s, err
}

// SweepBare runs Build, Prefix and Op on a bare MemStore, with no
// transaction — the shape of a store that updates pages in place — once to
// count their operations and then once per sampled operation k with that
// operation failing (sub-tests op<k>). The error must surface, wrapping
// eio.ErrInjected, nothing may panic, and once Build has returned a
// header, Reachable must still walk every page.
func SweepBare(t *testing.T, w Workload) {
	t.Helper()
	f := eio.NewFaultStore(eio.NewMemStore(w.PageSize), eio.Fail, 0)
	hdr, err := runBare(w, f)
	if err != nil {
		t.Fatalf("%s: baseline run failed: %v", w.Name, err)
	}
	total, _ := f.Ops()
	if _, err := w.Reachable(f, hdr); err != nil {
		t.Fatalf("%s: baseline reachability walk failed: %v", w.Name, err)
	}
	ks := sampleOps(total, w.MaxRuns)
	t.Logf("%s: sweeping %d of %d operations", w.Name, len(ks), total)
	for _, k := range ks {
		t.Run(fmt.Sprintf("%s/op%d", w.Name, k), func(t *testing.T) {
			f := eio.NewFaultStore(eio.NewMemStore(w.PageSize), eio.Fail, 0)
			f.Arm(k)
			hdr, err := runBare(w, f)
			if err == nil {
				t.Fatalf("fault at op %d was swallowed: workload reported success", k)
			}
			checkFault(t, err, eio.ErrInjected, "fault at op", k)
			if hdr == eio.NilPage {
				return // the structure never got built; nothing to walk
			}
			if err := guard(func() error { _, err := w.Reachable(f, hdr); return err }); err != nil {
				t.Fatalf("reachability walk after the fault at op %d: %v", k, err)
			}
		})
	}
}

// runBare runs Build, Prefix and Op on st, stopping at the first error. It
// returns the header Build returned, if any: a Build that fails after its
// structure exists may return both.
func runBare(w Workload, st eio.Store) (hdr eio.PageID, err error) {
	err = guard(func() error {
		if hdr, err = w.Build(st); err != nil {
			return err
		}
		if w.Prefix != nil {
			if err := w.Prefix(st, hdr); err != nil {
				return err
			}
		}
		return w.Op(st, hdr)
	})
	return hdr, err
}

// panicError carries a recovered panic through the error return.
type panicError struct {
	value any
	stack []byte
}

func (p panicError) Error() string { return fmt.Sprintf("panic: %v\n%s", p.value, p.stack) }

// guard runs fn converting a panic into an error, so a sweep can report it
// with the faulted operation's index instead of dying.
func guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError{value: r, stack: debug.Stack()}
		}
	}()
	return fn()
}

// checkFault fails the test unless err is the injected fault, want,
// rather than a panic or some other error.
func checkFault(t *testing.T, err, want error, what string, k int) {
	t.Helper()
	var pe panicError
	if errors.As(err, &pe) {
		t.Fatalf("%s %d: %v", what, k, pe)
	}
	if !errors.Is(err, want) {
		t.Fatalf("%s %d surfaced as another error: %v", what, k, err)
	}
}

// verify fails the test unless the store file at path is undamaged.
func verify(t *testing.T, path, what string) {
	t.Helper()
	rep, err := eio.VerifyFile(path)
	if err != nil {
		t.Fatalf("verify %s: %v", what, err)
	}
	if rep.Damaged() {
		t.Fatalf("%s damaged:\n%s", what, rep)
	}
}

// sampleOps returns the operation indices to sweep: all of 1..total when
// it fits the cap, otherwise an even sample including 1 and total.
func sampleOps(total, maxRuns int) []int {
	if maxRuns <= 0 {
		maxRuns = defaultMaxRuns
	}
	if total <= maxRuns {
		ks := make([]int, total)
		for i := range ks {
			ks[i] = i + 1
		}
		return ks
	}
	ks := make([]int, 0, maxRuns)
	last := 0
	for i := 0; i < maxRuns; i++ {
		// Evenly spaced over [1, total], biased to hit both ends.
		k := 1 + i*(total-1)/(maxRuns-1)
		if k != last {
			ks = append(ks, k)
			last = k
		}
	}
	return ks
}
