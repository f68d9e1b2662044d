package eio_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/eio/eiotest"
)

// rawPages is the number of pages the raw sweep's transaction rewrites:
// twice smallCacheFrames, so applying its record to the 4-frame cache
// writes committed images back in place (steals) halfway through.
const rawPages = 8

// rawWorkload is a header page listing rawPages+1 data pages filled with
// 0xAA. Op rewrites the first rawPages of them in one transaction, each
// with its own byte; Prefix rewrites the last one.
func rawWorkload() eiotest.Workload {
	ids := func(st eio.Store, hdr eio.PageID) ([]eio.PageID, error) {
		buf := make([]byte, st.PageSize())
		if err := st.Read(hdr, buf); err != nil {
			return nil, err
		}
		ids := make([]eio.PageID, rawPages+1)
		for i := range ids {
			ids[i] = eio.PageID(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		return ids, nil
	}
	fill := func(st eio.Store, id eio.PageID, b byte) error {
		return st.Write(id, bytes.Repeat([]byte{b}, st.PageSize()))
	}
	return eiotest.Workload{
		Name:     "raw",
		PageSize: 128,
		WALPages: 16,
		Build: func(st eio.Store) (eio.PageID, error) {
			hdr, err := st.Alloc()
			if err != nil {
				return eio.NilPage, err
			}
			buf := make([]byte, st.PageSize())
			for i := 0; i <= rawPages; i++ {
				id, err := st.Alloc()
				if err != nil {
					return eio.NilPage, err
				}
				if err := fill(st, id, 0xAA); err != nil {
					return eio.NilPage, err
				}
				binary.LittleEndian.PutUint64(buf[8*i:], uint64(id))
			}
			return hdr, st.Write(hdr, buf)
		},
		Op: func(st eio.Store, hdr eio.PageID) error {
			ids, err := ids(st, hdr)
			for i := 0; err == nil && i < rawPages; i++ {
				err = fill(st, ids[i], byte(0xB0+i))
			}
			return err
		},
		Prefix: func(st eio.Store, hdr eio.PageID) error {
			ids, err := ids(st, hdr)
			if err != nil {
				return err
			}
			return fill(st, ids[rawPages], 0xCC)
		},
		State: func(st eio.Store, hdr eio.PageID) (string, error) {
			ids, err := ids(st, hdr)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			buf := make([]byte, st.PageSize())
			for _, id := range ids {
				if err := st.Read(id, buf); err != nil {
					return "", err
				}
				if !bytes.Equal(buf, bytes.Repeat(buf[:1], len(buf))) {
					return "", fmt.Errorf("page %d is not one image", id)
				}
				fmt.Fprintf(&b, "%02x ", buf[0])
			}
			return b.String(), nil
		},
		Reachable: func(st eio.Store, hdr eio.PageID) ([]eio.PageID, error) {
			ids, err := ids(st, hdr)
			return append(ids, hdr), err
		},
		MaxRuns: 1 << 20, // every operation
	}
}

// TestTxRecoverySweepRaw is the eio-level recovery sweep: an 8-page
// transaction over raw pages, failed at every operation of its commit and
// checkpoint as an error and as a crash under each disk model; the pages
// must read all-old or all-new, in process and after recovery, and the
// file must verify clean.
func TestTxRecoverySweepRaw(t *testing.T) {
	eiotest.Sweep(t, rawWorkload())
}

// The history sweep crashes a HISTORY, not an op: a scripted run of
// commits that laps the WAL ring several times — allocating from the free
// list and by extending the file, freeing, and writing → freeing →
// re-allocating → rewriting the same page across commits — is killed at
// every mutating inner-store operation (WAL append, commit sync, each
// cache flush and steal write, each checkpoint step, each held free) under
// every disk model, and recovery must land on the state after some prefix
// of commits that includes every commit whose Commit returned. It runs
// twice: with the built-in page cache, which holds the whole history's
// working set (in-place writes happen only at checkpoints), and with one of
// histSmallCache frames, which steals — writes committed images in place
// between checkpoints, from commits and from reads. A crash drops every
// frame either way.

const (
	histPS      = 128
	histWAL     = 12 // pages: a lap is three to five commits
	histCommits = 24
	histSeed    = 7

	histSmallCache = 3 // frames; the history keeps 6 to 12 pages live
)

// histOpen opens the transactional layer with the built-in cache or the
// small one.
func histOpen(st eio.Store, anchor eio.PageID, small bool) (*eio.TxStore, error) {
	if small {
		return eio.OpenTxStoreFrames(st, anchor, histSmallCache)
	}
	return eio.OpenTxStore(st, anchor)
}

// histModel is the logical content of the store: the commit that last
// wrote each live page.
type histModel map[eio.PageID]byte

func (m histModel) clone() histModel {
	c := make(histModel, len(m))
	for id, v := range m {
		c[id] = v
	}
	return c
}

func (m histModel) ids() []eio.PageID {
	ids := make([]eio.PageID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func histImage(id eio.PageID, stamp byte) []byte {
	img := bytes.Repeat([]byte{stamp}, histPS)
	img[0] = byte(id)
	return img
}

// histRun is what one execution of the script saw.
type histRun struct {
	states  []histModel // states[i] is the model after commit i; states[0] the setup image
	pending histModel   // the commit in flight when the store died, if its body completed
	acked   int         // commits whose Commit returned
	reused  bool        // some Alloc returned a page an earlier commit freed
	grew    bool        // some Alloc extended the file
	err     error
}

// runHistory plays the script on tx from the setup model. It stops at the
// first store error (the crash).
func runHistory(tx *eio.TxStore, setup histModel) histRun {
	rng := rand.New(rand.NewSource(histSeed))
	run := histRun{states: []histModel{setup}}
	cur := setup
	freed := map[eio.PageID]bool{}
	var top eio.PageID
	for id := range setup {
		top = max(top, id)
	}
	for c := 1; c <= histCommits; c++ {
		next := cur.clone()
		stamp := byte(c)
		pick := func() eio.PageID { ids := next.ids(); return ids[rng.Intn(len(ids))] }
		write := func(id eio.PageID) error {
			next[id] = stamp
			return tx.Write(id, histImage(id, stamp))
		}
		alloc := func() error {
			id, err := tx.Alloc()
			if err != nil {
				return err
			}
			run.reused = run.reused || freed[id]
			run.grew = run.grew || id > top
			top = max(top, id)
			return write(id)
		}
		free := func(id eio.PageID) error {
			delete(next, id)
			freed[id] = true
			return tx.Free(id)
		}
		// lastWritten is the page an EARLIER commit wrote most recently: its
		// image sits in a record that is, as a rule, still in the ring.
		lastWritten := func() eio.PageID {
			ids := next.ids()
			best := ids[0]
			for _, id := range ids {
				if next[id] < stamp && next[id] >= next[best] {
					best = id
				}
			}
			return best
		}
		bodyDone := false
		err := tx.Update(func() error {
			var steps []func() error
			switch c % 4 {
			case 0: // rewrite two pages, one possibly twice
				steps = []func() error{func() error { return write(pick()) }, func() error { return write(pick()) }}
			case 1: // grow by one, touch one
				steps = []func() error{alloc, func() error { return write(pick()) }}
			case 2: // write a page, then free it or another; touch one
				steps = []func() error{func() error { return write(pick()) }, func() error { return free(pick()) }, func() error { return write(pick()) }}
			case 3: // replace: two in, out goes what the ring can still rewrite
				steps = []func() error{alloc, alloc, func() error { return free(lastWritten()) }}
			}
			for _, step := range steps {
				if err := step(); err != nil {
					return err
				}
			}
			bodyDone = true
			return nil
		})
		if err != nil {
			if bodyDone {
				run.pending = next
			}
			run.err = err
			return run
		}
		run.states = append(run.states, next)
		run.acked = c
		cur = next
	}
	run.err = tx.Sync() // the closing checkpoint is part of the history
	return run
}

// histSetup builds the checkpointed starting image: a TxStore with a few
// data pages written outside any transaction.
func histSetup(t *testing.T, path string) (eio.PageID, histModel) {
	t.Helper()
	fs, err := eio.CreateFileStore(path, histPS)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := eio.NewTxStore(fs, eio.TxOptions{WALPages: histWAL})
	if err != nil {
		t.Fatal(err)
	}
	setup := histModel{}
	for i := 0; i < 6; i++ {
		id, err := tx.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(id, histImage(id, 0)); err != nil {
			t.Fatal(err)
		}
		setup[id] = 0
	}
	anchor := tx.Anchor()
	if err := tx.Close(); err != nil {
		t.Fatal(err)
	}
	return anchor, setup
}

func histCheck(t *testing.T, st eio.Store, want histModel, when string) {
	t.Helper()
	buf := make([]byte, histPS)
	for _, id := range want.ids() {
		if err := st.Read(id, buf); err != nil {
			t.Fatalf("%s: read page %d: %v", when, id, err)
		}
		if !bytes.Equal(buf, histImage(id, want[id])) {
			t.Fatalf("%s: page %d holds stamp %d/%d, want commit %d", when, id, buf[0], buf[1], want[id])
		}
	}
}

func TestTxRecoverySweepHistory(t *testing.T) {
	dir := t.TempDir()
	pre := filepath.Join(dir, "setup.db")
	anchor, setup := histSetup(t, pre)
	image, err := os.ReadFile(pre)
	if err != nil {
		t.Fatal(err)
	}
	open := func(name string) (string, *eio.FileStore) {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := eio.OpenFileStore(path)
		if err != nil {
			t.Fatal(err)
		}
		return path, fs
	}

	for _, small := range []bool{false, true} {
		label, prefix := "built-in cache", "" // sub-test names: <mode>, smallcache/<mode>
		if small {
			label, prefix = "small cache", "smallcache/"
		}
		// Baseline: the uncrashed history, its op count and its coverage.
		_, fs := open("baseline.db")
		f := eio.NewFaultStore(fs, eio.Direct, 0)
		tx, err := histOpen(f, anchor, small)
		if err != nil {
			t.Fatal(err)
		}
		before := tx.Timings()
		base := runHistory(tx, setup)
		if base.err != nil {
			t.Fatalf("baseline history failed: %v", base.err)
		}
		_, total := f.Ops()
		tm := tx.Timings().Sub(before)
		if tm.Checkpoints < 4 { // three laps forced by a full ring + the closing one
			t.Fatalf("history lapped the ring %d times, want >= 3 (%d commits)", tm.Checkpoints-1, tm.Commits)
		}
		if !base.reused || !base.grew {
			t.Fatalf("history coverage: reused a freed page %v, extended the file %v — want both", base.reused, base.grew)
		}
		ps := tx.Cache().PoolStats()
		if stolen := ps.Evictions > 0; stolen != small {
			t.Fatalf("%s: %d evictions — the small cache must steal, the built-in one must hold the history", label, ps.Evictions)
		}
		histCheck(t, tx, base.states[histCommits], "baseline")
		if err := tx.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s history: %d commits, %d checkpoints, %d mutating ops, %d evictions, %d write-backs",
			label, tm.Commits, tm.Checkpoints, total, ps.Evictions, ps.Writeback)

		step := 1
		if testing.Short() {
			step = 5
		}
		for _, m := range []eio.Model{eio.Direct, eio.DropAll, eio.SubsetWhole, eio.Subset} {
			t.Run(prefix+m.String(), func(t *testing.T) {
				// Until the history outruns the crash point: a write cache in
				// the stack defers frees, so page ids — and with them the op
				// count — need not match the baseline's.
				k := 1
				for histCrashAt(t, open, anchor, setup, m, small, k) {
					k += step
				}
				if k < total/2 {
					t.Fatalf("sweep covered only %d ops of about %d", k, total)
				}
			})
		}
	}
}

// histCrashAt kills the history at its k-th mutating operation under one
// disk model, recovers, and checks everything the protocol promises. It
// returns false when the history finished before reaching operation k.
func histCrashAt(t *testing.T, open func(string) (string, *eio.FileStore), anchor eio.PageID, setup histModel, m eio.Model, small bool, k int) bool {
	t.Helper()
	when := fmt.Sprintf("%s, crash at op %d", m, k)
	path, fs := open(fmt.Sprintf("crash-%s-%d.db", m, k))
	defer os.Remove(path)
	f := eio.NewFaultStore(fs, m, int64(k))
	tx, err := histOpen(f, anchor, small)
	if err != nil {
		t.Fatalf("%s: open: %v", when, err)
	}
	f.Arm(k)
	run := runHistory(tx, setup)
	if run.err == nil {
		fs.Close()
		return false
	}
	if !errors.Is(run.err, eio.ErrCrashed) {
		t.Fatalf("%s: history ended with %v, want the crash", when, run.err)
	}
	ackedLSN := tx.AppliedLSN()
	if _, err := f.Crash(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if err := fs.CloseCrash(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}

	fs2, err := eio.OpenFileStore(path)
	if err != nil {
		t.Fatalf("%s: reopen: %v", when, err)
	}
	tx2, err := histOpen(fs2, anchor, small)
	if err != nil {
		t.Fatalf("%s: recovery: %v", when, err)
	}
	lsn := tx2.AppliedLSN()
	if lsn < ackedLSN {
		t.Fatalf("%s: AppliedLSN regressed across the reopen: %d -> %d (recovery %s)", when, ackedLSN, lsn, tx2.Recovery())
	}
	// Setup commits nothing, so commit c carries LSN c: the recovered LSN
	// names the prefix. It must hold every acknowledged commit and at most
	// the one in flight — and that one only if its record was ever written.
	j := int(lsn)
	var want histModel
	switch {
	case j < run.acked || j > run.acked+1:
		t.Fatalf("%s: recovered %d commits, %d were acknowledged (recovery %s)", when, j, run.acked, tx2.Recovery())
	case j < len(run.states):
		want = run.states[j]
	case run.pending != nil:
		want = run.pending
	default:
		t.Fatalf("%s: recovered commit %d, whose transaction body never finished (recovery %s)", when, j, tx2.Recovery())
	}
	histCheck(t, tx2, want, when+", after recovery "+tx2.Recovery().String())

	// Scrub converges: whatever the crash leaked (held frees, the in-flight
	// transaction's allocations) is reclaimed once, then nothing is left.
	meta, err := tx2.MetaPages()
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	reachable := append(want.ids(), meta...)
	if _, err := eio.Scrub(tx2, reachable); err != nil {
		t.Fatalf("%s: scrub: %v", when, err)
	}
	if rep, err := eio.FindLeaks(tx2, reachable); err != nil || len(rep.Leaked) != 0 {
		t.Fatalf("%s: scrub did not converge: %v, %v", when, rep, err)
	}
	// The allocator must hand out nothing the recovered image still owns,
	// and nothing twice (a free list the crash left cyclic would).
	owned := want.clone()
	if err := tx2.Update(func() error {
		for i := 0; i < 6; i++ {
			id, err := tx2.Alloc()
			if err != nil {
				return err
			}
			if _, live := owned[id]; live {
				return fmt.Errorf("allocator handed out live page %d", id)
			}
			owned[id] = 0xEE
			if err := tx2.Write(id, histImage(id, 0xEE)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("%s: post-recovery commit: %v", when, err)
	}
	histCheck(t, tx2, want, when+", after scrub and a further commit")
	if err := tx2.Close(); err != nil {
		t.Fatalf("%s: close: %v", when, err)
	}
	rep, err := eio.VerifyFile(path)
	if err != nil {
		t.Fatalf("%s: verify: %v", when, err)
	}
	if rep.Damaged() {
		t.Fatalf("%s: recovered file damaged:\n%s", when, rep)
	}
	return true
}
