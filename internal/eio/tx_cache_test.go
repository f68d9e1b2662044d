package eio

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

// ioCounter counts what reaches a TxStore's inner store: page writes split
// into WAL/anchor pages and data pages, and barriers.
type ioCounter struct {
	Store
	meta                         map[PageID]bool
	metaWrites, dataWrites, sync int
}

func (c *ioCounter) Write(id PageID, buf []byte) error {
	if c.meta[id] {
		c.metaWrites++
	} else {
		c.dataWrites++
	}
	return c.Store.Write(id, buf)
}

func (c *ioCounter) Sync() error { c.sync++; return nil }

// TestTxCommitForcesOnlyLog pins what a commit costs the inner store: for m
// images, the walRecordPages(m) pages of its record and ONE barrier — no
// data page is written on the way to the ack. The images sit in the cache;
// a checkpoint (Sync) puts every one of them in place.
func TestTxCommitForcesOnlyLog(t *testing.T) {
	const ps = 128
	for _, m := range []int{1, 3, 7} {
		mem := NewMemStore(ps)
		cnt := &ioCounter{Store: mem, meta: map[PageID]bool{}}
		tx, err := NewTxStore(cnt, TxOptions{WALPages: 16})
		if err != nil {
			t.Fatal(err)
		}
		meta, err := tx.MetaPages()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range meta {
			cnt.meta[id] = true
		}
		ids := make([]PageID, m)
		for i := range ids {
			if ids[i], err = tx.Alloc(); err != nil {
				t.Fatal(err)
			}
		}
		cnt.metaWrites, cnt.dataWrites, cnt.sync = 0, 0, 0
		if err := tx.Update(func() error {
			for i, id := range ids {
				if err := tx.Write(id, fillPage(ps, byte(i+1))); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if want := walRecordPages(m, ps); cnt.metaWrites != want || cnt.dataWrites != 0 || cnt.sync != 1 {
			t.Fatalf("m=%d: commit cost %d WAL writes, %d data writes, %d syncs; want %d, 0, 1",
				m, cnt.metaWrites, cnt.dataWrites, cnt.sync, want)
		}
		buf := make([]byte, ps)
		for i, id := range ids {
			if err := tx.Read(id, buf); err != nil || buf[0] != byte(i+1) {
				t.Fatalf("m=%d: page %d through the store: %#x, %v", m, id, buf[0], err)
			}
		}
		if err := tx.Sync(); err != nil {
			t.Fatal(err)
		}
		if cnt.dataWrites != m {
			t.Fatalf("m=%d: checkpoint wrote %d data pages, want %d", m, cnt.dataWrites, m)
		}
		for i, id := range ids {
			if err := mem.Read(id, buf); err != nil || buf[0] != byte(i+1) {
				t.Fatalf("m=%d: page %d on the inner store after Sync: %#x, %v", m, id, buf[0], err)
			}
		}
		if d := tx.Cache().Dirty(); d != 0 {
			t.Fatalf("m=%d: %d dirty frames after Sync", m, d)
		}
		tx.Close()
	}
}

// TestTxRunWrite pins the contiguous WAL append: over a FileStore (whose
// fresh ring is one run of ids) the record goes out through WriteRun, still
// counts one write per page, and a reopened store replays it.
func TestTxRunWrite(t *testing.T) {
	const ps = 128
	path := filepath.Join(t.TempDir(), "run.db")
	fs, err := CreateFileStore(path, ps)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := NewTxStore(fs, TxOptions{WALPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if tx.run == nil {
		t.Fatal("a fresh FileStore ring is consecutive: the run write must be on")
	}
	const m = 40 // 43 WAL pages: three WriteRun chunks, the last page padded
	ids := make([]PageID, m)
	for i := range ids {
		ids[i], _ = tx.Alloc()
	}
	before := fs.Stats()
	if err := tx.Update(func() error {
		for i, id := range ids {
			if err := tx.Write(id, fillPage(ps, byte(i+1))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := fs.Stats().Sub(before).Writes, uint64(walRecordPages(m, ps)); got != want {
		t.Fatalf("commit counted %d writes, want %d (one per WAL page)", got, want)
	}
	anchor := tx.Anchor()
	if err := fs.CloseCrash(); err != nil { // every image is still only in the cache
		t.Fatal(err)
	}
	fs2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := OpenTxStore(fs2, anchor)
	if err != nil {
		t.Fatal(err)
	}
	defer tx2.Close()
	if ri := tx2.Recovery(); ri.Records != 1 || ri.PagesRedone != m {
		t.Fatalf("recovery %s, want one record of %d pages", ri, m)
	}
	buf := make([]byte, ps)
	for i, id := range ids {
		if err := tx2.Read(id, buf); err != nil || !bytes.Equal(buf, fillPage(ps, byte(i+1))) {
			t.Fatalf("page %d after replay: %#x, %v", id, buf[0], err)
		}
	}
}

// TestTxCacheCoherence drives a TxStore whose cache has four frames — so
// steal evictions happen in the middle of commits and on the read path —
// with a seeded random schedule of transactions, rollbacks, frees,
// re-allocations, writes outside a transaction, checkpoints and
// crash-and-reopen, against a map of what every live page must hold. Every
// read, inside a transaction or not, must see the model; after a checkpoint
// so must the inner store; after a crash that loses every unsynced write
// and every frame, so must the recovered store.
func TestTxCacheCoherence(t *testing.T) {
	const (
		ps     = 64
		frames = 4
		steps  = 1500
	)
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			path := filepath.Join(t.TempDir(), "coherence.db")
			fs, err := CreateFileStore(path, ps)
			if err != nil {
				t.Fatal(err)
			}
			cs := NewCrashStore(fs, seed)
			tx, err := newTxStoreFrames(cs, TxOptions{WALPages: 24}, frames)
			if err != nil {
				t.Fatal(err)
			}
			anchor := tx.Anchor()
			evictions, steals := uint64(0), uint64(0)

			model := map[PageID][]byte{}
			gone := map[PageID]bool{} // freed and not handed out again
			buf := make([]byte, ps)
			liveIDs := func(m map[PageID][]byte) []PageID {
				ids := make([]PageID, 0, len(m))
				for id := range m {
					ids = append(ids, id)
				}
				slices.Sort(ids)
				return ids
			}
			image := func() []byte {
				img := make([]byte, ps)
				rng.Read(img)
				return img
			}
			check := func(when string, m map[PageID][]byte, id PageID) {
				t.Helper()
				if err := tx.Read(id, buf); err != nil {
					t.Fatalf("%s: read page %d: %v", when, id, err)
				}
				if !bytes.Equal(buf, m[id]) {
					t.Fatalf("%s: page %d reads %x…, the model says %x…", when, id, buf[:4], m[id][:4])
				}
			}
			checkAll := func(when string) {
				t.Helper()
				for _, id := range liveIDs(model) {
					check(when, model, id)
				}
				for id := range gone {
					if err := tx.Read(id, buf); !errors.Is(err, ErrBadPage) {
						t.Fatalf("%s: freed page %d reads: %v", when, id, err)
					}
				}
			}
			// body runs one transaction's worth of operations against next.
			body := func(when string, next map[PageID][]byte, freed map[PageID]bool) error {
				for n := 1 + rng.Intn(6); n > 0; n-- {
					ids := liveIDs(next)
					switch k := rng.Intn(10); {
					case k < 2 || len(ids) < 4:
						id, err := tx.Alloc()
						if err != nil {
							return err
						}
						delete(freed, id)
						next[id] = make([]byte, ps) // a fresh page reads as zeros, whoever owned the id before
						check(when, next, id)
						next[id] = image()
						if err := tx.Write(id, next[id]); err != nil {
							return err
						}
					case k < 4 && len(ids) > 6:
						id := ids[rng.Intn(len(ids))]
						delete(next, id)
						freed[id] = true
						if err := tx.Free(id); err != nil {
							return err
						}
					case k < 8:
						id := ids[rng.Intn(len(ids))]
						next[id] = image()
						if err := tx.Write(id, next[id]); err != nil {
							return err
						}
					default:
						check(when, next, ids[rng.Intn(len(ids))])
					}
				}
				return nil
			}
			clone := func() (map[PageID][]byte, map[PageID]bool) {
				next, freed := make(map[PageID][]byte, len(model)), make(map[PageID]bool, len(gone))
				for id, img := range model {
					next[id] = img
				}
				for id := range gone {
					freed[id] = true
				}
				return next, freed
			}

			for step := 0; step < steps; step++ {
				when := fmt.Sprintf("step %d", step)
				cache, ckpts, before := tx.Cache(), tx.Timings().Checkpoints, tx.Cache().PoolStats()
				k := rng.Intn(100)
				switch {
				case k < 55: // a committed transaction
					next, freed := clone()
					if err := tx.Update(func() error { return body(when+" (in tx)", next, freed) }); err != nil {
						t.Fatalf("%s: commit: %v", when, err)
					}
					model, gone = next, freed
				case k < 65: // a transaction that rolls back: nothing of it stays
					next, freed := clone()
					boom := errors.New("boom")
					err := tx.Update(func() error {
						if err := body(when+" (in doomed tx)", next, freed); err != nil {
							return err
						}
						return boom
					})
					if !errors.Is(err, boom) {
						t.Fatalf("%s: rollback: %v", when, err)
					}
					for id := range next { // its allocations went back to the store
						if _, ok := model[id]; !ok {
							gone[id] = true
						}
					}
				case k < 75 && len(model) > 0: // a write outside any transaction, made durable
					ids := liveIDs(model)
					id := ids[rng.Intn(len(ids))]
					model[id] = image()
					if err := tx.Write(id, model[id]); err != nil {
						t.Fatalf("%s: outside write: %v", when, err)
					}
					if err := tx.Sync(); err != nil {
						t.Fatalf("%s: sync: %v", when, err)
					}
				case k < 80 && len(model) > 6: // a free outside any transaction
					ids := liveIDs(model)
					id := ids[rng.Intn(len(ids))]
					delete(model, id)
					gone[id] = true
					if err := tx.Free(id); err != nil {
						t.Fatalf("%s: outside free: %v", when, err)
					}
				case k < 88: // a checkpoint: the inner store catches up
					if err := tx.Sync(); err != nil {
						t.Fatalf("%s: checkpoint: %v", when, err)
					}
					for _, id := range liveIDs(model) {
						if err := cs.Read(id, buf); err != nil || !bytes.Equal(buf, model[id]) {
							t.Fatalf("%s: page %d on the inner store after a checkpoint: %v", when, id, err)
						}
					}
				case k < 93: // power loss: unsynced writes, held frees and every frame are gone
					if _, err := cs.Crash(); err != nil {
						t.Fatal(err)
					}
					if err := fs.CloseCrash(); err != nil {
						t.Fatal(err)
					}
					if fs, err = OpenFileStore(path); err != nil {
						t.Fatalf("%s: reopen: %v", when, err)
					}
					cs = NewCrashStore(fs, seed+int64(step))
					if tx, err = OpenTxStoreFrames(cs, anchor, frames); err != nil {
						t.Fatalf("%s: recovery: %v", when, err)
					}
					// Pages whose free never reached the disk are merely
					// leaked: allocated, never read again by the model.
					gone = map[PageID]bool{}
					checkAll(when + ", after recovery " + tx.Recovery().String())
				default:
					ids := liveIDs(model)
					if len(ids) > 0 {
						check(when, model, ids[rng.Intn(len(ids))])
					}
				}
				// A write-back in a step that ran no checkpoint is a steal.
				if after := cache.PoolStats(); cache == tx.Cache() {
					evictions += after.Evictions - before.Evictions
					if tx.Timings().Checkpoints == ckpts {
						steals += after.Writeback - before.Writeback
					}
				}
				if step%50 == 0 {
					checkAll(when)
				}
			}
			checkAll("end")
			if evictions == 0 || steals == 0 {
				t.Fatalf("schedule exercised no steal: %d evictions, %d dirty frames stolen", evictions, steals)
			}
			t.Logf("%d evictions, at least %d dirty frames stolen", evictions, steals)
			if err := tx.Close(); err != nil {
				t.Fatal(err)
			}
			if rep, err := VerifyFile(path); err != nil || rep.Damaged() {
				t.Fatalf("verify: %v\n%s", err, rep)
			}
		})
	}
}

// TestTxCacheConcurrentReaders has snapshot-style readers (shared lock)
// miss, fill and steal in a four-frame cache while a writer commits and
// checkpoints: every page a reader sees must be one whole committed image.
// Run with -race.
func TestTxCacheConcurrentReaders(t *testing.T) {
	const (
		ps      = 64
		pages   = 12
		commits = 300
	)
	tx, err := newTxStoreFrames(NewMemStore(ps), TxOptions{WALPages: 16}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i], _ = tx.Alloc()
		if err := tx.Write(ids[i], fillPage(ps, 0)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]byte, ps)
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[i%pages]
				if err := tx.Read(id, buf); err != nil {
					t.Errorf("reader %d: page %d: %v", r, id, err)
					return
				}
				if !bytes.Equal(buf, fillPage(ps, buf[0])) {
					t.Errorf("reader %d: page %d is a mix of images: %x", r, id, buf)
					return
				}
			}
		}(r)
	}
	for c := 1; c <= commits; c++ {
		if err := tx.Update(func() error {
			for k := 0; k < 3; k++ {
				if err := tx.Write(ids[(c*5+k*7)%pages], fillPage(ps, byte(c))); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if c%40 == 0 {
			if err := tx.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}
