package wbuf

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rangesearch/internal/core"
	"rangesearch/internal/eio"
	"rangesearch/internal/epst"
	"rangesearch/internal/geom"
)

// buildScript produces a deterministic mixed op sequence over a small
// domain (so deletes hit, duplicates occur, and points get re-inserted).
func buildScript(n int, seed int64) []core.BatchOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]core.BatchOp, n)
	for i := range ops {
		ops[i] = core.BatchOp{
			Delete: rng.Float64() < 0.35,
			P:      geom.Point{X: rng.Int63n(64), Y: rng.Int63n(64)},
		}
	}
	return ops
}

// applyModel plays ops over m with the index's semantics (dup inserts
// and absent deletes are no-ops).
func applyModel(m model, ops []core.BatchOp) {
	for _, op := range ops {
		if op.Delete {
			m.delete(op.P)
		} else {
			m.insert(op.P)
		}
	}
}

// freshBase builds a ThreeSided preloaded with pts on its own MemStore.
func freshBase(t *testing.T, pts []geom.Point) core.Index {
	t.Helper()
	mem := eio.NewMemStore(512)
	t.Cleanup(func() { mem.Close() })
	idx, err := core.NewThreeSided(mem, epst.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := idx.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	return idx
}

func verifyAgainstModel(t *testing.T, idx core.Index, m model, label string) {
	t.Helper()
	all := geom.Rect{XLo: 0, XHi: 1 << 20, YLo: 0, YHi: 1 << 20}
	got, err := idx.Query(nil, all)
	if err != nil {
		t.Fatalf("%s: query: %v", label, err)
	}
	geom.SortByX(got)
	want := m.query(all)
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: point %d = %v, want %v", label, i, got[i], want[i])
		}
	}
	if n, err := idx.Len(); err != nil || n != len(want) {
		t.Fatalf("%s: len=%d err=%v, want %d", label, n, err, len(want))
	}
}

// TestJournalRecoverySweep crashes the journal at EVERY byte offset: a
// scripted run stages ops (journal synced per op, never flushed), the
// journal file is cut to each possible length, and the reopened stack
// must recover exactly the acknowledged prefix — the ops whose records
// survived whole — with torn tails discarded, never a torn or invented
// state.
func TestJournalRecoverySweep(t *testing.T) {
	nOps := 40
	if testing.Short() {
		nOps = 16
	}
	script := buildScript(nOps, 7)
	basePts := []geom.Point{{X: 1, Y: 1}, {X: 10, Y: 20}, {X: 33, Y: 3}}

	// Record the journal bytes after each acked op by staging the script
	// once. MaxOps is huge so nothing flushes: the journal holds the
	// whole history.
	dir := t.TempDir()
	livePath := filepath.Join(dir, "live.journal")
	live, err := NewBuffered(freshBase(t, basePts), Options{MaxOps: 1 << 20, Journal: livePath})
	if err != nil {
		t.Fatal(err)
	}
	// ackedAfter[i] = ops of the script acknowledged once journal holds
	// i valid bytes. Build by replaying the script and snapshotting the
	// journal length after each op.
	type ack struct {
		bytes int64
		op    int // script ops [0, op) acknowledged
	}
	var acks []ack
	for i, op := range script {
		var err error
		if op.Delete {
			_, err = live.Delete(op.P)
		} else {
			err = live.Insert(op.P)
		}
		if !benign(err) {
			t.Fatalf("op %d: %v", i, err)
		}
		fi, err := os.Stat(livePath)
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, ack{bytes: fi.Size(), op: i + 1})
	}
	total := acks[len(acks)-1].bytes

	for cut := int64(0); cut <= total; cut++ {
		// Acked prefix at this cut: the last op whose journal bytes fit
		// wholly under the cut. (Ops that staged nothing — absent
		// deletes, dup inserts — add no bytes and ride along.)
		opCount := 0
		for _, a := range acks {
			if a.bytes <= cut {
				opCount = a.op
			}
		}
		raw, err := os.ReadFile(livePath)
		if err != nil {
			t.Fatal(err)
		}
		crashPath := filepath.Join(dir, "crash.journal")
		if err := os.WriteFile(crashPath, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		m := model{}
		for _, p := range basePts {
			m.insert(p)
		}
		applyModel(m, script[:opCount])

		reopened, err := NewBuffered(freshBase(t, basePts), Options{MaxOps: 1 << 20, Journal: crashPath})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		verifyAgainstModel(t, reopened, m, "cut")
		if err := reopened.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
	live.Close()
}

// TestPartialFlushReplayIdempotent simulates a crash at every point
// inside a flush: the base has absorbed the first k collapsed
// operations but the journal was not yet truncated. A reopen replays
// the FULL journal over the partially-flushed base and must converge to
// exactly the acknowledged state — replay is idempotent because staging
// probes the base fresh.
func TestPartialFlushReplayIdempotent(t *testing.T) {
	script := buildScript(60, 11)
	basePts := []geom.Point{{X: 2, Y: 2}, {X: 40, Y: 9}, {X: 17, Y: 55}, {X: 63, Y: 0}}

	// Stage the whole script once to capture the journal and compute the
	// collapsed flush ops (what flushLocked would apply).
	dir := t.TempDir()
	jpath := filepath.Join(dir, "full.journal")
	staged, err := NewBuffered(freshBase(t, basePts), Options{MaxOps: 1 << 20, Journal: jpath})
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range script {
		var err error
		if op.Delete {
			_, err = staged.Delete(op.P)
		} else {
			err = staged.Insert(op.P)
		}
		if !benign(err) {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	flushOps := staged.collapsedOps()
	journalRaw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}

	m := model{}
	for _, p := range basePts {
		m.insert(p)
	}
	applyModel(m, script)

	for k := 0; k <= len(flushOps); k++ {
		// Base state at crash: initial points + first k flush ops.
		base := freshBase(t, basePts)
		if err := applyOps(base, flushOps[:k]); err != nil {
			t.Fatalf("k=%d: partial flush: %v", k, err)
		}
		crashPath := filepath.Join(dir, "crash.journal")
		if err := os.WriteFile(crashPath, journalRaw, 0o644); err != nil {
			t.Fatal(err)
		}
		reopened, err := NewBuffered(base, Options{MaxOps: 1 << 20, Journal: crashPath})
		if err != nil {
			t.Fatalf("k=%d: reopen: %v", k, err)
		}
		verifyAgainstModel(t, reopened, m, "partial flush")
		// Replay must also have flushed and truncated: a second reopen
		// finds an empty journal and the same state.
		if err := reopened.Close(); err != nil {
			t.Fatalf("k=%d: close: %v", k, err)
		}
		again, err := NewBuffered(base, Options{MaxOps: 1 << 20, Journal: crashPath})
		if err != nil {
			t.Fatalf("k=%d: second reopen: %v", k, err)
		}
		if again.Depth() != 0 {
			t.Fatalf("k=%d: second reopen depth %d", k, again.Depth())
		}
		verifyAgainstModel(t, again, m, "second reopen")
		again.Close()
	}
	staged.Close()
}

// collapsedOps exposes the flush collapse for the sweep (test-only).
func (b *Buffered) collapsedOps() []core.BatchOp {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.netOpsLocked()
}
