package epst

import (
	"math/rand"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
)

// TestThroughBufferPool runs a full mixed workload through an LRU buffer
// pool and checks that the pooled tree stays byte-equivalent (under
// queries) to an unbuffered twin. This exercises write-back correctness
// across the allocation/free churn of splits and rebuilds — the practical
// deployment mode.
func TestThroughBufferPool(t *testing.T) {
	for _, capacity := range []int{2, 16, 256} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		backing := eio.NewMemStore(128)
		pool := eio.NewPool(backing, capacity)
		pooled, err := Create(pool, Options{A: 2, K: 4})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Create(eio.NewMemStore(128), Options{A: 2, K: 4})
		if err != nil {
			t.Fatal(err)
		}
		model := map[geom.Point]bool{}
		for op := 0; op < 1500; op++ {
			p := geom.Point{X: rng.Int63n(300), Y: rng.Int63n(300)}
			if rng.Intn(3) != 0 {
				if !model[p] {
					if err := pooled.Insert(p); err != nil {
						t.Fatalf("cap=%d op=%d: pooled insert: %v", capacity, op, err)
					}
					if err := plain.Insert(p); err != nil {
						t.Fatal(err)
					}
					model[p] = true
				}
			} else if model[p] {
				if _, err := pooled.Delete(p); err != nil {
					t.Fatalf("cap=%d op=%d: pooled delete: %v", capacity, op, err)
				}
				if _, err := plain.Delete(p); err != nil {
					t.Fatal(err)
				}
				delete(model, p)
			}
			if op%251 == 0 {
				a := rng.Int63n(300)
				b := a + rng.Int63n(300-a+1)
				c := rng.Int63n(300)
				q := geom.Query3{XLo: a, XHi: b, YLo: c}
				g1, err := pooled.Query3(nil, q)
				if err != nil {
					t.Fatal(err)
				}
				g2, err := plain.Query3(nil, q)
				if err != nil {
					t.Fatal(err)
				}
				geom.SortByX(g1)
				geom.SortByX(g2)
				if len(g1) != len(g2) {
					t.Fatalf("cap=%d op=%d: pooled %d vs plain %d results", capacity, op, len(g1), len(g2))
				}
				for i := range g1 {
					if g1[i] != g2[i] {
						t.Fatalf("cap=%d op=%d: result %d differs", capacity, op, i)
					}
				}
			}
		}
		if err := pooled.CheckInvariants(); err != nil {
			t.Fatalf("cap=%d: %v", capacity, err)
		}
		// After a flush, the backing store alone must hold a valid tree.
		if err := pool.Flush(); err != nil {
			t.Fatal(err)
		}
		reopened, err := Open(backing, pooled.HeaderID(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := reopened.CheckInvariants(); err != nil {
			t.Fatalf("cap=%d: backing store invalid after flush: %v", capacity, err)
		}
		n, err := reopened.Len()
		if err != nil || n != len(model) {
			t.Fatalf("cap=%d: backing Len=%d want %d (%v)", capacity, n, len(model), err)
		}
	}
}

// TestNodeSerializationRoundTrip checks encode/decode stability for both
// node kinds, including edge shapes.
func TestNodeSerializationRoundTrip(t *testing.T) {
	nodes := []*node{
		{level: 0},
		{level: 0, keys: []keyEntry{
			{p: geom.Point{X: -5, Y: 9}, here: true},
			{p: geom.Point{X: 0, Y: 0}, here: false},
			{p: geom.Point{X: geom.MaxCoord - 1, Y: geom.MinCoord + 1}, here: true},
		}},
		{level: 3, q: 42, entries: []entry{
			{maxKey: geom.Point{X: 1, Y: 2}, child: 7, weight: 1234567890123, ysize: 0},
			{maxKey: geom.Point{X: geom.MaxCoord, Y: geom.MaxCoord}, child: 9, weight: 1, ysize: 255},
		}},
	}
	for i, n := range nodes {
		raw := encodeNode(nil, n)
		v, err := viewNode(raw)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		got := v.decode(new(scratch))
		if got.level != n.level || got.q != n.q ||
			len(got.keys) != len(n.keys) || len(got.entries) != len(n.entries) {
			t.Fatalf("node %d: shape mismatch", i)
		}
		for j := range n.keys {
			if got.keys[j] != n.keys[j] {
				t.Fatalf("node %d key %d mismatch", i, j)
			}
		}
		for j := range n.entries {
			if got.entries[j] != n.entries[j] {
				t.Fatalf("node %d entry %d mismatch", i, j)
			}
		}
		// Re-encoding is byte-identical (layout determinism).
		raw2 := encodeNode(nil, got)
		if string(raw) != string(raw2) {
			t.Fatalf("node %d: re-encode differs", i)
		}
	}
	// Corrupt input is rejected, not crashed on.
	if _, err := viewNode([]byte{1, 2, 3}); err == nil {
		t.Fatal("short record accepted")
	}
	if _, err := viewNode(make([]byte, 40)); err == nil {
		t.Fatal("inconsistent record accepted")
	}
}

// TestProfile sanity-checks the per-level breakdown against known totals.
func TestProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	store := eio.NewMemStore(256) // B = 16
	pts := distinctPoints(rng, 5000, 1<<20)
	tr, err := Build(store, Options{}, pts)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := tr.Profile()
	if err != nil {
		t.Fatal(err)
	}
	h, err := tr.Height()
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) != h+1 {
		t.Fatalf("profile has %d levels, height %d", len(prof), h)
	}
	stored := 0
	for _, lp := range prof {
		stored += lp.Stored
		if lp.Nodes == 0 {
			t.Fatalf("level %d has no nodes", lp.Level)
		}
		if lp.Level > 0 && (lp.AvgYFill < 0 || lp.AvgYFill > 1) {
			t.Fatalf("level %d avg Y fill %v out of range", lp.Level, lp.AvgYFill)
		}
	}
	if stored != len(pts) {
		t.Fatalf("profile accounts for %d of %d points", stored, len(pts))
	}
	if prof[h].Nodes != 1 {
		t.Fatalf("root level has %d nodes", prof[h].Nodes)
	}
	if prof[h].Keys != int64(len(pts)) {
		t.Fatalf("root level routes %d keys, want %d", prof[h].Keys, len(pts))
	}
}
