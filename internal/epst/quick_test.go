package epst

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
)

// Property: for any random operation sequence, the tree answers every
// 3-sided query exactly like a set, and the Section 3.3 invariants hold
// afterwards. This is the repository's most load-bearing property test:
// it exercises splits, Y-set spills, bubble-ups and rebuilds under every
// interleaving the generator finds.
func TestQuickOpSequence(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 40,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(rng.Int63())
			vals[1] = reflect.ValueOf(100 + rng.Intn(400)) // ops
			vals[2] = reflect.ValueOf(16 + rng.Intn(49))   // coordinate universe edge
			// K = 4 keeps every point of a leaf in its parent's Y-set;
			// K = B (the default) leaves up to B−1 stored in the leaf.
			vals[3] = reflect.ValueOf(4 + 4*rng.Intn(2))
		},
	}
	err := quick.Check(func(seed int64, ops, edge, k int) bool {
		rng := rand.New(rand.NewSource(seed))
		store := eio.NewMemStore(128) // B = 8
		tr, err := Create(store, Options{A: 2, K: k})
		if err != nil {
			return false
		}
		model := map[geom.Point]bool{}
		for i := 0; i < ops; i++ {
			p := geom.Point{X: rng.Int63n(int64(edge)), Y: rng.Int63n(int64(edge))}
			if rng.Intn(3) != 0 {
				err := tr.Insert(p)
				if model[p] != (err != nil) {
					return false
				}
				model[p] = true
			} else {
				found, err := tr.Delete(p)
				if err != nil || found != model[p] {
					return false
				}
				delete(model, p)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			return false
		}
		// The small universe makes query sides tie with stored
		// coordinates; the cases add a one-column query, infinite sides
		// and a bottom above every stored y.
		for trial := 0; trial < 30; trial++ {
			a := rng.Int63n(int64(edge))
			b := a + rng.Int63n(int64(edge))
			c := rng.Int63n(int64(edge))
			switch trial % 6 {
			case 1:
				b = a
			case 2:
				a = geom.MinCoord
			case 3:
				b, c = geom.MaxCoord, geom.MinCoord
			case 4:
				a, b = geom.MinCoord, geom.MaxCoord
			case 5:
				c = int64(edge)
			}
			q := geom.Query3{XLo: a, XHi: b, YLo: c}
			got, err := tr.Query3(nil, q)
			if err != nil {
				return false
			}
			seen := map[geom.Point]bool{}
			for _, p := range got {
				if seen[p] || !model[p] || !q.Contains(p) {
					return false // duplicate or wrong report
				}
				seen[p] = true
			}
			for p := range model {
				if q.Contains(p) && !seen[p] {
					return false // missed report
				}
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// Property: bulk build and incremental insertion of the same point set
// answer every query identically (construction-path independence).
func TestQuickBuildVsIncremental(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 25,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			n := rng.Intn(250)
			seen := map[geom.Point]bool{}
			pts := make([]geom.Point, 0, n)
			for len(pts) < n {
				p := geom.Point{X: rng.Int63n(200), Y: rng.Int63n(200)}
				if !seen[p] {
					seen[p] = true
					pts = append(pts, p)
				}
			}
			vals[0] = reflect.ValueOf(pts)
			vals[1] = reflect.ValueOf(rng.Int63())
		},
	}
	err := quick.Check(func(pts []geom.Point, qseed int64) bool {
		bulk, err := Build(eio.NewMemStore(128), Options{A: 2, K: 4}, pts)
		if err != nil {
			return false
		}
		incr, err := Create(eio.NewMemStore(128), Options{A: 2, K: 4})
		if err != nil {
			return false
		}
		for _, p := range pts {
			if err := incr.Insert(p); err != nil {
				return false
			}
		}
		rng := rand.New(rand.NewSource(qseed))
		for trial := 0; trial < 8; trial++ {
			a := rng.Int63n(220) - 10
			b := a + rng.Int63n(220)
			c := rng.Int63n(220) - 10
			q := geom.Query3{XLo: a, XHi: b, YLo: c}
			g1, err1 := bulk.Query3(nil, q)
			g2, err2 := incr.Query3(nil, q)
			if err1 != nil || err2 != nil {
				return false
			}
			geom.SortByX(g1)
			geom.SortByX(g2)
			if len(g1) != len(g2) {
				return false
			}
			for i := range g1 {
				if g1[i] != g2[i] {
					return false
				}
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}
