package eio

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rangesearch/internal/geom"
)

// Property: any byte payload round-trips through a record chain, on any
// page size, and occupies exactly PagesFor(len) pages.
func TestQuickRecordRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			data := make([]byte, rng.Intn(3000))
			rng.Read(data)
			vals[0] = reflect.ValueOf(data)
			vals[1] = reflect.ValueOf(32 + rng.Intn(200))
		},
	}
	err := quick.Check(func(data []byte, pageSize int) bool {
		store := NewMemStore(pageSize)
		defer store.Close()
		rs := NewRecordStore(store)
		id, err := rs.Put(data)
		if err != nil {
			return false
		}
		got, err := rs.Get(id, nil)
		if err != nil || !bytes.Equal(got, data) {
			return false
		}
		return store.Pages() == rs.PagesFor(len(data))
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// Property: points round-trip through the block codec bit-exactly.
func TestQuickPointCodec(t *testing.T) {
	err := quick.Check(func(x, y int64) bool {
		buf := make([]byte, PointSize)
		PutPoint(buf, 0, geom.Point{X: x, Y: y})
		p := GetPoint(buf, 0)
		return p.X == x && p.Y == y
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// Property: a pool-wrapped store is observationally equivalent to the
// bare store for any interleaving of writes and reads.
func TestQuickPoolEquivalence(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(rng.Int63())
			vals[1] = reflect.ValueOf(1 + rng.Intn(6)) // pool capacity
			vals[2] = reflect.ValueOf(20 + rng.Intn(200))
		},
	}
	err := quick.Check(func(seed int64, capacity, ops int) bool {
		rng := rand.New(rand.NewSource(seed))
		direct := NewMemStore(64)
		pooled := NewPool(NewMemStore(64), capacity)
		defer direct.Close()
		defer pooled.Close()
		var ids []PageID
		for i := 0; i < ops; i++ {
			switch {
			case len(ids) == 0 || rng.Intn(8) == 0:
				a, err1 := direct.Alloc()
				b, err2 := pooled.Alloc()
				if err1 != nil || err2 != nil || a != b {
					return false
				}
				ids = append(ids, a)
			case rng.Intn(2) == 0:
				id := ids[rng.Intn(len(ids))]
				data := make([]byte, 64)
				rng.Read(data)
				if direct.Write(id, data) != nil || pooled.Write(id, data) != nil {
					return false
				}
			default:
				id := ids[rng.Intn(len(ids))]
				b1 := make([]byte, 64)
				b2 := make([]byte, 64)
				if direct.Read(id, b1) != nil || pooled.Read(id, b2) != nil {
					return false
				}
				if !bytes.Equal(b1, b2) {
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

// Property: Stats arithmetic is consistent: (a+b)-b == a.
func TestQuickStatsArithmetic(t *testing.T) {
	err := quick.Check(func(r1, w1, a1, f1, r2, w2, a2, f2 uint32) bool {
		a := Stats{Reads: uint64(r1), Writes: uint64(w1), Allocs: uint64(a1), Frees: uint64(f1)}
		b := Stats{Reads: uint64(r2), Writes: uint64(w2), Allocs: uint64(a2), Frees: uint64(f2)}
		if a.Add(b).Sub(b) != a {
			return false
		}
		return a.IOs() == a.Reads+a.Writes
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
