package smallstruct

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
)

// Property: an arbitrary operation sequence keeps the structure equal to a
// set under 3-sided queries, MaxY, Len and Contains — across rebuilds.
func TestQuickOpSequence(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 50,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(rng.Int63())
			vals[1] = reflect.ValueOf(50 + rng.Intn(400))
			vals[2] = reflect.ValueOf(2 + rng.Intn(4)) // alpha
		},
	}
	err := quick.Check(func(seed int64, ops, alpha int) bool {
		rng := rand.New(rand.NewSource(seed))
		store := eio.NewMemStore(128) // B = 8
		s, err := Create(store, alpha, nil)
		if err != nil {
			return false
		}
		model := map[geom.Point]bool{}
		for i := 0; i < ops; i++ {
			p := geom.Point{X: rng.Int63n(48), Y: rng.Int63n(48)}
			if rng.Intn(3) != 0 {
				err := s.Insert(p)
				if model[p] {
					if !errors.Is(err, ErrDuplicate) {
						return false
					}
				} else if err != nil {
					return false
				}
				model[p] = true
			} else {
				found, err := s.Delete(p)
				if err != nil || found != model[p] {
					return false
				}
				delete(model, p)
			}
		}
		if s.CheckBlocks() != nil {
			return false
		}
		n, err := s.Len()
		if err != nil || n != len(model) {
			return false
		}
		// The 48-wide universe makes query sides tie with stored
		// coordinates; the cases add a one-column query, infinite sides
		// and a bottom above every stored y.
		for trial := 0; trial < 30; trial++ {
			a := rng.Int63n(50)
			b := a + rng.Int63n(50)
			c := rng.Int63n(50)
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
				c = 48
			}
			q := geom.Query3{XLo: a, XHi: b, YLo: c}
			got, err := s.Query3(nil, q)
			if err != nil {
				return false
			}
			seen := map[geom.Point]bool{}
			for _, p := range got {
				if seen[p] || !model[p] || !q.Contains(p) {
					return false
				}
				seen[p] = true
			}
			for p := range model {
				if q.Contains(p) && !seen[p] {
					return false
				}
			}
		}
		top, ok, err := s.MaxY()
		if err != nil {
			return false
		}
		if len(model) == 0 {
			return !ok
		}
		if !ok || !model[top] {
			return false
		}
		for p := range model {
			if top.YLess(p) {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}
