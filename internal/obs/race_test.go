package obs

import (
	"sync"
	"sync/atomic"
	"testing"

	"rangesearch/internal/core"
	"rangesearch/internal/eio"
	"rangesearch/internal/epst"
	"rangesearch/internal/geom"
)

// opCount is a test sink counting events per operation kind from any
// number of goroutines.
type opCount [4]atomic.Uint64

func (c *opCount) Emit(e eio.TraceEvent) { c[e.Op].Add(1) }

// TestConcurrentTracedIndex drives a core.Concurrent index whose writer
// and every reader view sit on TraceStores sharing one sink, from many
// goroutines, so `go test -race` proves the observation path — store, sink
// attach and detach, event delivery — is data-race free while queries run
// in parallel with updates.
func TestConcurrentTracedIndex(t *testing.T) {
	snap := eio.NewSnapStore(eio.NewMemStore(1024), 0)
	ts := eio.NewTraceStore(snap)
	sinks := &opCount{}
	ts.SetSink(sinks)

	idx, err := core.NewThreeSided(ts, epst.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
	hdr := idx.HeaderID()
	conc, err := core.NewConcurrent(idx, snap, func(view eio.Store) (core.Index, error) {
		vts := eio.NewTraceStore(view)
		vts.SetSink(sinks)
		return core.OpenThreeSided(vts, hdr)
	}, core.ConcurrentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer conc.Close()

	const (
		writers = 4
		readers = 4
		perG    = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				p := geom.Point{X: int64(w*perG + i), Y: int64((w*perG + i) * 31 % 9973)}
				if err := conc.Insert(p); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if i%3 == 0 {
					if _, err := conc.Delete(p); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				lo := int64(i * 4 % 800)
				if _, err := conc.Query(nil, geom.Rect{XLo: lo, XHi: lo + 100, YLo: 0, YHi: geom.MaxCoord}); err != nil {
					t.Errorf("query: %v", err)
					return
				}
				// Exercise sink churn while I/Os are in flight.
				if i%50 == 0 && r == 0 {
					ts.SetSink(sinks)
				}
			}
		}(r)
	}
	wg.Wait()

	if sinks[eio.OpRead].Load() == 0 || sinks[eio.OpWrite].Load() == 0 {
		t.Fatalf("events reached the sink: %d reads, %d writes", sinks[eio.OpRead].Load(), sinks[eio.OpWrite].Load())
	}
	n, err := conc.Len()
	if err != nil {
		t.Fatal(err)
	}
	// Each writer inserts perG points and deletes ceil(perG/3) of them.
	want := writers * (perG - (perG+2)/3)
	if n != want {
		t.Fatalf("final size %d, want %d", n, want)
	}
}

// TestConcurrentInstrumented exercises the Instrumented decorator itself
// from many goroutines (it serializes internally) under -race.
func TestConcurrentInstrumented(t *testing.T) {
	ts := eio.NewTraceStore(eio.NewMemStore(1024))
	ts.SetSink(&opCount{})
	idx, err := core.NewThreeSided(ts, epst.Options{})
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	in, err := Instrument(idx, ts, col)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				switch g % 3 {
				case 0:
					_ = in.Insert(geom.Point{X: int64(g*1000 + i), Y: int64(i)})
				case 1:
					_, _ = in.Delete(geom.Point{X: int64(i), Y: int64(i)})
				default:
					_, _ = in.Query(nil, geom.Rect{XLo: 0, XHi: 50, YLo: 0, YHi: geom.MaxCoord})
				}
			}
		}(g)
	}
	wg.Wait()
	if col.Len() != 600 {
		t.Fatalf("collector has %d records, want 600", col.Len())
	}
}
