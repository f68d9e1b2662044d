package eio

import (
	"sync"
	"testing"
)

// collectSink is a minimal test sink that records every event.
type collectSink struct {
	mu     sync.Mutex
	events []TraceEvent
}

func (c *collectSink) Emit(e TraceEvent) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *collectSink) snapshot() []TraceEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]TraceEvent(nil), c.events...)
}

func TestTraceStoreEmitsTypedEvents(t *testing.T) {
	ts := NewTraceStore(NewMemStore(128))
	defer ts.Close()
	sink := &collectSink{}
	ts.SetSink(sink)

	id, err := ts.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	buf[0] = 0xAB
	if err := ts.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := ts.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := ts.Free(id); err != nil {
		t.Fatal(err)
	}

	want := []TraceEvent{{OpAlloc, id}, {OpWrite, id}, {OpRead, id}, {OpFree, id}}
	ev := sink.snapshot()
	if len(ev) != len(want) {
		t.Fatalf("got %d events, want %d", len(ev), len(want))
	}
	for i, e := range ev {
		if e != want[i] {
			t.Errorf("event %d: %+v, want %+v", i, e, want[i])
		}
	}
}

func TestTraceStoreErrorEventsAndDetach(t *testing.T) {
	ts := NewTraceStore(NewMemStore(128))
	defer ts.Close()
	sink := &collectSink{}
	ts.SetSink(sink)

	// Reading an unallocated page fails, and the failed read is still an
	// event: it hit the block layer all the same.
	buf := make([]byte, 128)
	if err := ts.Read(PageID(99), buf); err == nil {
		t.Fatal("read of unallocated page succeeded")
	}
	ev := sink.snapshot()
	if len(ev) != 1 || ev[0] != (TraceEvent{OpRead, 99}) {
		t.Fatalf("events %v, want one read of page 99", ev)
	}

	// After detaching, operations emit nothing.
	ts.SetSink(nil)
	if _, err := ts.Alloc(); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.snapshot()); got != 1 {
		t.Fatalf("detached store emitted %d extra events", got-1)
	}
}

func TestTraceStoreDelegatesStats(t *testing.T) {
	inner := NewMemStore(128)
	ts := NewTraceStore(inner)
	defer ts.Close()
	ts.SetSink(&collectSink{})
	id, err := ts.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if err := ts.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	if got, want := ts.Stats(), inner.Stats(); got != want {
		t.Fatalf("Stats %v != inner %v", got, want)
	}
	if ts.Stats().Writes != 1 || ts.Stats().Allocs != 1 {
		t.Fatalf("unexpected stats %v", ts.Stats())
	}
	ts.ResetStats()
	if ts.Stats() != (Stats{}) {
		t.Fatalf("stats after reset: %v", ts.Stats())
	}
	if ts.Pages() != inner.Pages() {
		t.Fatalf("Pages %d != inner %d", ts.Pages(), inner.Pages())
	}
}

// BenchmarkMemStoreRead vs BenchmarkTraceStoreNilSink demonstrates the
// acceptance criterion that an attached-but-silent TraceStore is near-free:
// the nil-sink path is one atomic load on top of the inner call, with no
// clock reads and no allocation.
func BenchmarkMemStoreRead(b *testing.B) {
	s := NewMemStore(1024)
	id, _ := s.Alloc()
	buf := make([]byte, 1024)
	_ = s.Write(id, buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Read(id, buf)
	}
}

func BenchmarkTraceStoreNilSink(b *testing.B) {
	ts := NewTraceStore(NewMemStore(1024))
	id, _ := ts.Alloc()
	buf := make([]byte, 1024)
	_ = ts.Write(id, buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ts.Read(id, buf)
	}
}

func BenchmarkTraceStoreDiscardSink(b *testing.B) {
	ts := NewTraceStore(NewMemStore(1024))
	ts.SetSink(discardSink{})
	id, _ := ts.Alloc()
	buf := make([]byte, 1024)
	_ = ts.Write(id, buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ts.Read(id, buf)
	}
}

type discardSink struct{}

func (discardSink) Emit(TraceEvent) {}
