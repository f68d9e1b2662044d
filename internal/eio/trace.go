package eio

import (
	"fmt"
	"sync/atomic"
)

// TraceEvent is one block-level operation observed by a TraceStore: what
// was done to which page. A SpanSink counts events into a request span;
// tests log them to check which pages an operation touches.
type TraceEvent struct {
	// Op is the operation kind (OpRead, OpWrite, OpAlloc, OpFree).
	Op Op
	// Page is the page operated on (for Alloc, the id returned).
	Page PageID
}

// TraceSink consumes trace events. Implementations must be safe for
// concurrent use: a TraceStore calls Emit from whatever goroutine performs
// the I/O, and queries may run in parallel.
//
// Emit must not call back into the emitting TraceStore (it would deadlock
// on stores that serialize internally and would recurse on ones that do
// not).
type TraceSink interface {
	Emit(TraceEvent)
}

// TraceStore wraps a Store and emits one TraceEvent per operation to an
// attached TraceSink, whether or not the inner call failed: a failed read
// still hit the block layer. With no sink attached the wrapper is a thin
// pass-through, a single atomic load per operation, so it can be left in
// place permanently and only pays when someone is listening (see
// BenchmarkTraceStoreNilSink).
//
// Stats, ResetStats and Pages delegate to the inner store: a TraceStore
// adds observation, never accounting of its own.
type TraceStore struct {
	inner Store
	sink  atomic.Pointer[sinkBox]
}

// sinkBox wraps the interface value so it can live behind atomic.Pointer.
type sinkBox struct{ s TraceSink }

var _ Store = (*TraceStore)(nil)

// NewTraceStore wraps inner with no sink attached.
func NewTraceStore(inner Store) *TraceStore {
	return &TraceStore{inner: inner}
}

// SetSink attaches sink (nil detaches). Safe to call at any time, including
// while other goroutines are mid-operation; those operations keep the sink
// they loaded.
func (t *TraceStore) SetSink(sink TraceSink) {
	if sink == nil {
		t.sink.Store(nil)
		return
	}
	t.sink.Store(&sinkBox{s: sink})
}

// emit delivers one event to the boxed sink; a nil box (no sink attached)
// drops it. Each operation loads the box once, before the inner call, so
// an attach or detach racing with the operation either sees it whole or
// not at all.
func (b *sinkBox) emit(op Op, page PageID) {
	if b != nil {
		b.s.Emit(TraceEvent{Op: op, Page: page})
	}
}

// PageSize implements Store.
func (t *TraceStore) PageSize() int { return t.inner.PageSize() }

// Alloc implements Store.
func (t *TraceStore) Alloc() (PageID, error) {
	b := t.sink.Load()
	id, err := t.inner.Alloc()
	b.emit(OpAlloc, id)
	return id, err
}

// Free implements Store.
func (t *TraceStore) Free(id PageID) error {
	b := t.sink.Load()
	err := t.inner.Free(id)
	b.emit(OpFree, id)
	return err
}

// Read implements Store.
func (t *TraceStore) Read(id PageID, buf []byte) error {
	b := t.sink.Load()
	err := t.inner.Read(id, buf)
	b.emit(OpRead, id)
	return err
}

// Write implements Store.
func (t *TraceStore) Write(id PageID, buf []byte) error {
	b := t.sink.Load()
	err := t.inner.Write(id, buf)
	b.emit(OpWrite, id)
	return err
}

// Stats implements Store, reporting the inner store's counters. Like every
// wrapper in this package, a TraceStore keeps no counters of its own.
func (t *TraceStore) Stats() Stats { return t.inner.Stats() }

// ResetStats implements Store by delegating to the inner store.
func (t *TraceStore) ResetStats() { t.inner.ResetStats() }

// Pages implements Store.
func (t *TraceStore) Pages() int { return t.inner.Pages() }

// Sync delegates to the inner store's durability barrier, if any, so
// transactional commit points pass through a traced stack unweakened.
func (t *TraceStore) Sync() error {
	if s, ok := t.inner.(syncer); ok {
		return s.Sync()
	}
	return nil
}

// writeRaw delegates torn writes so crash simulators compose with tracing.
func (t *TraceStore) writeRaw(id PageID, prefix []byte) error {
	rw, ok := t.inner.(rawWriter)
	if !ok {
		return fmt.Errorf("eio: inner store does not support raw writes")
	}
	return rw.writeRaw(id, prefix)
}

// LivePageIDs implements PageLister when the inner store does.
func (t *TraceStore) LivePageIDs() ([]PageID, error) {
	pl, ok := t.inner.(PageLister)
	if !ok {
		return nil, fmt.Errorf("eio: trace: inner store cannot enumerate pages")
	}
	return pl.LivePageIDs()
}

// Close implements Store. The sink is detached first so a closing flurry
// of inner-store activity is not observed half-torn.
func (t *TraceStore) Close() error {
	t.sink.Store(nil)
	return t.inner.Close()
}
