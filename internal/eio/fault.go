package eio

import (
	"fmt"
	"math/rand"
	"sync"
)

// Op identifies a store operation for fault injection.
type Op int

// Store operations that FaultStore can fail.
const (
	OpRead Op = iota
	OpWrite
	OpAlloc
	OpFree
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpAlloc:
		return "alloc"
	case OpFree:
		return "free"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// TraceEntry records one operation seen by a FaultStore, for reproducing
// and reporting fault-injection failures.
type TraceEntry struct {
	// N is the 1-based global operation number.
	N uint64
	// Op is the operation kind.
	Op Op
	// Page is the page operated on (the returned id for Alloc).
	Page PageID
	// Injected reports whether the fault injector failed this operation.
	Injected bool
}

// String implements fmt.Stringer.
func (e TraceEntry) String() string {
	s := fmt.Sprintf("#%d %s p%d", e.N, e.Op, e.Page)
	if e.Injected {
		s += " [injected]"
	}
	return s
}

// FaultStore wraps a Store and injects deterministic failures, for testing
// that structures surface (rather than swallow) I/O errors and survive
// them. Faults can be armed several ways, combinable:
//
//   - FailAfter(op, n): one-shot — the n-th next operation of that kind
//     fails, then the fault disarms.
//   - FailAlways(op): persistent — every operation of that kind fails
//     until Disarm.
//   - FailProb(op, p): probabilistic — each operation of that kind fails
//     with probability p, driven by the seeded RNG (see Seed) so runs
//     reproduce exactly.
//   - FailNth(n): one-shot by global operation index, counting operations
//     of every kind — the unit the fault-sweep harness iterates over.
//
// Every injected error wraps ErrInjected. In torn-write mode an injected
// write fault additionally applies a partial prefix of the page to the
// inner store (when it supports raw writes) before failing, modelling a
// write that died halfway rather than one that never started.
//
// The store keeps a bounded trace of recent operations (SetTraceSize,
// Trace) so a failing sweep iteration can print exactly which I/Os led up
// to the fault.
type FaultStore struct {
	mu        sync.Mutex
	inner     Store
	countdown map[Op]int // 1 = fail next op of this kind
	always    map[Op]bool
	prob      map[Op]float64
	rng       *rand.Rand
	nops      uint64 // global operation counter
	failNth   uint64 // 0 = disarmed
	runLeft   map[Op]int
	tornWrite bool
	transient bool
	full      bool

	trace     []TraceEntry // ring buffer
	traceCap  int
	traceNext int
}

var _ Store = (*FaultStore)(nil)

// defaultTraceCap bounds the op trace unless SetTraceSize overrides it.
const defaultTraceCap = 64

// NewFaultStore wraps inner with fault injection (initially disarmed).
func NewFaultStore(inner Store) *FaultStore {
	return &FaultStore{
		inner:     inner,
		countdown: make(map[Op]int),
		always:    make(map[Op]bool),
		prob:      make(map[Op]float64),
		runLeft:   make(map[Op]int),
		rng:       rand.New(rand.NewSource(1)),
		traceCap:  defaultTraceCap,
	}
}

// FailAfter arms a one-shot fault: the n-th next operation of kind op
// fails (n = 1 fails the very next one). n ≤ 0 disarms the kind.
func (f *FaultStore) FailAfter(op Op, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n <= 0 {
		delete(f.countdown, op)
		return
	}
	f.countdown[op] = n
}

// FailAlways arms a persistent fault: every operation of kind op fails
// until Disarm.
func (f *FaultStore) FailAlways(op Op) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.always[op] = true
}

// FailProb arms a probabilistic fault: each operation of kind op fails
// with probability p (clamped to [0, 1]), using the seeded RNG so a given
// seed reproduces the same fault pattern. p ≤ 0 disarms the kind.
func (f *FaultStore) FailProb(op Op, p float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p <= 0 {
		delete(f.prob, op)
		return
	}
	if p > 1 {
		p = 1
	}
	f.prob[op] = p
}

// FailNth arms a one-shot fault on the n-th operation of any kind counted
// from now (n = 1 fails the very next operation). n ≤ 0 disarms.
func (f *FaultStore) FailNth(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n <= 0 {
		f.failNth = 0
		return
	}
	f.failNth = f.nops + uint64(n)
}

// FailRun arms a burst fault: the next n operations of kind op all fail,
// then the kind disarms. Combined with SetTransient this models a device
// that is briefly unreachable. n ≤ 0 disarms the kind.
func (f *FaultStore) FailRun(op Op, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n <= 0 {
		delete(f.runLeft, op)
		return
	}
	f.runLeft[op] = n
}

// SetTransient marks every injected fault as retryable: injected errors
// additionally wrap ErrTransient, so a caller can tell them from genuine
// corruption. Off by default — historically every injected fault was fatal.
func (f *FaultStore) SetTransient(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.transient = on
}

// SetFull toggles ENOSPC mode: while on, every Write and Alloc fails with
// an error wrapping ErrNoSpace (and ErrInjected), while Read and Free keep
// succeeding — exactly the failure surface of a full disk. The mode is
// independent of the one-shot/probabilistic schedules and stays armed until
// turned off, modelling space that only comes back when something reclaims
// it.
func (f *FaultStore) SetFull(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.full = on
}

// tripFull counts and traces an operation refused by ENOSPC mode. It
// returns nil when the mode is off.
func (f *FaultStore) tripFull(op Op, page PageID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.full {
		return nil
	}
	f.nops++
	f.record(TraceEntry{N: f.nops, Op: op, Page: page, Injected: true})
	return fmt.Errorf("eio: %s fault at op %d: %w (%w)", op, f.nops, ErrNoSpace, ErrInjected)
}

// Seed reseeds the RNG behind FailProb and torn-write lengths.
func (f *FaultStore) Seed(seed int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rng = rand.New(rand.NewSource(seed))
}

// SetTornWrites toggles torn-write mode for injected write faults.
func (f *FaultStore) SetTornWrites(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tornWrite = on
}

// Disarm clears all armed faults (one-shot, persistent, probabilistic and
// global-index).
func (f *FaultStore) Disarm() {
	f.mu.Lock()
	defer f.mu.Unlock()
	clear(f.countdown)
	clear(f.always)
	clear(f.prob)
	clear(f.runLeft)
	f.failNth = 0
	f.full = false
}

// Ops returns the number of operations this store has seen.
func (f *FaultStore) Ops() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nops
}

// SetTraceSize sets the number of recent operations retained by Trace
// (n ≤ 0 disables tracing).
func (f *FaultStore) SetTraceSize(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.traceCap = n
	f.trace = nil
	f.traceNext = 0
}

// Trace returns the retained recent operations, oldest first.
func (f *FaultStore) Trace() []TraceEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]TraceEntry, 0, len(f.trace))
	for i := 0; i < len(f.trace); i++ {
		out = append(out, f.trace[(f.traceNext+i)%len(f.trace)])
	}
	return out
}

// trip counts the operation, records it in the trace, and reports whether
// it must fail.
func (f *FaultStore) trip(op Op, page PageID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nops++
	inject := false
	if f.failNth != 0 && f.nops >= f.failNth {
		f.failNth = 0
		inject = true
	}
	if f.always[op] {
		inject = true
	}
	if p, ok := f.prob[op]; ok && f.rng.Float64() < p {
		inject = true
	}
	if n, ok := f.countdown[op]; ok {
		n--
		if n > 0 {
			f.countdown[op] = n
		} else {
			delete(f.countdown, op)
			inject = true
		}
	}
	if n, ok := f.runLeft[op]; ok {
		inject = true
		if n--; n > 0 {
			f.runLeft[op] = n
		} else {
			delete(f.runLeft, op)
		}
	}
	f.record(TraceEntry{N: f.nops, Op: op, Page: page, Injected: inject})
	if !inject {
		return nil
	}
	if f.transient {
		return fmt.Errorf("eio: %s fault at op %d: %w (%w)", op, f.nops, ErrTransient, ErrInjected)
	}
	return fmt.Errorf("eio: %s fault at op %d: %w", op, f.nops, ErrInjected)
}

// record appends e to the trace ring buffer. Callers hold mu.
func (f *FaultStore) record(e TraceEntry) {
	if f.traceCap <= 0 {
		return
	}
	if len(f.trace) < f.traceCap {
		f.trace = append(f.trace, e)
		return
	}
	f.trace[f.traceNext] = e
	f.traceNext = (f.traceNext + 1) % f.traceCap
}

// tearLocked applies a torn prefix of buf to page id on the inner store,
// best-effort. Callers must NOT hold mu.
func (f *FaultStore) tear(id PageID, buf []byte) {
	f.mu.Lock()
	rw, ok := f.inner.(rawWriter)
	var n int
	if ok && len(buf) > 0 {
		n = 1 + f.rng.Intn(len(buf))
	}
	f.mu.Unlock()
	if ok && n > 0 {
		_ = rw.writeRaw(id, buf[:n])
	}
}

// PageSize implements Store.
func (f *FaultStore) PageSize() int { return f.inner.PageSize() }

// Alloc implements Store.
func (f *FaultStore) Alloc() (PageID, error) {
	if err := f.tripFull(OpAlloc, NilPage); err != nil {
		return NilPage, err
	}
	if err := f.trip(OpAlloc, NilPage); err != nil {
		return NilPage, err
	}
	return f.inner.Alloc()
}

// Free implements Store.
func (f *FaultStore) Free(id PageID) error {
	if err := f.trip(OpFree, id); err != nil {
		return err
	}
	return f.inner.Free(id)
}

// Read implements Store.
func (f *FaultStore) Read(id PageID, buf []byte) error {
	if err := f.trip(OpRead, id); err != nil {
		return err
	}
	return f.inner.Read(id, buf)
}

// Write implements Store. With torn-write mode on, an injected fault
// leaves a partial prefix of buf on the inner store before failing. In
// ENOSPC mode the write is refused whole — a full disk rejects the write,
// it does not tear it.
func (f *FaultStore) Write(id PageID, buf []byte) error {
	if err := f.tripFull(OpWrite, id); err != nil {
		return err
	}
	if err := f.trip(OpWrite, id); err != nil {
		f.mu.Lock()
		torn := f.tornWrite
		f.mu.Unlock()
		if torn && len(buf) == f.inner.PageSize() {
			f.tear(id, buf)
		}
		return err
	}
	return f.inner.Write(id, buf)
}

// writeRaw delegates torn writes so a CrashStore can sit above a
// FaultStore (or vice versa).
func (f *FaultStore) writeRaw(id PageID, prefix []byte) error {
	rw, ok := f.inner.(rawWriter)
	if !ok {
		return fmt.Errorf("eio: inner store does not support raw writes")
	}
	return rw.writeRaw(id, prefix)
}

// Sync delegates to the inner store's durability barrier, if any.
func (f *FaultStore) Sync() error {
	if s, ok := f.inner.(syncer); ok {
		return s.Sync()
	}
	return nil
}

// Stats implements Store, reporting the inner store's counters (injected
// faults that never reach the inner store are not counted as I/Os).
func (f *FaultStore) Stats() Stats { return f.inner.Stats() }

// ResetStats implements Store by delegating to the inner store. Armed
// faults, the global operation counter used by FailNth, and the bounded
// operation trace are NOT reset — only accounting is.
func (f *FaultStore) ResetStats() { f.inner.ResetStats() }

// Pages implements Store.
func (f *FaultStore) Pages() int { return f.inner.Pages() }

// LivePageIDs implements PageLister when the inner store does.
func (f *FaultStore) LivePageIDs() ([]PageID, error) {
	pl, ok := f.inner.(PageLister)
	if !ok {
		return nil, fmt.Errorf("eio: fault: inner store cannot enumerate pages")
	}
	return pl.LivePageIDs()
}

// Close implements Store.
func (f *FaultStore) Close() error { return f.inner.Close() }
