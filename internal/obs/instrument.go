package obs

import (
	"sync"
	"time"

	"rangesearch/internal/core"
	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
)

// Instrumented decorates a core.Index with per-operation measurement:
// every Insert/Delete/Query is timed, its exact store-level I/Os are
// attributed via Stats deltas, and the resulting OpRecord (including the
// reported-point count t and the structure size N at call time) is pushed
// to a Collector for bound checking.
//
// Operations serialize on an internal mutex — exact attribution needs
// exclusive use of the store's counters, so an Instrumented index is also
// a safely shareable one (at the cost of query parallelism).
type Instrumented struct {
	mu    sync.Mutex
	idx   core.Index
	store eio.Store
	col   *Collector
	n     int // live structure size, maintained across ops
}

var _ core.Index = (*Instrumented)(nil)

// Instrument wraps idx, attributing I/Os on store (the store idx lives on)
// and recording into col. The structure's current size is read once here
// and maintained incrementally afterwards.
func Instrument(idx core.Index, store eio.Store, col *Collector) (*Instrumented, error) {
	n, err := idx.Len()
	if err != nil {
		return nil, err
	}
	return &Instrumented{idx: idx, store: store, col: col, n: n}, nil
}

// measure runs f under the lock with stats attribution.
func (in *Instrumented) measure(kind OpKind, f func() (t int, err error)) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	before := in.store.Stats()
	start := time.Now()
	t, err := f()
	lat := time.Since(start)
	d := in.store.Stats().Sub(before)
	in.col.Add(OpRecord{
		Kind:    kind,
		Reads:   d.Reads,
		Writes:  d.Writes,
		T:       t,
		N:       in.n,
		Latency: lat,
		Err:     err != nil,
	})
	return err
}

// Insert implements core.Index.
func (in *Instrumented) Insert(p geom.Point) error {
	return in.measure(OpInsert, func() (int, error) {
		err := in.idx.Insert(p)
		if err == nil {
			in.n++
		}
		return 0, err
	})
}

// Delete implements core.Index.
func (in *Instrumented) Delete(p geom.Point) (found bool, err error) {
	err = in.measure(OpDelete, func() (int, error) {
		var ferr error
		found, ferr = in.idx.Delete(p)
		if ferr == nil && found {
			in.n--
		}
		return 0, ferr
	})
	return found, err
}

// Query implements core.Index. The record's T is the number of points
// appended by this call.
func (in *Instrumented) Query(dst []geom.Point, q geom.Rect) (res []geom.Point, err error) {
	err = in.measure(OpQuery, func() (int, error) {
		var qerr error
		res, qerr = in.idx.Query(dst, q)
		return len(res) - len(dst), qerr
	})
	return res, err
}

// Len implements core.Index (unmeasured: it is bookkeeping, not a bound).
func (in *Instrumented) Len() (int, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.idx.Len()
}

// Destroy implements core.Index.
func (in *Instrumented) Destroy() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.idx.Destroy()
}
