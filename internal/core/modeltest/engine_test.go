package modeltest

import (
	"errors"
	"fmt"

	"rangesearch/internal/core"
	"rangesearch/internal/geom"
	"rangesearch/internal/trace"
)

// EngineFactory builds a fresh, empty core.Engine under test — the surface
// a server serves, which need not be a core.Index (repl.Node is not). ios
// reports the page reads+writes the stack has performed so far through the
// writer's store and through its reader views (header loads of a view
// excluded), the two places an engine attributes I/O to a span from.
type EngineFactory func() (eng core.Engine, ios func() (writer, views int64), close func(), err error)

// OverEngine adapts an engine factory to the harness: Insert, Delete and
// Query are replayed as one-op Apply and Report calls, so the code a served
// request runs is what meets the model. With traced set every operation
// carries a live span, and the span's read+write count must equal the I/O
// the stack performed for that operation — a write's on the writer side, a
// read's on its view; a mismatch surfaces as the operation's error, i.e.
// as a Divergence. Either way the engine's position must never go backwards.
func OverEngine(mk EngineFactory, traced bool) Factory {
	return func() (core.Index, func(), error) {
		eng, ios, closeFn, err := mk()
		if err != nil {
			return nil, nil, err
		}
		return &engineIndex{eng: eng, ios: ios, traced: traced}, closeFn, nil
	}
}

type engineIndex struct {
	eng       core.Engine
	ios       func() (writer, views int64)
	traced    bool
	term, lsn uint64 // last position observed
}

// run performs one operation with the span and position checks around it;
// a failed check takes precedence over the operation's own (often benign)
// error.
func (e *engineIndex) run(name string, read bool, do func(sp *trace.Span) error) error {
	var sp *trace.Span
	var w0, v0 int64
	if e.traced {
		sp = trace.New(trace.ID{}, name)
		w0, v0 = e.ios()
	}
	opErr := do(sp)
	if e.traced {
		w1, v1 := e.ios()
		want := w1 - w0
		if read {
			want = v1 - v0
		}
		if got := sp.IOs(); got != want {
			return fmt.Errorf("modeltest: %s span attributes %d I/Os, its store performed %d", name, got, want)
		}
	}
	term, lsn := e.eng.Position()
	if term < e.term || (term == e.term && lsn < e.lsn) {
		return fmt.Errorf("modeltest: position went backwards: (%d,%d) after (%d,%d)", term, lsn, e.term, e.lsn)
	}
	e.term, e.lsn = term, lsn
	return opErr
}

func (e *engineIndex) Insert(p geom.Point) error {
	return e.run("insert", false, func(sp *trace.Span) error {
		return e.eng.Apply([]core.BatchOp{{P: p}}, sp)[0].Err
	})
}

func (e *engineIndex) Delete(p geom.Point) (found bool, err error) {
	err = e.run("delete", false, func(sp *trace.Span) error {
		r := e.eng.Apply([]core.BatchOp{{Delete: true, P: p}}, sp)[0]
		found = r.Found
		return r.Err
	})
	return found, err
}

func (e *engineIndex) Query(dst []geom.Point, q geom.Rect) ([]geom.Point, error) {
	err := e.run("query", true, func(sp *trace.Span) (err error) {
		dst, err = e.eng.Report(dst, q, sp)
		return err
	})
	return dst, err
}

func (e *engineIndex) Len() (int, error) { return e.eng.Len() }

// Destroy is not part of the engine surface; the factory's close tears the
// stack down.
func (e *engineIndex) Destroy() error { return errors.New("modeltest: engine adapter has no Destroy") }
