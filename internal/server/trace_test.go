package server

import (
	"context"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rangesearch/internal/core"
	"rangesearch/internal/eio"
	"rangesearch/internal/epst"
	"rangesearch/internal/geom"
	"rangesearch/internal/obs"
	"rangesearch/internal/trace"
)

// captureRecorder is a SpanRecorder that retains every record, keyed for
// lookup by trace ID.
type captureRecorder struct {
	mu   sync.Mutex
	recs []trace.Record
}

func (c *captureRecorder) RecordSpan(r trace.Record) {
	c.mu.Lock()
	c.recs = append(c.recs, r)
	c.mu.Unlock()
}

// find returns the span recorded for id. The server emits a span after it
// has flushed the reply, so a client that already holds the response may
// be ahead of the recorder: find waits (up to 5 s) for the span to land.
func (c *captureRecorder) find(id trace.ID) (trace.Record, bool) {
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		c.mu.Lock()
		for _, r := range c.recs {
			if r.TraceID == id.String() {
				c.mu.Unlock()
				return r, true
			}
		}
		c.mu.Unlock()
		if time.Now().After(deadline) {
			return trace.Record{}, false
		}
	}
}

func (c *captureRecorder) all() []trace.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]trace.Record(nil), c.recs...)
}

// tracedServer is an in-process server whose writer index sits on an
// eio.TraceStore (exactly the rsserve stack), durable or volatile.
type tracedServer struct {
	srv    *Server
	addr   string
	snap   *eio.SnapStore
	tracer *eio.TraceStore
	served chan error
}

func newTracedServer(t *testing.T, cfg Config, durable bool) *tracedServer {
	t.Helper()
	var base eio.Store
	var tx *eio.TxStore
	if durable {
		fs, err := eio.CreateFileStore(filepath.Join(t.TempDir(), "trace.db"), 4096)
		if err != nil {
			t.Fatalf("CreateFileStore: %v", err)
		}
		tx, err = eio.NewTxStore(fs, eio.TxOptions{})
		if err != nil {
			t.Fatalf("NewTxStore: %v", err)
		}
		base = tx
	} else {
		base = eio.NewMemStore(4096)
	}
	snap := eio.NewSnapStore(base, 0)
	tracer := eio.NewTraceStore(snap)
	idx, err := core.NewThreeSided(tracer, epst.Options{})
	if err != nil {
		t.Fatalf("NewThreeSided: %v", err)
	}
	hdr := idx.HeaderID()
	if _, err := snap.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	var writer core.Index = idx
	if tx != nil {
		writer = core.NewDurable(idx, tx)
	}
	conc, err := core.NewConcurrent(writer, snap,
		func(s eio.Store) (core.Index, error) { return core.OpenThreeSided(s, hdr) },
		core.ConcurrentOptions{Tracer: tracer})
	if err != nil {
		t.Fatalf("NewConcurrent: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := New(conc, cfg)
	ts := &tracedServer{
		srv: srv, addr: ln.Addr().String(),
		snap: snap, tracer: tracer,
		served: make(chan error, 1),
	}
	go func() { ts.served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		<-ts.served
		conc.Close()
		snap.Close()
	})
	return ts
}

func (ts *tracedServer) dial(t *testing.T) *Client {
	t.Helper()
	cl, err := Dial(ts.addr, ClientOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestTracedRequestPhaseCoverage is the first acceptance criterion: for a
// traced request against a durable stack, the sum of the recorded phases
// must account for (at least) 95% of the span's wall time — the phases
// are the request's life, not a sample of it. Run on the durable stack
// where WAL append + fsync dominate, over a batch of requests, and
// assert the median coverage so one scheduler hiccup cannot flake the
// test.
func TestTracedRequestPhaseCoverage(t *testing.T) {
	rec := &captureRecorder{}
	ts := newTracedServer(t, Config{
		RequestTimeout: 0, // never detach: the span closes with the work complete
		Spans:          rec,
	}, true)
	cl := ts.dial(t)

	const n = 30
	ids := make([]trace.ID, 0, n)
	for i := 0; i < n; i++ {
		id := trace.NewID()
		ids = append(ids, id)
		resp, err := cl.Do(Request{
			Op:    OpInsert,
			P:     geom.Point{X: int64(i * 3), Y: int64(i * 7)},
			Trace: &TraceInfo{ID: id, Sampled: true},
		})
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if resp.Status != StatusOK {
			t.Fatalf("insert %d: status 0x%02x %s", i, resp.Status, resp.Msg)
		}
	}

	coverages := make([]float64, 0, n)
	for i, id := range ids {
		r, ok := rec.find(id)
		if !ok {
			t.Fatalf("span %d (%s) was not recorded", i, id)
		}
		if r.WallNs <= 0 {
			t.Fatalf("span %d: wall %d", i, r.WallNs)
		}
		var phaseSum int64
		for _, ns := range r.Phases {
			phaseSum += ns
		}
		cover := float64(phaseSum) / float64(r.WallNs)
		coverages = append(coverages, cover)
		// Phases are disjoint intervals inside the request: their sum may
		// not exceed the wall beyond clock-read granularity.
		if slack := float64(r.WallNs)*1.01 + float64(50*time.Microsecond); float64(phaseSum) > slack {
			t.Errorf("span %d: phase sum %dns exceeds wall %dns", i, phaseSum, r.WallNs)
		}
		// A durable insert must have visited the group-commit machinery.
		for _, phase := range []string{"execute", "sync"} {
			if r.Phases[phase] <= 0 {
				t.Errorf("span %d: phase %q missing: %v", i, phase, r.Phases)
			}
		}
	}
	med := median(coverages)
	if med < 0.95 {
		t.Fatalf("median phase coverage %.3f < 0.95 (coverages %v)", med, coverages)
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

// TestTracedIOMatchesInstrumented is the second acceptance criterion:
// the block I/O a span attributes to a request must exactly equal what
// obs.Instrumented measures for the same operation on an equivalent
// stack. Both measure the index↔store surface, so any disagreement means
// the span sink is attached over the wrong window.
func TestTracedIOMatchesInstrumented(t *testing.T) {
	const preload = 500
	rect := geom.Rect{XLo: 100, XHi: 900, YLo: 50, YHi: geom.MaxCoord}
	point := geom.Point{X: 12345, Y: 54321}

	// Reference stack: the same MemStore/SnapStore/EPST pyramid, driven
	// through core.Concurrent so epoch-commit timing (and with it the
	// copy-on-write page states) matches the server's, with an
	// obs.Instrumented reader measuring the ops of interest.
	refIns, refQry := instrumentedReference(t, preload, point, rect)

	// Server stack: identical build, ops delivered over the wire with
	// TRACE envelopes.
	rec := &captureRecorder{}
	ts := newTracedServer(t, Config{Spans: rec}, false)
	cl := ts.dial(t)
	for i := 0; i < preload; i++ {
		if _, err := cl.Insert(preloadPoint(i)); err != nil {
			t.Fatalf("preload %d: %v", i, err)
		}
	}

	insID, qryID := trace.NewID(), trace.NewID()
	if resp, err := cl.Do(Request{Op: OpInsert, P: point, Trace: &TraceInfo{ID: insID, Sampled: true}}); err != nil || resp.Status != StatusOK {
		t.Fatalf("traced insert: %v / %+v", err, resp)
	}
	if resp, err := cl.Do(Request{Op: OpQuery3, Rect: rect, Trace: &TraceInfo{ID: qryID, Sampled: true}}); err != nil || resp.Status != StatusOK {
		t.Fatalf("traced query: %v / %+v", err, resp)
	}

	insSpan, ok := rec.find(insID)
	if !ok {
		t.Fatal("insert span not recorded")
	}
	qrySpan, ok := rec.find(qryID)
	if !ok {
		t.Fatal("query span not recorded")
	}

	if insSpan.Reads != int64(refIns.Reads) || insSpan.Writes != int64(refIns.Writes) {
		t.Errorf("insert I/O: span reads=%d writes=%d, instrumented reads=%d writes=%d",
			insSpan.Reads, insSpan.Writes, refIns.Reads, refIns.Writes)
	}
	if qrySpan.Reads != int64(refQry.Reads) || qrySpan.Writes != int64(refQry.Writes) {
		t.Errorf("query I/O: span reads=%d writes=%d, instrumented reads=%d writes=%d",
			qrySpan.Reads, qrySpan.Writes, refQry.Reads, refQry.Writes)
	}
	if qrySpan.Writes != 0 {
		t.Errorf("query span attributed %d writes; snapshot reads must not write", qrySpan.Writes)
	}
}

// TestUnsampledZeroAlloc pins the cost of the tracing machinery on the
// untraced fast path: when the request carries no TRACE envelope and the
// server samples nothing, the span gate allocates nothing.
func TestUnsampledZeroAlloc(t *testing.T) {
	ts := newTracedServer(t, Config{}, false)
	req := Request{Op: OpQuery3, Rect: geom.Rect{XLo: 0, XHi: 10, YLo: 0, YHi: 10}}
	start := time.Now()
	if allocs := testing.AllocsPerRun(1000, func() {
		if sp := ts.srv.startSpan(req, start); sp != nil {
			t.Fatal("unsampled request produced a span")
		}
	}); allocs != 0 {
		t.Fatalf("unsampled startSpan allocates %.1f objects/op, want 0", allocs)
	}

	// With counter sampling on, only every Nth gate may allocate.
	ts2 := newTracedServer(t, Config{TraceSample: 0.001}, false)
	if allocs := testing.AllocsPerRun(999, func() {
		ts2.srv.startSpan(req, start)
	}); allocs >= 1 {
		t.Fatalf("sampled-out startSpan allocates %.2f objects/op, want <1 amortized", allocs)
	}
}

// TestTracedLoadSoak races sampled tracing against the full pipelined,
// verified workload: client-stamped TRACE envelopes on a sampling
// interval, server-side spans recorded concurrently with group commit
// and snapshot reads. Zero errors of any class, every stamped request
// yields a span, and the merged report carries the phase breakdown. Run
// under -race for the full claim.
func TestTracedLoadSoak(t *testing.T) {
	dur := 2 * time.Second
	if testing.Short() {
		dur = 400 * time.Millisecond
	}
	m := &Metrics{}
	rec := &captureRecorder{}
	ts := newTracedServer(t, Config{Metrics: m, Spans: rec}, false)

	rep, err := RunLoad(LoadConfig{
		Addr:        ts.addr,
		Workers:     6,
		Duration:    dur,
		Pipeline:    4,
		Verify:      true,
		Domain:      1 << 16,
		BatchEvery:  50,
		BatchSize:   8,
		Seed:        21,
		TraceSample: 0.05,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.Failed() {
		t.Fatalf("traced soak failed: proto=%d consistency=%d transport=%d first=%s",
			rep.ProtoErrors, rep.ConsistencyErrors, rep.TransportErrors, rep.FirstError)
	}
	if rep.TracedOps == 0 {
		t.Fatalf("soak stamped no traces: %+v", rep)
	}
	t.Logf("traced soak: %d ops, %d traced, %d spans recorded", rep.Ops, rep.TracedOps, len(rec.all()))

	// Every client-stamped request must have produced exactly one span.
	spans := rec.all()
	if len(spans) != int(rep.TracedOps) {
		t.Fatalf("spans recorded = %d, traced ops = %d", len(spans), rep.TracedOps)
	}
	for _, r := range spans {
		if r.WallNs <= 0 {
			t.Fatalf("span %s: wall %d", r.TraceID, r.WallNs)
		}
		if r.Status != "ok" {
			t.Fatalf("span %s (%s): status %q", r.TraceID, r.Op, r.Status)
		}
	}
	// The merged client/server view exists and saw the same phases the
	// metrics histograms accumulated.
	if rep.Trace == nil || rep.Trace.ClientP99Ms <= 0 {
		t.Fatalf("merged trace stats missing: %+v", rep.Trace)
	}
	// Every traced op executes, so the execute histogram holds at most one
	// sample per span and at least one; every phase is rendered from boot,
	// so the key alone proves nothing.
	if n := rep.Trace.ServerPhases["execute"].Count; n == 0 || n > uint64(len(spans)) {
		t.Fatalf("merged trace stats: execute phase count %d, spans %d", n, len(spans))
	}
	if n := m.spans.Load(); n != uint64(len(spans)) {
		t.Fatalf("metrics counted %d spans, recorder saw %d", n, len(spans))
	}
}

func preloadPoint(i int) geom.Point {
	return geom.Point{X: int64((i * 37) % 1000), Y: int64((i * 101) % 1000)}
}

// instrumentedReference replays the test workload on a plain local stack
// — the same index on the same TraceStore surface, without the serving
// machinery — and returns the obs.Instrumented I/O records for the
// traced insert and the traced query. This is the span's accounting
// contract: the I/O the operation itself performs at the index↔store
// surface, excluding serving overheads (epoch commits, reader opens)
// that belong to no single request.
func instrumentedReference(t *testing.T, preload int, point geom.Point, rect geom.Rect) (ins, qry obs.OpRecord) {
	t.Helper()
	tracer := eio.NewTraceStore(eio.NewMemStore(4096))
	idx, err := core.NewThreeSided(tracer, epst.Options{})
	if err != nil {
		t.Fatalf("ref NewThreeSided: %v", err)
	}
	for i := 0; i < preload; i++ {
		if err := idx.Insert(preloadPoint(i)); err != nil {
			t.Fatalf("ref preload %d: %v", i, err)
		}
	}

	col := obs.NewCollector()
	in, err := obs.Instrument(idx, tracer, col)
	if err != nil {
		t.Fatalf("ref Instrument: %v", err)
	}
	if err := in.Insert(point); err != nil {
		t.Fatalf("ref insert: %v", err)
	}
	if _, err := in.Query(nil, rect); err != nil {
		t.Fatalf("ref query: %v", err)
	}
	recs := col.Records()
	if len(recs) != 2 {
		t.Fatalf("ref records = %d, want 2", len(recs))
	}
	return recs[0], recs[1]
}

// TestStatsOnWriteOnlyNodeLeavesNoPin is the monitoring-poll regression
// where it bit: a STATS every 100 acknowledged writes into a write-only
// durable stream. STATS reads Len through a snapshot view; if that view
// stayed pinned until the next reader, every later commit would retain a
// pre-image of every page it touched (one poll once took RSS from 17 MiB to
// 1.7 GiB). After every acknowledged write the pins must be back to 0 and
// the versions held bounded by what one batch can write.
func TestStatsOnWriteOnlyNodeLeavesNoPin(t *testing.T) {
	ts := newTracedServer(t, Config{}, true)
	cl := ts.dial(t)
	writes := 1000
	if testing.Short() {
		writes = 300
	}
	// One group commit is one WAL record, so it cannot write more distinct
	// pages than the WAL region has.
	const maxVersions = eio.DefaultWALPages
	for i := 0; i < writes; i++ {
		if dup, err := cl.Insert(geom.Point{X: int64(i * 7 % 1009), Y: int64(i)}); err != nil || dup {
			t.Fatalf("insert %d: dup=%v err=%v", i, dup, err)
		}
		if st := ts.snap.SnapStats(); st.Pins != 0 || st.Versions > maxVersions {
			t.Fatalf("after acked write %d: %d pins, %d versions held (bound %d)", i, st.Pins, st.Versions, maxVersions)
		}
		if i%100 == 99 {
			if _, err := cl.Stats(); err != nil {
				t.Fatalf("stats after write %d: %v", i, err)
			}
		}
	}
}
