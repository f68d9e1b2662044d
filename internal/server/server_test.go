package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"rangesearch/internal/core"
	"rangesearch/internal/eio"
	"rangesearch/internal/epst"
	"rangesearch/internal/geom"
	"rangesearch/internal/trace"
)

// testServer is an in-process rsserve: SnapStore over a MemStore, a
// ThreeSided EPST under core.Concurrent, one Server on a loopback
// listener.
type testServer struct {
	srv  *Server
	addr string
	idx  *core.ThreeSided
	conc *core.Concurrent
	snap *eio.SnapStore
	mem  *eio.MemStore

	served chan error
}

func newTestServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	return newTestServerWith(t, cfg, nil)
}

// newTestServerWith is newTestServer serving wrap(index) in place of the
// index itself; a nil wrap serves the index.
func newTestServerWith(t *testing.T, cfg Config, wrap func(core.Engine) core.Engine) *testServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return newTestServerOn(t, cfg, ln, wrap)
}

// newTestServerOn is newTestServerWith with a caller-supplied listener,
// for tests that restart a server on a fixed address.
func newTestServerOn(t *testing.T, cfg Config, ln net.Listener, wrap func(core.Engine) core.Engine) *testServer {
	t.Helper()
	mem := eio.NewMemStore(4096)
	snap := eio.NewSnapStore(mem, 0)
	idx, err := core.NewThreeSided(snap, epst.Options{})
	if err != nil {
		t.Fatalf("NewThreeSided: %v", err)
	}
	hdr := idx.HeaderID()
	if _, err := snap.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	conc, err := core.NewConcurrent(idx, snap,
		func(s eio.Store) (core.Index, error) { return core.OpenThreeSided(s, hdr) },
		core.ConcurrentOptions{})
	if err != nil {
		t.Fatalf("NewConcurrent: %v", err)
	}
	var eng core.Engine = conc
	if wrap != nil {
		eng = wrap(conc)
	}
	srv := New(eng, cfg)
	ts := &testServer{
		srv: srv, addr: ln.Addr().String(),
		idx: idx, conc: conc, snap: snap, mem: mem,
		served: make(chan error, 1),
	}
	go func() { ts.served <- srv.Serve(ln) }()
	return ts
}

// shutdown drains the server and asserts Serve returned nil.
func (ts *testServer) shutdown(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ts.srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-ts.served:
		if err != nil {
			t.Fatalf("Serve returned %v after Shutdown, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
}

// assertScrubClean verifies the store holds exactly the index's reachable
// pages — the "drain leaves the store scrub-clean" acceptance criterion.
func (ts *testServer) assertScrubClean(t *testing.T) {
	t.Helper()
	ts.conc.Close()
	if _, err := ts.snap.Commit(); err != nil {
		t.Fatalf("final commit: %v", err)
	}
	reachable, err := ts.idx.Tree().AppendAllPages(nil)
	if err != nil {
		t.Fatalf("AppendAllPages: %v", err)
	}
	rep, err := eio.FindLeaks(ts.snap, reachable)
	if err != nil {
		t.Fatalf("FindLeaks: %v", err)
	}
	if len(rep.Leaked) != 0 {
		t.Fatalf("store not scrub-clean after drain: %d leaked pages %v", len(rep.Leaked), rep.Leaked)
	}
}

func (ts *testServer) dial(t *testing.T) *Client {
	t.Helper()
	cl, err := Dial(ts.addr, ClientOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestServerBasicRPCs(t *testing.T) {
	m := &Metrics{}
	ts := newTestServer(t, Config{Metrics: m})
	cl := ts.dial(t)

	if err := cl.Ping([]byte("hello")); err != nil {
		t.Fatalf("Ping: %v", err)
	}

	pts := []geom.Point{{X: 1, Y: 10}, {X: 2, Y: 20}, {X: 3, Y: 30}, {X: 4, Y: 5}}
	for _, p := range pts {
		dup, err := cl.Insert(p)
		if err != nil || dup {
			t.Fatalf("Insert %v: dup=%v err=%v", p, dup, err)
		}
	}
	if dup, err := cl.Insert(pts[0]); err != nil || !dup {
		t.Fatalf("re-Insert: dup=%v err=%v, want dup=true", dup, err)
	}

	got, err := cl.Query3(1, 3, 15)
	if err != nil {
		t.Fatalf("Query3: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("Query3: %v, want {2,20} {3,30}", got)
	}
	got, err = cl.Query4(geom.Rect{XLo: 1, XHi: 4, YLo: 0, YHi: 12})
	if err != nil {
		t.Fatalf("Query4: %v", err)
	}
	if len(got) != 2 { // (1,10) and (4,5)
		t.Fatalf("Query4: %v, want 2 points", got)
	}

	if found, err := cl.Delete(pts[3]); err != nil || !found {
		t.Fatalf("Delete: found=%v err=%v", found, err)
	}
	if found, err := cl.Delete(pts[3]); err != nil || found {
		t.Fatalf("re-Delete: found=%v err=%v, want found=false", found, err)
	}

	codes, err := cl.Batch([]BatchEntry{
		{Kind: BatchInsert, P: geom.Point{X: 100, Y: 100}},
		{Kind: BatchInsert, P: geom.Point{X: 1, Y: 10}}, // duplicate
		{Kind: BatchDelete, P: geom.Point{X: 100, Y: 100}},
		{Kind: BatchDelete, P: geom.Point{X: 999, Y: 999}}, // absent
	})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	want := []byte{BatchOK, BatchDup, BatchOK, BatchNotFound}
	for i := range want {
		if codes[i] != want[i] {
			t.Fatalf("Batch codes %v, want %v", codes, want)
		}
	}

	raw, err := cl.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	var st StatsSnapshot
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("Stats JSON: %v\n%s", err, raw)
	}
	if st.Len != 3 { // pts[0..2] live: pts[3] and (100,100) deleted
		t.Fatalf("Stats.Len = %d, want 3", st.Len)
	}
	if st.Metrics == nil || st.Metrics.Ops["insert"].Count == 0 {
		t.Fatalf("Stats.Metrics missing insert counts: %+v", st.Metrics)
	}

	ts.shutdown(t)
	ts.assertScrubClean(t)
}

func TestServerPipelining(t *testing.T) {
	ts := newTestServer(t, Config{})
	cl := ts.dial(t)

	const n = 200
	for i := 0; i < n; i++ {
		if err := cl.Send(Request{Op: OpInsert, P: geom.Point{X: int64(i), Y: int64(i)}}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	// One query pipelined behind the inserts must observe all of them:
	// responses are processed in order, so the query runs after every
	// insert committed (read-your-writes on one connection).
	if err := cl.Send(Request{Op: OpQuery3, Rect: geom.Rect{XLo: 0, XHi: n, YLo: 0, YHi: geom.MaxCoord}}); err != nil {
		t.Fatalf("Send query: %v", err)
	}
	for i := 0; i < n; i++ {
		resp, err := cl.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if resp.Status != StatusOK || resp.Duplicate {
			t.Fatalf("insert %d: %+v", i, resp)
		}
	}
	resp, err := cl.Recv()
	if err != nil {
		t.Fatalf("Recv query: %v", err)
	}
	if len(resp.Points) != n {
		t.Fatalf("pipelined query saw %d points, want %d", len(resp.Points), n)
	}
	ts.shutdown(t)
	ts.assertScrubClean(t)
}

func TestServerBusy(t *testing.T) {
	m := &Metrics{}
	ts := newTestServer(t, Config{MaxInFlight: 1, Metrics: m})
	cl := ts.dial(t)

	// Fill the gate from the test so the next data RPC is shed.
	ts.srv.gate <- struct{}{}

	resp, err := cl.Do(Request{Op: OpInsert, P: geom.Point{X: 1, Y: 1}})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if resp.Status != StatusBusy {
		t.Fatalf("status %d, want BUSY", resp.Status)
	}
	if _, err := cl.Insert(geom.Point{X: 1, Y: 1}); err != ErrBusy {
		t.Fatalf("Insert err = %v, want ErrBusy", err)
	}
	// PING and STATS bypass the gate: a saturated server stays observable.
	if err := cl.Ping([]byte("still here")); err != nil {
		t.Fatalf("Ping under saturation: %v", err)
	}
	if _, err := cl.Stats(); err != nil {
		t.Fatalf("Stats under saturation: %v", err)
	}
	<-ts.srv.gate

	if dup, err := cl.Insert(geom.Point{X: 1, Y: 1}); err != nil || dup {
		t.Fatalf("Insert after release: dup=%v err=%v", dup, err)
	}
	if busy := m.Snapshot().Busy; busy != 2 {
		t.Fatalf("Busy = %d, want 2", busy)
	}
	ts.shutdown(t)
}

func TestServerProtocolErrors(t *testing.T) {
	m := &Metrics{}
	ts := newTestServer(t, Config{Metrics: m})

	// Malformed payload in a well-formed frame: per-request error, the
	// connection survives.
	cl := ts.dial(t)
	if err := cl.Send(Request{Op: OpPing, Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	// Hand-craft a bad INSERT (3-byte payload) behind the ping.
	if err := WriteFrame(cl.bw, []byte{OpInsert, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	cl.pending = append(cl.pending, OpInsert)
	if resp, err := cl.Recv(); err != nil || resp.Status != StatusOK {
		t.Fatalf("ping: %+v, %v", resp, err)
	}
	resp, err := cl.Recv()
	if err != nil {
		t.Fatalf("bad insert Recv: %v", err)
	}
	if resp.Status != StatusErr {
		t.Fatalf("bad insert: status %d, want ERR", resp.Status)
	}
	if err := cl.Ping([]byte("alive")); err != nil {
		t.Fatalf("connection should survive a payload error: %v", err)
	}

	// A hostile length prefix poisons the connection: one ERR response,
	// then close.
	raw, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	body, err := ReadFrame(raw, DefaultMaxFrame)
	if err != nil {
		t.Fatalf("expected an ERR frame before close: %v", err)
	}
	if body[0] != StatusErr || !strings.Contains(string(body[1:]), "size limit") {
		t.Fatalf("poison response: %q", body)
	}
	if _, err := raw.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection should be closed after a framing violation")
	}

	if pe := m.Snapshot().ProtoErrors; pe < 2 {
		t.Fatalf("ProtoErrors = %d, want >= 2", pe)
	}
	ts.shutdown(t)
}

func TestServerExpvarMetrics(t *testing.T) {
	m := &Metrics{}
	ts := newTestServer(t, Config{Metrics: m})
	cl := ts.dial(t)
	for i := 0; i < 32; i++ {
		if _, err := cl.Insert(geom.Point{X: int64(i), Y: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Query3(0, 31, 0); err != nil {
		t.Fatal(err)
	}

	PublishMetrics("test", m)
	v := expvar.Get("rangesearch.server.test")
	if v == nil {
		t.Fatal("expvar rangesearch.server.test not published")
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatalf("expvar JSON: %v", err)
	}
	ins, ok := snap.Ops["insert"]
	if !ok || ins.Count != 32 {
		t.Fatalf("expvar insert count: %+v", snap.Ops)
	}
	if ins.LatNs.Count != 32 || ins.LatNs.Max == 0 {
		t.Fatalf("latency histogram not populated: %+v", ins.LatNs)
	}
	// The published histogram carries the buckets a p99 is read from.
	if len(ins.LatNs.Buckets) == 0 {
		t.Fatal("latency histogram published without buckets")
	}
	ts.shutdown(t)
}

func TestServerShutdownInterruptsIdleConns(t *testing.T) {
	ts := newTestServer(t, Config{IdleTimeout: -1})
	cl := ts.dial(t)
	if err := cl.Ping(nil); err != nil {
		t.Fatal(err)
	}
	// The connection now sits idle in ReadFrame; Shutdown must not hang.
	done := make(chan struct{})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := ts.srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung on an idle connection")
	}
	ts.assertScrubClean(t)
}

// rangeBackend answers a query [0, XHi] with XHi+1 points appended to dst;
// every other Engine method is absent (nil embedded interface).
type rangeBackend struct{ core.Engine }

func (rangeBackend) Report(dst []geom.Point, q geom.Rect, _ *trace.Span) ([]geom.Point, error) {
	for x := int64(0); x <= q.XHi; x++ {
		dst = append(dst, geom.Point{X: x})
	}
	return dst, nil
}

// TestResultBufferRetentionIsBounded: the per-connection result buffer is
// reused between queries, but a result beyond maxKeptResult points is not
// kept — one huge query must not pin its memory on the connection.
func TestResultBufferRetentionIsBounded(t *testing.T) {
	srv := New(rangeBackend{}, Config{})
	var pts []geom.Point
	query := func(n int) {
		t.Helper()
		resp := srv.handle(Request{Op: OpQuery3, Rect: geom.Rect{XHi: int64(n - 1)}}, nil, &pts)
		if resp.Status != StatusOK || len(resp.Points) != n {
			t.Fatalf("query for %d points: status %d, %d points", n, resp.Status, len(resp.Points))
		}
	}
	query(100)
	if cap(pts) < 100 {
		t.Fatalf("a small result was not kept for reuse (cap %d)", cap(pts))
	}
	query(maxKeptResult + 1000)
	if cap(pts) > maxKeptResult {
		t.Errorf("a %d-point result left a %d-point buffer behind (bound %d)", maxKeptResult+1000, cap(pts), maxKeptResult)
	}
	query(100)
}

// fullDiskEngine fails every write the way a durable stack on a full disk
// does: the store error wraps eio.ErrNoSpace.
type fullDiskEngine struct{ core.Engine }

func (e fullDiskEngine) Apply(ops []core.BatchOp, _ *trace.Span) []core.BatchResult {
	res := make([]core.BatchResult, len(ops))
	for i := range res {
		res[i].Err = fmt.Errorf("core: durable batch: eio: tx: WAL append: eio: write page 7: %w", eio.ErrNoSpace)
	}
	return res
}

// TestDiskFullAnswersRetryHint: a write whose store error wraps
// eio.ErrNoSpace is answered DISKFULL with the retry-after hint and counted,
// not reported as a server error, and reads keep working.
func TestDiskFullAnswersRetryHint(t *testing.T) {
	m := &Metrics{}
	ts := newTestServerWith(t, Config{RetryAfterHint: 7 * time.Millisecond, Metrics: m}, func(e core.Engine) core.Engine {
		return fullDiskEngine{e}
	})
	defer ts.shutdown(t)
	cl := ts.dial(t)
	resp, err := cl.Do(Request{Op: OpInsert, P: geom.Point{X: 1, Y: 2}})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if resp.Status != StatusDiskFull || resp.RetryAfterMs != 7 {
		t.Fatalf("insert on a full disk answered %s with retry hint %d ms, want DISKFULL with 7 ms", statusName(resp.Status), resp.RetryAfterMs)
	}
	if _, err := cl.Insert(geom.Point{X: 3, Y: 4}); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("client Insert: want ErrDiskFull, got %v", err)
	}
	if n := m.diskFull.Load(); n != 2 {
		t.Fatalf("diskFull counter = %d, want 2", n)
	}
	if _, err := cl.Query3(0, 10, 0); err != nil {
		t.Fatalf("query on a full disk: %v", err)
	}
}
