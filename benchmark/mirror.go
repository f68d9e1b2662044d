//go:build linux

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"rangesearch/internal/core"
	"rangesearch/internal/eio"
	"rangesearch/internal/epst"
	"rangesearch/internal/geom"
	"rangesearch/internal/server"
	"rangesearch/internal/wbuf"
)

// The traced mirror: the stack cmd/rsserve assembles for a workload, built
// again in this process from public constructors with taps at the layer
// seams, driven by ONE connection so every count repeats exactly. This is
// the only file that touches the program's packages. It uses core.Index,
// eio.Store, the constructors and the server codec — never the *Traced
// twins, server.Backend by name, or any decorator's internals — so the
// program can be simplified without editing the benchmark.
//
// Taps never sit where the program type-switches: NewConcurrent asserts
// *core.Durable and wbuf.Buffered switches on *core.Concurrent, so the
// index timer goes UNDER Durable and the store taps go between stores.

// taps is the shared state of every tap in one mirror.
type taps struct {
	on      atomic.Bool // false: every tap is one atomic load and a tail call
	inIndex atomic.Bool // an index span is open (single connection, so exact)

	indexNs atomic.Int64 // time inside the index (epst) below Durable / per view
	top     seam         // index ↔ SnapStore (writer and every reader view)
	bottom  seam         // TxStore / pool ↔ FileStore or MemStore

	// The commit span: from the end of the last index span to the end of
	// the last bottom-seam call made outside any index span. It covers
	// what TxStore and SnapStore do after the index returns (WAL append,
	// syncs, in-place apply, anchor, deferred frees).
	lastIndexEnd  atomic.Int64 // unix ns
	lastOutsideAt atomic.Int64 // unix ns, 0 = none since lastIndexEnd
	commitNs      atomic.Int64
}

// seam sums the calls crossing one layer boundary.
type seam struct {
	ns, outsideNs                atomic.Int64 // all calls; the share made outside index spans
	reads, writes, allocs, frees atomic.Int64
	syncs, syncNs                atomic.Int64
}

func (t *taps) note(s *seam, start time.Time, n *atomic.Int64) {
	end := time.Now()
	d := int64(end.Sub(start))
	s.ns.Add(d)
	n.Add(1)
	if s == &t.bottom && !t.inIndex.Load() {
		s.outsideNs.Add(d)
		t.lastOutsideAt.Store(end.UnixNano())
	}
}

// closeCommit folds a finished commit span into commitNs.
func (t *taps) closeCommit() {
	if at := t.lastOutsideAt.Swap(0); at != 0 {
		if from := t.lastIndexEnd.Load(); from != 0 && at > from {
			t.commitNs.Add(at - from)
		}
	}
}

// tapStore is a pass-through eio.Store that times its calls into a seam.
type tapStore struct {
	eio.Store
	t *taps
	s *seam
}

func (ts *tapStore) Read(id eio.PageID, buf []byte) error {
	if !ts.t.on.Load() {
		return ts.Store.Read(id, buf)
	}
	start := time.Now()
	err := ts.Store.Read(id, buf)
	ts.t.note(ts.s, start, &ts.s.reads)
	return err
}

func (ts *tapStore) Write(id eio.PageID, buf []byte) error {
	if !ts.t.on.Load() {
		return ts.Store.Write(id, buf)
	}
	start := time.Now()
	err := ts.Store.Write(id, buf)
	ts.t.note(ts.s, start, &ts.s.writes)
	return err
}

func (ts *tapStore) Alloc() (eio.PageID, error) {
	if !ts.t.on.Load() {
		return ts.Store.Alloc()
	}
	start := time.Now()
	id, err := ts.Store.Alloc()
	ts.t.note(ts.s, start, &ts.s.allocs)
	return id, err
}

func (ts *tapStore) Free(id eio.PageID) error {
	if !ts.t.on.Load() {
		return ts.Store.Free(id)
	}
	start := time.Now()
	err := ts.Store.Free(id)
	ts.t.note(ts.s, start, &ts.s.frees)
	return err
}

// Sync forwards the durability barrier the way eio's own wrappers do
// (TxStore finds it by this method), timing it apart from page traffic.
func (ts *tapStore) Sync() error {
	sy, ok := ts.Store.(interface{ Sync() error })
	if !ok {
		return nil
	}
	if !ts.t.on.Load() {
		return sy.Sync()
	}
	start := time.Now()
	err := sy.Sync()
	end := time.Now()
	ts.s.syncNs.Add(int64(end.Sub(start)))
	ts.s.syncs.Add(1)
	if !ts.t.inIndex.Load() {
		ts.t.lastOutsideAt.Store(end.UnixNano())
	}
	return err
}

// timedIndex times the calls into the index proper.
type timedIndex struct {
	core.Index
	t *taps
}

func (ti timedIndex) enter() time.Time {
	ti.t.closeCommit()
	ti.t.inIndex.Store(true)
	return time.Now()
}

func (ti timedIndex) leave(start time.Time) {
	end := time.Now()
	ti.t.indexNs.Add(int64(end.Sub(start)))
	ti.t.inIndex.Store(false)
	ti.t.lastIndexEnd.Store(end.UnixNano())
}

func (ti timedIndex) Insert(p geom.Point) error {
	if !ti.t.on.Load() {
		return ti.Index.Insert(p)
	}
	defer ti.leave(ti.enter())
	return ti.Index.Insert(p)
}

func (ti timedIndex) Delete(p geom.Point) (bool, error) {
	if !ti.t.on.Load() {
		return ti.Index.Delete(p)
	}
	defer ti.leave(ti.enter())
	return ti.Index.Delete(p)
}

func (ti timedIndex) Query(dst []geom.Point, q geom.Rect) ([]geom.Point, error) {
	if !ti.t.on.Load() {
		return ti.Index.Query(dst, q)
	}
	defer ti.leave(ti.enter())
	return ti.Index.Query(dst, q)
}

// reading is one snapshot of every tap counter; spans are differences.
type reading struct {
	index, top, bottom, bottomOut, sync, commit int64
	topIO, physR, physW, syncs                  int64
}

func (t *taps) read() reading {
	t.closeCommit()
	return reading{
		index:     t.indexNs.Load(),
		top:       t.top.ns.Load(),
		bottom:    t.bottom.ns.Load(),
		bottomOut: t.bottom.outsideNs.Load(),
		sync:      t.bottom.syncNs.Load(),
		commit:    t.commitNs.Load(),
		topIO:     t.top.reads.Load() + t.top.writes.Load(),
		physR:     t.bottom.reads.Load(),
		physW:     t.bottom.writes.Load(),
		syncs:     t.bottom.syncs.Load(),
	}
}

func (a reading) sub(b reading) reading {
	return reading{
		index: a.index - b.index, top: a.top - b.top, bottom: a.bottom - b.bottom,
		bottomOut: a.bottomOut - b.bottomOut, sync: a.sync - b.sync, commit: a.commit - b.commit,
		topIO: a.topIO - b.topIO, physR: a.physR - b.physR, physW: a.physW - b.physW, syncs: a.syncs - b.syncs,
	}
}

func (a *reading) add(b reading) {
	a.index += b.index
	a.top += b.top
	a.bottom += b.bottom
	a.bottomOut += b.bottomOut
	a.sync += b.sync
	a.commit += b.commit
	a.topIO += b.topIO
	a.physR += b.physR
	a.physW += b.physW
	a.syncs += b.syncs
}

// mirror is one assembled, tapped stack with an in-process server on it.
type mirror struct {
	t      taps
	direct core.Index // what the server serves, called without the wire
	pool   *eio.ShardedPool
	srv    *server.Server
	ln     net.Listener
	done   chan error
	closer func()
}

// buildMirror follows cmd/rsserve's buildMem/buildFile/finish for a fresh
// store, with the taps inserted.
func buildMirror(s spec, dir string) (*mirror, error) {
	const pageSize = 4096
	m := &mirror{}
	var (
		base eio.Store
		tx   *eio.TxStore
		err  error
	)
	store := filepath.Join(dir, "mirror.db")
	if s.stack == stackMem {
		base = &tapStore{Store: eio.NewMemStore(pageSize), t: &m.t, s: &m.t.bottom}
	} else {
		fs, err := eio.CreateFileStore(store, pageSize)
		if err != nil {
			return nil, err
		}
		base = &tapStore{Store: fs, t: &m.t, s: &m.t.bottom}
	}
	switch s.stack {
	case stackPool:
		m.pool = eio.NewShardedPool(base, 32, eio.DefaultPoolShards)
		base = m.pool
	case stackDurable, stackBuffered:
		if tx, err = eio.NewTxStore(base, eio.TxOptions{WALPages: 1024}); err != nil {
			base.Close()
			return nil, err
		}
		base = tx
	}
	snap := eio.NewSnapStore(base, 0)
	tracer := eio.NewTraceStore(&tapStore{Store: snap, t: &m.t, s: &m.t.top})
	idx, err := core.NewThreeSided(tracer, epst.Options{})
	if err != nil {
		snap.Close()
		return nil, err
	}
	hdr := idx.HeaderID()
	if _, err := snap.Commit(); err != nil {
		snap.Close()
		return nil, err
	}
	var writer core.Index = timedIndex{idx, &m.t}
	if tx != nil {
		writer = core.NewDurable(writer, tx)
	}
	conc, err := core.NewConcurrent(writer, snap,
		func(view eio.Store) (core.Index, error) {
			// Opening a view reads the header through the tap inside an
			// index span, so top-seam time is always covered by index time.
			ti := timedIndex{t: &m.t}
			if m.t.on.Load() {
				defer ti.leave(ti.enter())
			}
			v, err := core.OpenThreeSided(&tapStore{Store: view, t: &m.t, s: &m.t.top}, hdr)
			ti.Index = v
			return ti, err
		},
		core.ConcurrentOptions{Tracer: tracer})
	if err != nil {
		snap.Close()
		return nil, err
	}
	// The values cmd/rsserve's flags default to.
	cfg := server.Config{
		MaxInFlight:    64,
		RequestTimeout: 10 * time.Second,
		Idem:           server.IdemConfig{MaxClients: 256, Window: 512},
		Metrics:        &server.Metrics{},
	}
	m.closer = func() { conc.Close(); snap.Close() }
	if s.stack == stackBuffered {
		if err := tx.Sync(); err != nil {
			m.closer()
			return nil, err
		}
		buf, err := wbuf.NewBuffered(conc, wbuf.Options{Journal: store + ".wbuf"})
		if err != nil {
			m.closer()
			return nil, err
		}
		m.direct, m.srv = buf, server.New(buf, cfg)
		m.closer = func() { buf.Close(); conc.Close(); snap.Close() }
	} else {
		m.direct, m.srv = conc, server.New(conc, cfg)
	}
	if m.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		m.closer()
		return nil, err
	}
	m.done = make(chan error, 1)
	go func() { m.done <- m.srv.Serve(m.ln) }()
	return m, nil
}

func (m *mirror) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = m.srv.Shutdown(ctx)
	<-m.done
	m.closer()
}

// spanRec is one line of the JSONL trace. Store seams are aggregated per
// request (calls = page operations, dur = their sum).
type spanRec struct {
	Workload string  `json:"workload"`
	Pass     string  `json:"pass"`
	Req      int     `json:"req"`
	Kind     string  `json:"kind"`
	Span     string  `json:"span"`
	Parent   string  `json:"parent,omitempty"`
	StartUs  float64 `json:"start_us,omitempty"`
	DurUs    float64 `json:"dur_us"`
	Calls    int64   `json:"calls,omitempty"`
}

var kindNames = [...]string{kQuery3: "query3", kQuery4: "query4", kInsert: "insert", kDelete: "delete"}

// passTotals sums one tapped pass.
type passTotals struct {
	ops, queries, writes int
	spanNs               int64 // rpc or backend spans
	r                    reading
	qIO, wIO             int64 // top-seam I/Os by op kind
}

// directOp calls the backend the way the server's handler would, without
// the wire, and checks the outcome like the wire path does.
func directOp(idx core.Index, o op) (server.Response, error) {
	switch o.kind {
	case kInsert:
		err := idx.Insert(o.p)
		if errors.Is(err, core.ErrDuplicate) {
			return server.Response{Duplicate: true}, nil
		}
		return server.Response{}, err
	case kDelete:
		found, err := idx.Delete(o.p)
		return server.Response{Found: found}, err
	default:
		pts, err := idx.Query(nil, o.r)
		return server.Response{Points: pts}, err
	}
}

// runMirror builds, preloads and drives the tapped stack and returns the
// per-layer metrics only it can see. e2eP50 is the end-to-end p50_us the
// untapped in-process RPC is compared with.
func runMirror(env runEnv, s spec, seed uint64, e2eP50 float64) (l map[string]float64, spans []spanRec, failed int, failure string, err error) {
	// The mirror replays connection 0 of the same seed's workload, as long
	// as its warm-up and three passes need (a longer stream of one seed
	// starts with the shorter one).
	n := max(s.mirrorOps/env.divisor, 50)
	warm := n / 10
	w := generate(s, seed, 3*n, warm)
	m, err := buildMirror(w.spec, env.dir)
	if err != nil {
		return nil, nil, 0, "", err
	}
	defer m.close()
	cl, err := server.Dial(m.ln.Addr().String(), server.ClientOptions{})
	if err != nil {
		return nil, nil, 0, "", err
	}
	defer cl.Close()
	if err := preload(cl, w); err != nil {
		return nil, nil, 0, "", err
	}

	st := w.streams[0]
	check := func(o op, resp server.Response, err error) {
		msg := ""
		switch {
		case err != nil:
			msg = err.Error()
		default:
			if msg = opFailure(o, resp); msg == "" && o.verify >= 0 {
				msg = w.checkAnswer(st, o, resp.Points)
			}
		}
		if msg != "" {
			failed++
			if failure == "" {
				failure = "mirror: " + msg
			}
		}
	}
	rpc := func(o op) (server.Response, time.Time, time.Duration, error) {
		start := time.Now()
		err := cl.Send(toRequest(o))
		if err == nil {
			err = cl.Flush()
		}
		var resp server.Response
		if err == nil {
			resp, err = cl.Recv()
		}
		return resp, start, time.Since(start), err
	}
	for _, o := range st.ops[:warm] {
		resp, _, _, err := rpc(o)
		check(o, resp, err)
	}

	// Three consecutive passes: A over the wire with taps off, B over the
	// wire with taps on, C direct calls on the backend with taps on.
	type exchange struct {
		o    op
		resp server.Response
	}
	var (
		offUs, onUs []float64
		exchanges   []exchange
		b, c        passTotals
	)
	epoch := time.Now()
	tapped := func(tot *passTotals, pass, top string, i int, o op, call func(op) (server.Response, time.Time, time.Duration, error)) time.Duration {
		before := m.t.read()
		resp, start, d, err := call(o)
		r := m.t.read().sub(before)
		check(o, resp, err)
		tot.ops++
		tot.spanNs += int64(d)
		tot.r.add(r)
		if o.kind.isQuery() {
			tot.queries++
			tot.qIO += r.topIO
		} else {
			tot.writes++
			tot.wIO += r.topIO
		}
		rec := func(span, parent string, ns, calls int64) {
			if ns == 0 && calls == 0 {
				return
			}
			sr := spanRec{Workload: w.spec.name, Pass: pass, Req: i, Kind: kindNames[o.kind], Span: span, Parent: parent, DurUs: float64(ns) / 1e3, Calls: calls}
			if parent == "" {
				sr.StartUs = float64(start.Sub(epoch)) / 1e3
			}
			spans = append(spans, sr)
		}
		rec(top, "", int64(d), 1)
		rec("index", top, r.index, 0)
		rec("store.top", "index", r.top, r.topIO)
		rec("store.bottom", "store.top", r.bottom-r.bottomOut, 0)
		rec("commit", top, r.commit, 0)
		rec("store.bottom.commit", "commit", r.bottomOut, 0)
		rec("sync", "commit", r.sync, r.syncs)
		return d
	}
	var poolBefore eio.PoolStats
	if m.pool != nil {
		poolBefore = m.pool.PoolStats()
	}
	for _, o := range st.ops[warm : warm+n] {
		resp, _, d, err := rpc(o)
		check(o, resp, err)
		offUs = append(offUs, float64(d)/1e3)
		exchanges = append(exchanges, exchange{o, resp})
	}
	m.t.on.Store(true)
	for i, o := range st.ops[warm+n : warm+2*n] {
		onUs = append(onUs, float64(tapped(&b, "rpc", "rpc", i, o, rpc))/1e3)
	}
	for i, o := range st.ops[warm+2*n : warm+3*n] {
		tapped(&c, "direct", "backend", i, o, func(o op) (server.Response, time.Time, time.Duration, error) {
			start := time.Now()
			resp, err := directOp(m.direct, o)
			return resp, start, time.Since(start), err
		})
	}
	m.t.on.Store(false)

	l = map[string]float64{}
	perOp := func(ns int64, ops int) float64 { return float64(ns) / 1e3 / float64(ops) }
	// The ladder, from pass B. Its rungs sum to the RPC span by
	// construction; pass C only splits the top rung into server and core.
	serverCore := perOp(b.spanNs-b.r.index-b.r.commit, b.ops)
	coreSelf := perOp(c.spanNs-c.r.index-c.r.commit, c.ops)
	l["trace.rpc_us_per_op"] = perOp(b.spanNs, b.ops)
	l["server.self_us_per_op"] = serverCore - coreSelf
	l["core.self_us_per_op"] = coreSelf
	l["epst.self_us_per_op"] = perOp(b.r.index-b.r.top, b.ops)
	l["eio.wrap_us_per_op"] = perOp((b.r.top-(b.r.bottom-b.r.bottomOut))+(b.r.commit-b.r.bottomOut-b.r.sync), b.ops)
	l["eio.file_us_per_op"] = perOp(b.r.bottom, b.ops)
	l["eio.sync_us_per_op"] = perOp(b.r.sync, b.ops)

	ops, queries, writes := b.ops+c.ops, b.queries+c.queries, b.writes+c.writes
	if queries > 0 {
		l["epst.ios_per_query"] = float64(b.qIO+c.qIO) / float64(queries)
	}
	if writes > 0 {
		l["epst.ios_per_write"] = float64(b.wIO+c.wIO) / float64(writes)
		l["eio.commit_us_per_write"] = perOp(b.r.commit+c.r.commit, writes)
		l["eio.sync_us_per_write"] = perOp(b.r.sync+c.r.sync, writes)
		l["eio.fsyncs_per_write"] = float64(b.r.syncs+c.r.syncs) / float64(writes)
	}
	l["eio.phys_reads_per_op"] = float64(b.r.physR+c.r.physR) / float64(ops)
	l["eio.phys_writes_per_op"] = float64(b.r.physW+c.r.physW) / float64(ops)
	if m.pool != nil {
		ps := m.pool.PoolStats()
		hits, misses := ps.Hits-poolBefore.Hits, ps.Misses-poolBefore.Misses
		if hits+misses > 0 {
			l["eio.pool_hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		l["eio.pool_evictions_per_op"] = float64(ps.Evictions-poolBefore.Evictions) / float64(3*n)
	}

	// Codec cost and frame sizes, on this workload's own frames.
	var reqBytes, respBytes int
	var reqBuf, respBuf []byte
	const codecRounds = 3
	codecStart := time.Now()
	for round := 0; round < codecRounds; round++ {
		reqBytes, respBytes = 0, 0
		for _, ex := range exchanges {
			req := toRequest(ex.o)
			reqBuf, _ = server.EncodeRequest(reqBuf[:0], req)
			_, _ = server.DecodeRequest(reqBuf, 0)
			respBuf = server.EncodeResponse(respBuf[:0], req.Op, ex.resp)
			_, _ = server.DecodeResponse(respBuf, req.Op)
			reqBytes += 4 + len(reqBuf)
			respBytes += 4 + len(respBuf)
		}
	}
	l["server.codec_ns_per_op"] = float64(time.Since(codecStart)) / float64(codecRounds*len(exchanges))
	l["server.req_bytes_per_op"] = float64(reqBytes) / float64(len(exchanges))
	l["server.resp_bytes_per_op"] = float64(respBytes) / float64(len(exchanges))

	off50 := percentile(sortedCopy(offUs), 0.50)
	l["trace.overhead_pct"] = (percentile(sortedCopy(onUs), 0.50) - off50) / off50 * 100
	if e2eP50 > 0 {
		l["trace.mirror_ratio"] = off50 / e2eP50
	}

	return l, spans, failed, failure, nil
}

func writeSpans(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
