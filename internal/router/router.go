package router

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"rangesearch/internal/geom"
	"rangesearch/internal/obs"
	"rangesearch/internal/server"
)

// Options tunes a Router. The zero value serves with the documented
// defaults.
type Options struct {
	// Client is passed to every shard connection dial.
	Client server.ClientOptions
	// Retry bounds each shard client's reconnects and retries (dead or
	// failing shards are retried with bounded exponential backoff before
	// a failure surfaces to the inbound client).
	Retry server.RetryPolicy
	// MaxFrame is the inbound frame-size ceiling (default
	// server.DefaultMaxFrame).
	MaxFrame int
	// MaxBatchOps bounds the entries of one inbound BATCH frame (default
	// server.DefaultMaxBatchOps).
	MaxBatchOps int
	// IdleTimeout closes an inbound connection with no complete request
	// for this long (default 5m; <0 disables).
	IdleTimeout time.Duration
	// WriteTimeout bounds one inbound response write (default 30s).
	WriteTimeout time.Duration
	// Seed seeds the shard clients' backoff-jitter RNGs (0 = random).
	Seed int64
	// Metrics, when non-nil, receives routing counters and per-shard
	// histograms. Must be built with NewMetrics(len(map.Shards)).
	Metrics *Metrics
	// Logf, when non-nil, receives router lifecycle and error lines.
	Logf func(format string, args ...interface{})
}

func (o Options) withDefaults() Options {
	if o.MaxFrame <= 0 {
		o.MaxFrame = server.DefaultMaxFrame
	}
	if o.MaxBatchOps <= 0 {
		o.MaxBatchOps = server.DefaultMaxBatchOps
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 5 * time.Minute
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 30 * time.Second
	}
	return o
}

// pos is one shard's replication position.
type pos struct{ term, lsn uint64 }

// Router fronts an x-range-partitioned rsserve fleet with the same wire
// protocol the shards speak: INSERT/DELETE route point-wise by x, BATCH
// splits into per-shard sub-batches, QUERY3/QUERY4 scatter-gather across
// the shards their x-interval overlaps, and TOPOLOGY serves the shard
// map. IDEM envelopes forward unchanged, so a client retry re-routes
// deterministically and deduplicates per shard — exactly-once survives
// the extra hop.
//
// Consistency across the hop reuses PR 8's (term, LSN) barrier, with the
// router translating between two coordinate systems. Inbound write acks
// carry a VIRTUAL position (term 0, a router-global counter), because no
// single shard position orders cross-shard writes. Internally the router
// maintains, for each shard, the lexicographic max REAL (term, LSN) any
// forwarded write ack carried — folded in before the inbound ack goes
// out. A later inbound read stamped with a virtual barrier therefore
// finds every write it could have seen acked already reflected in the
// per-shard vector, and the router stamps each scattered sub-read with
// its shard's vector entry: each shard proves it has applied that
// session's acked writes (or answers STALE and the shard client retries
// on the primary). The vector is router-global, so the guarantee holds
// across inbound reconnects — any client whose barrier came from an ack
// of THIS router process is covered; barriers from foreign timelines
// (a client that talked to a shard directly) are not translatable and
// are served at the vector position instead.
type Router struct {
	shardMap *Map
	opts     Options
	topo     []byte // pre-encoded TOPOLOGY payload
	start    time.Time

	// posMu guards the barrier state: vpos is the virtual ack counter,
	// vec the per-shard max real position seen in write acks.
	posMu sync.Mutex
	vpos  uint64
	vec   []pos

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool

	wg sync.WaitGroup
}

// New builds a Router over m (which must carry addresses).
func New(m *Map, opts Options) (*Router, error) {
	if err := m.validate(true); err != nil {
		return nil, fmt.Errorf("router: %v", err)
	}
	opts = opts.withDefaults()
	if opts.Metrics != nil && len(opts.Metrics.shards) != len(m.Shards) {
		return nil, fmt.Errorf("router: metrics sized for %d shards, map has %d", len(opts.Metrics.shards), len(m.Shards))
	}
	return &Router{
		shardMap: m,
		opts:     opts,
		topo:     EncodeTopology(nil, m),
		start:    time.Now(),
		vec:      make([]pos, len(m.Shards)),
		conns:    map[net.Conn]struct{}{},
	}, nil
}

// Map returns the router's shard map.
func (rt *Router) Map() *Map { return rt.shardMap }

// noteAck folds a forwarded write ack's real shard position into the
// vector and issues the next virtual position, all before the inbound
// ack leaves — the ordering the barrier translation depends on.
func (rt *Router) noteAck(shard int, p pos) uint64 {
	rt.posMu.Lock()
	defer rt.posMu.Unlock()
	if v := rt.vec[shard]; !server.Covers(v.term, v.lsn, p.term, p.lsn) {
		rt.vec[shard] = p
	}
	rt.vpos++
	return rt.vpos
}

// barrierFor returns the sub-read barrier for one shard: the shard's
// current vector entry, which covers every write this router ever acked
// there. Zero means the shard has never acked a position (e.g. a
// memory-backed shard) and the sub-read goes out unstamped — the
// canonical encoding forbids a zero BARRIER envelope, and there is
// nothing to wait for anyway.
func (rt *Router) barrierFor(shard int) pos {
	rt.posMu.Lock()
	defer rt.posMu.Unlock()
	return rt.vec[shard]
}

func (rt *Router) logf(format string, args ...interface{}) {
	if rt.opts.Logf != nil {
		rt.opts.Logf(format, args...)
	}
}

// Serve accepts connections on ln until Shutdown (or a permanent accept
// error) and blocks until every connection handler has exited.
func (rt *Router) Serve(ln net.Listener) error {
	rt.mu.Lock()
	if rt.draining {
		rt.mu.Unlock()
		ln.Close()
		return errors.New("router: already shut down")
	}
	rt.ln = ln
	rt.mu.Unlock()

	var err error
	for {
		conn, aerr := ln.Accept()
		if aerr != nil {
			rt.mu.Lock()
			draining := rt.draining
			rt.mu.Unlock()
			if !draining {
				err = aerr
			}
			break
		}
		rt.mu.Lock()
		if rt.draining {
			rt.mu.Unlock()
			conn.Close()
			break
		}
		rt.conns[conn] = struct{}{}
		rt.mu.Unlock()
		if m := rt.opts.Metrics; m != nil {
			m.accepted.Add(1)
			m.conns.Add(1)
		}
		rt.wg.Add(1)
		go rt.handleConn(conn)
	}
	rt.wg.Wait()
	return err
}

// Shutdown drains the router: the listener closes, inbound connections
// finish the request they are handling and close. It blocks until every
// handler has exited or ctx is done.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.mu.Lock()
	rt.draining = true
	if rt.ln != nil {
		rt.ln.Close()
	}
	for conn := range rt.conns {
		_ = conn.SetReadDeadline(time.Now())
	}
	rt.mu.Unlock()

	done := make(chan struct{})
	go func() {
		rt.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		rt.mu.Lock()
		for conn := range rt.conns {
			conn.Close()
		}
		rt.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

func (rt *Router) isDraining() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.draining
}

func (rt *Router) dropConn(conn net.Conn) {
	rt.mu.Lock()
	delete(rt.conns, conn)
	rt.mu.Unlock()
	conn.Close()
	if m := rt.opts.Metrics; m != nil {
		m.conns.Add(-1)
	}
}

// conn is one inbound connection's routing state: a lazily-connecting
// resilient client per shard (each a single-goroutine pipeline, which the
// sequential frame loop respects) so one slow or restarting shard is
// retried without poisoning the others.
type routerConn struct {
	rt     *Router
	shards []*server.ResilientClient
}

func (rc *routerConn) close() {
	for _, sc := range rc.shards {
		if sc != nil {
			sc.Close()
		}
	}
}

// shard returns the resilient client for shard i, building it on first
// use (construction does not dial — a down shard costs nothing until a
// request actually routes to it).
func (rc *routerConn) shard(i int) *server.ResilientClient {
	if rc.shards[i] == nil {
		sh := rc.rt.shardMap.Shards[i]
		seed := rc.rt.opts.Seed
		if seed != 0 {
			seed += int64(i) * 6151
		}
		rc.shards[i] = server.NewResilient(sh.Addrs[0], server.ResilientOptions{
			Client:        rc.rt.opts.Client,
			Retry:         rc.rt.opts.Retry,
			Seed:          seed,
			FailoverAddrs: sh.Addrs[1:],
		})
	}
	return rc.shards[i]
}

// handleConn runs one inbound connection's request loop: read frame,
// route, write response, in request order — the same sequential contract
// rsserve gives, so pipelined clients keep per-connection ordering and
// read-your-writes across the extra hop.
func (rt *Router) handleConn(conn net.Conn) {
	defer rt.wg.Done()
	defer rt.dropConn(conn)
	rc := &routerConn{rt: rt, shards: make([]*server.ResilientClient, len(rt.shardMap.Shards))}
	defer rc.close()
	defer func() {
		if r := recover(); r != nil {
			rt.logf("router: connection %v: handler panic: %v\n%s", conn.RemoteAddr(), r, debug.Stack())
		}
	}()

	br := bufio.NewReaderSize(conn, 32*1024)
	bw := bufio.NewWriterSize(conn, 32*1024)
	var respBuf []byte
	m := rt.opts.Metrics
	for {
		if rt.isDraining() {
			bw.Flush()
			return
		}
		if rt.opts.IdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(rt.opts.IdleTimeout))
		}
		body, err := server.ReadFrame(br, rt.opts.MaxFrame)
		if err != nil {
			if errors.Is(err, server.ErrFrameTooLarge) || errors.Is(err, server.ErrProto) {
				if m != nil {
					m.protoErr.Add(1)
				}
				respBuf = server.EncodeResponse(respBuf[:0], 0, server.Response{Status: server.StatusErr, Msg: err.Error()})
				rt.writeResponse(conn, bw, respBuf)
			}
			bw.Flush()
			return
		}
		req, derr := server.DecodeRequest(body, rt.opts.MaxBatchOps)
		var resp server.Response
		op := byte(0)
		if derr != nil {
			if m != nil {
				m.protoErr.Add(1)
			}
			resp = server.Response{Status: server.StatusErr, Msg: derr.Error()}
		} else {
			op = req.Op
			resp = rt.route(rc, req)
		}
		if m != nil {
			m.ops.Add(1)
			if resp.Status != server.StatusOK {
				m.nonOK.Add(1)
			}
		}
		respBuf = server.EncodeResponse(respBuf[:0], op, resp)
		if !rt.writeResponse(conn, bw, respBuf) {
			return
		}
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

func (rt *Router) writeResponse(conn net.Conn, bw *bufio.Writer, body []byte) bool {
	if rt.opts.WriteTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(rt.opts.WriteTimeout))
	}
	return server.WriteFrame(bw, body) == nil
}

// route dispatches one decoded inbound request.
func (rt *Router) route(rc *routerConn, req server.Request) server.Response {
	switch req.Op {
	case server.OpPing:
		return server.Response{Status: server.StatusOK, Data: req.Data}
	case server.OpTopology:
		if m := rt.opts.Metrics; m != nil {
			m.topology.Add(1)
		}
		return server.Response{Status: server.StatusOK, Data: rt.topo}
	case server.OpStats:
		return rt.routeStats(rc)
	case server.OpInsert, server.OpDelete:
		return rt.routePoint(rc, req)
	case server.OpBatch:
		return rt.routeBatch(rc, req)
	case server.OpQuery3, server.OpQuery4:
		return rt.routeQuery(rc, req)
	default:
		return server.Response{Status: server.StatusErr, Msg: fmt.Sprintf("router: unhandled opcode 0x%02x", req.Op)}
	}
}

// forward runs one sub-request on shard i through its resilient client,
// recording per-shard latency. A transport failure past the client's
// retry budget surfaces as TIMEOUT: the outcome is genuinely unknown (the
// shard may have executed a write whose connection died), and TIMEOUT is
// the one status whose contract says exactly that. The second return is
// true when the sub-request was re-sent after an ambiguous failure —
// write callers must not trust the response's Duplicate/Found/Results.
func (rt *Router) forward(rc *routerConn, i int, req server.Request) (server.Response, bool) {
	t0 := time.Now()
	if err := rc.shard(i).Send(req, nil); err != nil {
		return server.Response{Status: server.StatusErr, Msg: err.Error()}, false
	}
	res, err := rc.shard(i).Recv()
	if err != nil {
		if m := rt.opts.Metrics; m != nil {
			m.shardErr.Add(1)
			m.observeShard(i, time.Since(t0), 0, 0, false)
		}
		rt.logf("router: shard %d (%s): %s failed: %v", i, rt.shardMap.Shards[i].Addrs[0], server.OpName(req.Op), err)
		return server.Response{Status: server.StatusTimeout}, true
	}
	if m := rt.opts.Metrics; m != nil {
		m.observeShard(i, time.Since(t0), reqBytes(req), respBytes(res.Resp), res.Resp.Status == server.StatusOK)
	}
	return res.Resp, res.Retried
}

// routePoint routes an INSERT/DELETE to the one shard owning its x. The
// IDEM envelope (if any) forwards unchanged — same (client, seq) on the
// same shard on every retry, so the shard's dedup window keeps the write
// exactly-once. The ack is re-stamped with a virtual router position.
func (rt *Router) routePoint(rc *routerConn, req server.Request) server.Response {
	i := rt.shardMap.ShardFor(req.P.X)
	if m := rt.opts.Metrics; m != nil {
		m.shards[i].points.Add(1)
	}
	resp, retried := rt.forward(rc, i, req)
	if resp.Status != server.StatusOK {
		return resp
	}
	v := rt.noteAck(i, pos{resp.Term, resp.LSN})
	if retried {
		// The shard client re-sent this write after an ambiguous failure.
		// If the shard restarted in between, its (in-memory) dedup window
		// was lost and the re-send re-executed, so Duplicate/Found may
		// describe the wrong execution — and unlike a client-side retry,
		// the inbound client has no idea a resend happened, so it cannot
		// apply its own tainted-flag accounting. Only "outcome unknown"
		// is truthful; the client's IDEM retry then replays from the
		// shard's now-populated window. The ack position is still folded
		// above: the write is durably applied whichever execution landed.
		if m := rt.opts.Metrics; m != nil {
			m.ambiguous.Add(1)
		}
		return server.Response{Status: server.StatusTimeout}
	}
	resp.Term, resp.LSN = 0, v
	return resp
}

// routeBatch splits a BATCH deterministically into per-shard sub-batches
// (entry order preserved within each shard), forwards them concurrently
// over the per-shard pipelines, and folds the per-entry codes back into
// the original order. The IDEM envelope forwards unchanged onto every
// sub-batch: a retry re-splits identically, so each shard sees the same
// (client, seq, sub-batch) and deduplicates.
//
// Cross-shard batches lose whole-request failure atomicity (each shard
// commits its own sub-batch): if every sub-batch fails un-executed the
// first failure surfaces truthfully, but a mixed outcome surfaces as
// TIMEOUT — "outcome unknown, retry under IDEM" — which is exactly the
// contract a partially-applied batch needs.
func (rt *Router) routeBatch(rc *routerConn, req server.Request) server.Response {
	if len(req.Batch) == 0 {
		return server.Response{Status: server.StatusOK}
	}
	type split struct {
		shard   int
		entries []server.BatchEntry
		slots   []int // original entry index per sub-entry
		resp    server.Response
		t0      time.Time
	}
	var splits []*split
	bySplit := map[int]*split{}
	for idx, e := range req.Batch {
		i := rt.shardMap.ShardFor(e.P.X)
		sp, ok := bySplit[i]
		if !ok {
			sp = &split{shard: i}
			bySplit[i] = sp
			splits = append(splits, sp)
		}
		sp.entries = append(sp.entries, e)
		sp.slots = append(sp.slots, idx)
	}
	m := rt.opts.Metrics
	if m != nil && len(splits) > 1 {
		m.splits.Add(1)
	}
	// Send every sub-batch before receiving any: the sub-requests ride
	// different connections, so their round trips overlap.
	retried := false
	for _, sp := range splits {
		sub := server.Request{Op: server.OpBatch, Batch: sp.entries, Idem: req.Idem, Trace: req.Trace}
		sp.t0 = time.Now()
		if m != nil {
			m.shards[sp.shard].batches.Add(1)
		}
		if err := rc.shard(sp.shard).Send(sub, nil); err != nil {
			// Only an encoding rejection fails Send; report it on this shard.
			sp.resp = server.Response{Status: server.StatusErr, Msg: err.Error()}
		}
	}
	for _, sp := range splits {
		if sp.resp.Status != server.StatusOK {
			continue // Send already failed with an encoding error
		}
		res, err := rc.shard(sp.shard).Recv()
		if err != nil {
			if m != nil {
				m.shardErr.Add(1)
				m.observeShard(sp.shard, time.Since(sp.t0), 0, 0, false)
			}
			rt.logf("router: shard %d: batch failed: %v", sp.shard, err)
			sp.resp = server.Response{Status: server.StatusTimeout}
			continue
		}
		sp.resp = res.Resp
		retried = retried || res.Retried
		if m != nil {
			m.observeShard(sp.shard, time.Since(sp.t0), (1+17)*len(sp.entries), len(sp.entries), res.Resp.Status == server.StatusOK)
		}
	}

	okCount := 0
	var firstFail *server.Response
	for _, sp := range splits {
		if sp.resp.Status == server.StatusOK {
			okCount++
		} else if firstFail == nil {
			firstFail = &sp.resp
		}
	}
	if firstFail != nil {
		if okCount > 0 {
			// Partially applied: only "outcome unknown" is truthful.
			return server.Response{Status: server.StatusTimeout}
		}
		return *firstFail
	}
	results := make([]byte, len(req.Batch))
	var vlast uint64
	for _, sp := range splits {
		if len(sp.resp.Results) != len(sp.entries) {
			return server.Response{Status: server.StatusErr,
				Msg: fmt.Sprintf("router: shard %d returned %d results for %d entries", sp.shard, len(sp.resp.Results), len(sp.entries))}
		}
		for j, code := range sp.resp.Results {
			results[sp.slots[j]] = code
		}
		vlast = rt.noteAck(sp.shard, pos{sp.resp.Term, sp.resp.LSN})
	}
	if retried {
		// Same rule as routePoint: an ambiguous resend may have
		// re-executed on a restarted shard's empty dedup window, so the
		// per-entry codes are untrustworthy. Acks are folded above; the
		// client's IDEM retry converges.
		if m != nil {
			m.ambiguous.Add(1)
		}
		return server.Response{Status: server.StatusTimeout}
	}
	return server.Response{Status: server.StatusOK, Results: results, LSN: vlast}
}

// routeQuery scatter-gathers a QUERY3/QUERY4 across exactly the shards
// whose x-range overlaps the query rectangle, merges the results into
// canonical (x, then y) order, and propagates the read barrier: an
// inbound barrier (a virtual router position from an earlier ack) is
// translated to each shard's real vector position, which by noteAck's
// ordering covers every write the client saw acked.
func (rt *Router) routeQuery(rc *routerConn, req server.Request) server.Response {
	lo, hi := rt.shardMap.Overlap(req.Rect.XLo, req.Rect.XHi)
	m := rt.opts.Metrics
	if m != nil {
		m.scatters.Add(1)
		m.fanout.Observe(uint64(hi - lo))
	}
	if lo == hi {
		// An empty x-interval overlaps nothing; answer like an empty shard.
		return server.Response{Status: server.StatusOK}
	}
	barrier := req.MinTerm != 0 || req.MinLSN != 0
	type sub struct {
		shard int
		req   server.Request
		t0    time.Time
		fail  *server.Response
	}
	subs := make([]sub, 0, hi-lo)
	for i := lo; i < hi; i++ {
		sreq := req
		sreq.MinTerm, sreq.MinLSN = 0, 0
		if barrier {
			p := rt.barrierFor(i)
			sreq.MinTerm, sreq.MinLSN = p.term, p.lsn
		}
		if m != nil {
			m.shards[i].queries.Add(1)
		}
		s := sub{shard: i, req: sreq, t0: time.Now()}
		if err := rc.shard(i).Send(sreq, nil); err != nil {
			s.fail = &server.Response{Status: server.StatusErr, Msg: err.Error()}
		}
		subs = append(subs, s)
	}
	var points []geom.Point
	var firstFail *server.Response
	for _, s := range subs {
		if s.fail != nil {
			if firstFail == nil {
				firstFail = s.fail
			}
			continue
		}
		res, err := rc.shard(s.shard).Recv()
		if err != nil {
			if m != nil {
				m.shardErr.Add(1)
				m.observeShard(s.shard, time.Since(s.t0), 0, 0, false)
			}
			rt.logf("router: shard %d: %s failed: %v", s.shard, server.OpName(req.Op), err)
			if firstFail == nil {
				firstFail = &server.Response{Status: server.StatusTimeout}
			}
			continue
		}
		resp := res.Resp
		if m != nil {
			m.observeShard(s.shard, time.Since(s.t0), reqBytes(s.req), respBytes(resp), resp.Status == server.StatusOK)
		}
		if resp.Status != server.StatusOK {
			if firstFail == nil {
				r := resp
				firstFail = &r
			}
			continue
		}
		points = append(points, resp.Points...)
	}
	if firstFail != nil {
		return *firstFail
	}
	// Shards are x-disjoint and answer in internal order, but sub-reads
	// complete independently: merge into the canonical whole-keyspace
	// order (x, then y) a single node would have produced.
	sort.Slice(points, func(i, j int) bool {
		if points[i].X != points[j].X {
			return points[i].X < points[j].X
		}
		return points[i].Y < points[j].Y
	})
	if m != nil {
		m.merged.Add(uint64(len(points)))
	}
	return server.Response{Status: server.StatusOK, Points: points}
}

// StatsSnapshot is the JSON payload of the router's STATS response: the
// cluster-aggregate view (the "len" key is the fleet total, so a load
// generator's emptiness probe works unchanged through the router) plus
// each shard's own snapshot and the routing metrics.
type StatsSnapshot struct {
	UptimeS float64 `json:"uptime_s"`
	// Len is the fleet-total point count.
	Len int `json:"len"`
	// Shards is the shard count; Spec the canonical shard-map spec.
	Shards int    `json:"shards"`
	Spec   string `json:"spec"`
	// VPos is the router's virtual ack position (the LSN namespace
	// inbound write acks use).
	VPos uint64 `json:"vpos"`
	// Router is the routing metric set rendered by obs.JSON (absent
	// without Metrics).
	Router json.RawMessage `json:"router,omitempty"`
	// PerShard holds each shard's own STATS snapshot, in map order.
	PerShard []*server.StatsSnapshot `json:"per_shard,omitempty"`
}

// routeStats fans STATS to every shard and aggregates: the fleet is only
// as observable as its least reachable member, so any shard failure
// surfaces instead of a silently partial total.
func (rt *Router) routeStats(rc *routerConn) server.Response {
	snap := StatsSnapshot{
		UptimeS: time.Since(rt.start).Seconds(),
		Shards:  len(rt.shardMap.Shards),
		Spec:    rt.shardMap.Spec(),
	}
	rt.posMu.Lock()
	snap.VPos = rt.vpos
	rt.posMu.Unlock()
	if m := rt.opts.Metrics; m != nil {
		snap.Router = obs.JSON(m)
	}
	for i := range rt.shardMap.Shards {
		resp, _ := rt.forward(rc, i, server.Request{Op: server.OpStats})
		if resp.Status != server.StatusOK {
			return resp
		}
		var st server.StatsSnapshot
		if err := json.Unmarshal(resp.Data, &st); err != nil {
			return server.Response{Status: server.StatusErr, Msg: fmt.Sprintf("router: shard %d stats: %v", i, err)}
		}
		snap.Len += st.Len
		snap.PerShard = append(snap.PerShard, &st)
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		return server.Response{Status: server.StatusErr, Msg: err.Error()}
	}
	return server.Response{Status: server.StatusOK, Data: raw}
}

// reqBytes / respBytes approximate wire sizes for the per-shard byte
// histograms without re-encoding (points dominate both directions).
func reqBytes(r server.Request) int {
	switch r.Op {
	case server.OpInsert, server.OpDelete:
		return 17
	case server.OpQuery3:
		return 25
	case server.OpQuery4:
		return 33
	case server.OpBatch:
		return 5 + 17*len(r.Batch)
	default:
		return 1 + len(r.Data)
	}
}

func respBytes(r server.Response) int {
	return 5 + 16*len(r.Points) + len(r.Results) + len(r.Data)
}
