package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"rangesearch/internal/geom"
	"rangesearch/internal/obs"
	"rangesearch/internal/trace"
)

// LoadConfig drives RunLoad, the closed-loop load generator behind
// cmd/rsload, the chaos harness (internal/server/chaos) and the soak test.
type LoadConfig struct {
	// Addr is the server's TCP address.
	Addr string
	// Workers is the number of connections, each driven by one goroutine
	// (default 4).
	Workers int
	// Duration is how long to run (default 2s).
	Duration time.Duration
	// Pipeline is the per-connection window: a worker keeps up to this
	// many requests outstanding before reading a response (default 1,
	// i.e. strict request/response).
	Pipeline int
	// ReadFrac is the fraction of operations that are queries, in [0, 1]
	// (default 0.5).
	ReadFrac float64
	// DeleteFrac is the fraction of *write* operations that are deletes
	// (default 0.3). Deletes draw from the same key pool as inserts, so
	// some find their point and some do not.
	DeleteFrac float64
	// FourFrac is the fraction of queries that are 4-sided (default 0.5;
	// the rest are 3-sided).
	FourFrac float64
	// Domain is the coordinate range: query corners and the points of the
	// key pool all workers write are drawn from [0, Domain) (default 1 << 20).
	Domain int64
	// QuerySpan is the x-extent of generated query rectangles (default
	// Domain/64).
	QuerySpan int64
	// Dist selects the write-key distribution over the key pool's ranks:
	// "uniform" (default), "zipf" (YCSB zipfian, skew set by Theta), or
	// "hotspot" (90% of writes on 10% of the pool). Queries stay uniform.
	Dist string
	// Theta is the zipfian skew for Dist "zipf", in (0, 1); 0 means the
	// YCSB default 0.99.
	Theta float64
	// Seed seeds the per-worker RNGs (default 1).
	Seed int64
	// Verify, when set, records every operation and after the run checks
	// each pool point's history for linearizability (checkHistory); each
	// point with none counts as one consistency error.
	Verify bool
	// BatchEvery, when > 0, makes every Nth write a BATCH of BatchSize
	// mixed inserts/deletes instead of a single op.
	BatchEvery int
	// BatchSize is the number of entries per BATCH request (default 16).
	BatchSize int
	// Client is passed to Dial.
	Client ClientOptions
	// TraceSample, when > 0, stamps that fraction of requests with a
	// client-side TRACE envelope (random trace ID, sampled flag set), so
	// the server records a full span for them regardless of its own
	// sampling. The report then carries the client-observed latency of
	// exactly those requests next to the server's per-phase breakdown —
	// the difference is time spent on the wire and in kernel buffers.
	TraceSample float64
	// Resilient drives each worker through a ResilientClient: automatic
	// reconnect, idempotent write retries, BUSY/TIMEOUT absorption. The
	// run then survives server restarts; checkHistory accounts for re-sent
	// writes and for writes whose outcome stayed unknown.
	Resilient bool
	// Retry bounds the resilient clients' reconnects and retries.
	Retry RetryPolicy
	// ReadAddrs fans queries out across these replica addresses (barrier-
	// stamped, primary fallback on STALE). Requires Resilient. A replica
	// answers only once it has applied this worker's acked writes.
	ReadAddrs []string
	// FailoverAddrs lists candidate primaries the workers rotate to on
	// NOTPRIMARY, so the run rides through a promotion. Requires
	// Resilient.
	FailoverAddrs []string
	// Stop, when non-nil, ends the run early when closed: workers finish
	// their outstanding window and the report covers what ran. A harness
	// whose fault schedule has variable length uses this instead of
	// guessing a Duration.
	Stop <-chan struct{}
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Pipeline <= 0 {
		c.Pipeline = 1
	}
	// For the fraction knobs, 0 means "default" and a negative value means
	// "really zero", so a pure-write or pure-insert mix stays expressible.
	c.ReadFrac = fracDefault(c.ReadFrac, 0.5)
	c.DeleteFrac = fracDefault(c.DeleteFrac, 0.3)
	c.FourFrac = fracDefault(c.FourFrac, 0.5)
	if c.Domain <= 0 {
		c.Domain = 1 << 20
	}
	if c.QuerySpan <= 0 {
		c.QuerySpan = c.Domain / 64
		if c.QuerySpan == 0 {
			c.QuerySpan = 1
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.Dist == "" {
		c.Dist = "uniform"
	}
	if c.Theta == 0 {
		c.Theta = 0.99
	}
	return c
}

func fracDefault(v, def float64) float64 {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}

// OpLoadStats summarizes one operation kind in a LoadReport.
type OpLoadStats struct {
	Count  uint64  `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MeanMs float64 `json:"mean_ms"`
}

// LoadReport is RunLoad's result: throughput, per-op latency quantiles,
// and the three error classes the acceptance gate cares about. It is the
// JSON payload cmd/rsload writes.
type LoadReport struct {
	Workers    int     `json:"workers"`
	Pipeline   int     `json:"pipeline"`
	DurationS  float64 `json:"duration_s"`
	Ops        uint64  `json:"ops"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	Reads      uint64  `json:"reads"`
	Writes     uint64  `json:"writes"`
	PointsRead uint64  `json:"points_read"`

	Busy              uint64 `json:"busy"`
	ProtoErrors       uint64 `json:"proto_errors"`
	ConsistencyErrors uint64 `json:"consistency_errors"`
	TransportErrors   uint64 `json:"transport_errors"`

	// Timeouts counts TIMEOUT responses that surfaced to workers (the
	// resilient client absorbs and retries most); UnknownWrites counts the
	// write operations among them, which the history check lets take
	// effect at any time after their invoke, or never.
	Timeouts      uint64 `json:"timeouts,omitempty"`
	UnknownWrites uint64 `json:"unknown_writes,omitempty"`
	// Reconnects / Resent / BusyRetries / TimeoutRetries aggregate the
	// resilient clients' recovery work (zero in plain mode).
	Reconnects     uint64 `json:"reconnects,omitempty"`
	Resent         uint64 `json:"resent,omitempty"`
	BusyRetries    uint64 `json:"busy_retries,omitempty"`
	TimeoutRetries uint64 `json:"timeout_retries,omitempty"`
	// ReplicaReads / StaleFallbacks / ReplicaFallbacks / Failovers /
	// DiskFullRetries aggregate the replica read pool and failover work
	// (zero without ReadAddrs / FailoverAddrs).
	ReplicaReads     uint64 `json:"replica_reads,omitempty"`
	StaleFallbacks   uint64 `json:"stale_fallbacks,omitempty"`
	ReplicaFallbacks uint64 `json:"replica_fallbacks,omitempty"`
	Failovers        uint64 `json:"failovers,omitempty"`
	DiskFullRetries  uint64 `json:"disk_full_retries,omitempty"`

	PerOp map[string]OpLoadStats `json:"per_op"`

	// TracedOps counts requests sent with a client TRACE envelope;
	// Trace summarizes their client-observed latency and the server's
	// per-phase breakdown (nil when TraceSample is 0).
	TracedOps uint64          `json:"traced_ops,omitempty"`
	Trace     *TraceLoadStats `json:"trace,omitempty"`

	// ServerStats is the server's own STATS snapshot, fetched best-effort
	// after the run (nil if the server was unreachable).
	ServerStats *StatsSnapshot `json:"server_stats,omitempty"`

	// Cluster records the shard topology of a run verified through an
	// rsrouter (rsload -cluster). The load path is identical — the router
	// speaks the same protocol — so this is provenance, set by the caller
	// after a TOPOLOGY probe, not a behavior switch.
	Cluster *ClusterLoadInfo `json:"cluster,omitempty"`

	// SameKeyOverlap is the share of verified write operations (BATCH
	// entries counted one by one) whose window overlapped another
	// operation's on the same point: the same-key concurrency the history
	// check had to order. Zero with Verify off.
	SameKeyOverlap float64 `json:"same_key_overlap,omitempty"`

	// FirstError preserves one representative failure for diagnostics.
	FirstError string `json:"first_error,omitempty"`
}

// ClusterLoadInfo identifies the sharded fleet a load run went through:
// the shard count and the canonical shard-map spec from the router's
// TOPOLOGY frame (internal/router owns the codec, so the probe lives in
// cmd/rsload rather than here).
type ClusterLoadInfo struct {
	Shards int    `json:"shards"`
	Spec   string `json:"spec"`
}

// TraceLoadStats merges the two ends of the traced requests: what the
// client clocked wire to wire, and what the server attributed to each
// phase (from its final STATS snapshot, so it covers every span the
// server sampled, not only this client's).
type TraceLoadStats struct {
	ClientP50Ms  float64 `json:"client_p50_ms"`
	ClientP99Ms  float64 `json:"client_p99_ms"`
	ClientMeanMs float64 `json:"client_mean_ms"`
	// ServerPhases is keyed by trace phase name ("execute", "sync", ...).
	ServerPhases map[string]PhaseSnapshot `json:"server_phases,omitempty"`
}

// Failed reports whether the run saw any error that should fail a gate
// (BUSY shedding is backpressure, not failure, and is excluded).
func (r *LoadReport) Failed() bool {
	return r.ProtoErrors > 0 || r.ConsistencyErrors > 0 || r.TransportErrors > 0
}

// sentOp remembers an in-flight request: when it was sent, and (in a
// verified run) the index of its record in the worker's history.
type sentOp struct {
	req   Request
	start time.Time
	rec   int
}

// loadConn is one worker's connection: a plain pipelined Client, whose
// responses come back in send order (window), or a ResilientClient, whose
// responses name their request (the sentOp rides along as the tag, so its
// send time spans every retry). recv also reports whether the request was
// ever ambiguously re-sent. inflight counts the requests sent and not yet
// received.
type loadConn struct {
	cl       *Client
	window   []sentOp
	rc       *ResilientClient
	inflight int
}

func (c *loadConn) send(s sentOp) error {
	c.inflight++
	if c.rc != nil {
		return c.rc.Send(s.req, s)
	}
	c.window = append(c.window, s)
	return c.cl.Send(s.req)
}

func (c *loadConn) recv() (sentOp, Response, bool, error) {
	c.inflight--
	if c.rc == nil {
		resp, err := c.cl.Recv()
		s := c.window[0]
		c.window = c.window[1:]
		return s, resp, false, err
	}
	res, err := c.rc.Recv()
	if err != nil {
		return sentOp{}, Response{}, false, err
	}
	s := res.Tag.(sentOp)
	s.req = res.Req
	return s, res.Resp, res.Retried, nil
}

func (c *loadConn) close() error {
	if c.rc != nil {
		return c.rc.Close()
	}
	return c.cl.Close()
}

// loadWorker is one closed-loop connection driver.
type loadWorker struct {
	id    int
	cfg   LoadConfig
	rng   *rand.Rand
	conn  loadConn
	pool  *keyPool
	begin time.Time // the run's start, history time zero

	// history holds one record per sent operation; nil unless Verify.
	history []histOp
	// startedEmpty: the index was empty before the run, so a query may
	// report no point outside the pool.
	startedEmpty bool

	// drawn counts the write operations drawn so far (BatchEvery's clock).
	drawn                            uint64
	ops, reads, writes, pointsRead   uint64
	busy, protoErr, consistency, txp uint64
	timeouts, unknownWrites          uint64
	firstErr                         error

	// traceEvery stamps every Nth sent request with a TRACE envelope;
	// traceHist clocks the client-observed latency of exactly those.
	traceEvery uint64
	traceSent  uint64
	traced     uint64
	traceHist  obs.Histogram

	lat [opSlots]obs.Histogram // client-observed latency by opcode
}

func (w *loadWorker) fail(class *uint64, err error) {
	*class++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// nextRequest draws the next operation from the configured mix.
func (w *loadWorker) nextRequest() Request {
	if w.rng.Float64() < w.cfg.ReadFrac {
		xlo := w.rng.Int63n(w.cfg.Domain)
		xhi := xlo + w.cfg.QuerySpan
		ylo := w.rng.Int63n(w.cfg.Domain)
		if w.rng.Float64() < w.cfg.FourFrac {
			span := w.cfg.QuerySpan * 4
			yhi := ylo + span
			return Request{Op: OpQuery4, Rect: geom.Rect{XLo: xlo, XHi: xhi, YLo: ylo, YHi: yhi}}
		}
		return Request{Op: OpQuery3, Rect: geom.Rect{XLo: xlo, XHi: xhi, YLo: ylo, YHi: geom.MaxCoord}}
	}
	w.drawn++
	if w.cfg.BatchEvery > 0 && w.drawn%uint64(w.cfg.BatchEvery) == 0 {
		entries := make([]BatchEntry, w.cfg.BatchSize)
		for i := range entries {
			entries[i] = BatchEntry{Kind: BatchInsert, P: w.pool.draw(w.rng)}
			if w.rng.Float64() < w.cfg.DeleteFrac {
				entries[i].Kind = BatchDelete
			}
		}
		return Request{Op: OpBatch, Batch: entries}
	}
	if w.rng.Float64() < w.cfg.DeleteFrac {
		return Request{Op: OpDelete, P: w.pool.draw(w.rng)}
	}
	return Request{Op: OpInsert, P: w.pool.draw(w.rng)}
}

// maybeTrace stamps every traceEvery-th request with a client-side
// TRACE envelope so the server records a full span for it.
func (w *loadWorker) maybeTrace(req *Request) {
	if w.traceEvery == 0 {
		return
	}
	w.traceSent++
	if w.traceSent%w.traceEvery != 0 {
		return
	}
	req.Trace = &TraceInfo{ID: trace.NewID(), Sampled: true}
}

// now is the history clock: ns since the run began.
func (w *loadWorker) now() int64 { return int64(time.Since(w.begin)) }

// applyResponse folds one response into the error counters and, in a
// verified run, into the operation's history record.
func (w *loadWorker) applyResponse(s sentOp, resp Response, retried bool, err error) {
	lat := time.Since(s.start)
	if err != nil {
		w.fail(&w.txp, err)
		return
	}
	w.lat[s.req.Op].Observe(uint64(lat))
	if s.req.Trace != nil {
		w.traced++
		w.traceHist.Observe(uint64(lat))
	}
	w.ops++
	var h *histOp
	if w.history != nil {
		h = &w.history[s.rec]
		h.ret, h.retried = w.now(), retried
	}
	switch resp.Status {
	case StatusBusy, StatusDiskFull, StatusStale, StatusNotPrimary:
		// Shed (or, past the retry budget, refused) without executing. An
		// earlier attempt of a re-sent request may still have run, so only
		// a request sent once is known to have had no effect.
		w.busy++
		if h != nil && !retried {
			h.outcome = outShed
		}
		return
	case StatusTimeout:
		// Surfaced only when the retry budget ran out (or without a
		// resilient client). A write may or may not have executed.
		w.timeouts++
		if !isQuery(s.req.Op) {
			w.unknownWrites++
		}
		return
	case StatusErr:
		w.fail(&w.protoErr, fmt.Errorf("%s: server error: %s", OpName(s.req.Op), resp.Msg))
		return
	}
	switch s.req.Op {
	case OpInsert, OpDelete:
		w.writes++
	case OpBatch:
		w.writes++
		if len(resp.Results) != len(s.req.Batch) {
			w.fail(&w.protoErr, fmt.Errorf("batch: %d results for %d entries", len(resp.Results), len(s.req.Batch)))
			return
		}
	default:
		w.reads++
		w.pointsRead += uint64(len(resp.Points))
	}
	if h == nil {
		return
	}
	// Record the answer. A query's points are checked here against its
	// rectangle and, when the index started empty, against the pool.
	h.outcome, h.flag = outOK, resp.Duplicate || resp.Found
	h.codes = append([]byte(nil), resp.Results...)
	for _, p := range resp.Points {
		rank, inPool := w.pool.rank[p]
		switch {
		case !s.req.Rect.Contains(p):
			w.fail(&w.consistency, fmt.Errorf("%s %v: returned %v, outside the rectangle", OpName(s.req.Op), s.req.Rect, p))
		case inPool:
			h.present = append(h.present, rank)
		case w.startedEmpty:
			w.fail(&w.consistency, fmt.Errorf("%s %v: returned %v, which no worker wrote", OpName(s.req.Op), s.req.Rect, p))
		}
	}
}

// run drives the closed loop until deadline (or an early Stop), then
// drains the window.
func (w *loadWorker) run(deadline time.Time) {
	defer w.abandon()
	stopped := func() bool {
		select {
		case <-w.cfg.Stop:
			return true
		default:
			return false
		}
	}
	// Fill the pipeline window until the deadline, then drain it so the
	// connection closes cleanly.
	for w.firstErr == nil {
		for time.Now().Before(deadline) && !stopped() && w.conn.inflight < w.cfg.Pipeline {
			req := w.nextRequest()
			w.maybeTrace(&req)
			s := sentOp{req: req, start: time.Now(), rec: len(w.history)}
			if w.history != nil {
				w.history = append(w.history, histOp{req: req, inv: w.now()})
			}
			if err := w.conn.send(s); err != nil {
				w.fail(&w.txp, err)
				return
			}
		}
		if w.conn.inflight == 0 {
			return
		}
		s, resp, retried, err := w.conn.recv()
		w.applyResponse(s, resp, retried, err)
		if err != nil {
			return
		}
	}
}

// abandon closes the window of every op the worker stopped waiting for:
// its outcome stays unknown, and a resilient client may have re-sent it.
func (w *loadWorker) abandon() {
	end := w.now()
	for i := range w.history {
		if h := &w.history[i]; h.ret == 0 {
			h.ret, h.retried = end, w.conn.rc != nil
		}
	}
}

// fetchStats fetches the server's STATS snapshot, through the retry layer
// in resilient mode (so a restarting server doesn't fail the probe).
func fetchStats(cfg LoadConfig) (*StatsSnapshot, error) {
	var raw []byte
	var err error
	if cfg.Resilient {
		rc := NewResilient(cfg.Addr, ResilientOptions{
			Client: cfg.Client, Retry: cfg.Retry, Seed: cfg.Seed,
			FailoverAddrs: cfg.FailoverAddrs,
		})
		defer rc.Close()
		raw, err = rc.ServerStats()
	} else if probe, derr := Dial(cfg.Addr, cfg.Client); derr != nil {
		return nil, derr
	} else {
		defer probe.Close()
		raw, err = probe.Stats()
	}
	if err != nil {
		return nil, err
	}
	var st StatsSnapshot
	return &st, json.Unmarshal(raw, &st)
}

// RunLoad runs the closed-loop workload against the server at cfg.Addr and
// aggregates every worker's counters and latency histograms into one
// report. All workers write one shared pool of points; with Verify set,
// each records its operations and checkHistory checks the merged history
// per point once every worker has stopped.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	cfg = cfg.withDefaults()
	switch cfg.Dist {
	case "uniform", "zipf", "hotspot":
	default:
		return nil, fmt.Errorf("load: unknown key distribution %q (uniform, zipf, hotspot)", cfg.Dist)
	}
	pool, err := newKeyPool(cfg)
	if err != nil {
		return nil, err
	}

	// A point the run never wrote may be reported only if the index held
	// points before the run; the same bit tells the checker whether every
	// pool point starts absent.
	startedEmpty := false
	if cfg.Verify {
		st, err := fetchStats(cfg)
		if err != nil {
			return nil, fmt.Errorf("probe stats: %w", err)
		}
		startedEmpty = st.Len == 0
	}

	workers := make([]*loadWorker, cfg.Workers)
	for i := range workers {
		w := &loadWorker{
			id:           i,
			cfg:          cfg,
			rng:          rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
			pool:         pool,
			startedEmpty: startedEmpty,
			traceEvery:   sampleInterval(cfg.TraceSample),
		}
		if cfg.Verify {
			w.history = []histOp{}
		}
		if cfg.Resilient {
			w.conn.rc = NewResilient(cfg.Addr, ResilientOptions{
				Client: cfg.Client,
				Retry:  cfg.Retry,
				// Jitter is seeded per worker; the idempotency client id
				// stays crypto-random so windows never collide across runs
				// against the same server.
				Seed:          cfg.Seed + int64(i)*104729,
				ReadAddrs:     cfg.ReadAddrs,
				FailoverAddrs: cfg.FailoverAddrs,
			})
		} else {
			cl, err := Dial(cfg.Addr, cfg.Client)
			if err != nil {
				for _, prev := range workers[:i] {
					prev.conn.close()
				}
				return nil, fmt.Errorf("dial worker %d: %w", i, err)
			}
			w.conn.cl = cl
		}
		workers[i] = w
	}

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for _, w := range workers {
		w.begin = start
		wg.Add(1)
		go func(w *loadWorker) {
			defer wg.Done()
			defer w.conn.close()
			w.run(deadline)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &LoadReport{
		Workers:   cfg.Workers,
		Pipeline:  cfg.Pipeline,
		DurationS: elapsed.Seconds(),
		PerOp:     map[string]OpLoadStats{},
	}
	var merged [opSlots]obs.Histogram
	var traceMerged obs.Histogram
	for _, w := range workers {
		rep.Ops += w.ops
		rep.Reads += w.reads
		rep.Writes += w.writes
		rep.PointsRead += w.pointsRead
		rep.Busy += w.busy
		rep.ProtoErrors += w.protoErr
		rep.ConsistencyErrors += w.consistency
		rep.TransportErrors += w.txp
		rep.Timeouts += w.timeouts
		rep.UnknownWrites += w.unknownWrites
		if w.conn.rc != nil {
			st := w.conn.rc.Stats()
			rep.Reconnects += st.Reconnects
			rep.Resent += st.Resent
			rep.BusyRetries += st.BusyRetries
			rep.TimeoutRetries += st.TimeoutRetries
			rep.ReplicaReads += st.ReplicaReads
			rep.StaleFallbacks += st.StaleFallbacks
			rep.ReplicaFallbacks += st.ReplicaFallbacks
			rep.Failovers += st.Failovers
			rep.DiskFullRetries += st.DiskFullRetries
		}
		if w.firstErr != nil && rep.FirstError == "" {
			rep.FirstError = fmt.Sprintf("worker %d: %v", w.id, w.firstErr)
		}
		rep.TracedOps += w.traced
		traceMerged.Merge(&w.traceHist)
		for op := range w.lat {
			merged[op].Merge(&w.lat[op])
		}
	}
	if cfg.Verify {
		hists := make([][]histOp, len(workers))
		for i, w := range workers {
			hists[i] = w.history
		}
		replicaReads := len(cfg.ReadAddrs) > 0 || len(cfg.FailoverAddrs) > 0
		v := checkHistory(pool, hists, startedEmpty, replicaReads)
		rep.ConsistencyErrors += uint64(v.violations)
		if v.first != nil && rep.FirstError == "" {
			rep.FirstError = v.first.Error()
		}
		if v.writes > 0 {
			rep.SameKeyOverlap = float64(v.overlapped) / float64(v.writes)
		}
	}
	if elapsed > 0 {
		rep.OpsPerSec = float64(rep.Ops) / elapsed.Seconds()
	}
	for op := range merged {
		h := &merged[op]
		snap := h.Snapshot()
		if snap.Count == 0 {
			continue
		}
		rep.PerOp[OpName(byte(op))] = OpLoadStats{
			Count:  snap.Count,
			P50Ms:  float64(h.Quantile(0.50)) / 1e6,
			P99Ms:  float64(h.Quantile(0.99)) / 1e6,
			P999Ms: float64(h.Quantile(0.999)) / 1e6,
			MeanMs: snap.Mean / 1e6,
		}
	}
	// Attach the server's own view of the run, best-effort: a server mid-
	// restart (or gone) just leaves the field nil.
	if st, err := fetchStats(cfg); err == nil {
		rep.ServerStats = st
	}
	if rep.TracedOps > 0 {
		t := &TraceLoadStats{
			ClientP50Ms:  float64(traceMerged.Quantile(0.50)) / 1e6,
			ClientP99Ms:  float64(traceMerged.Quantile(0.99)) / 1e6,
			ClientMeanMs: traceMerged.Mean() / 1e6,
		}
		if rep.ServerStats != nil && rep.ServerStats.Metrics != nil {
			t.ServerPhases = rep.ServerStats.Metrics.Phases
		}
		rep.Trace = t
	}
	return rep, nil
}
