package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"rangesearch/internal/dist"
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
	// (default 0.3). Deletes target points the worker knows are live, so
	// the index neither drains nor grows without bound.
	DeleteFrac float64
	// FourFrac is the fraction of queries that are 4-sided (default 0.5;
	// the rest are 3-sided).
	FourFrac float64
	// Domain is the coordinate range: x and y are drawn from
	// [0, Domain) (default 1 << 20). Each worker owns the x-stripe
	// x ≡ worker (mod Workers), so workers never write each other's
	// points and can verify reads against a local model.
	Domain int64
	// QuerySpan is the x-extent of generated query rectangles (default
	// Domain/64).
	QuerySpan int64
	// Dist selects the write-key distribution over each worker's stripe:
	// "uniform" (default), "zipf" (YCSB zipfian ranks — a few hot x
	// columns absorb most writes; skew set by Theta), or "hotspot"
	// (90% of writes in the first 10% of the stripe). Queries stay
	// uniform: skew is a write phenomenon here.
	Dist string
	// Theta is the zipfian skew for Dist "zipf", in (0, 1); 0 means the
	// YCSB default 0.99.
	Theta float64
	// Seed seeds the per-worker RNGs (default 1).
	Seed int64
	// Verify, when set, checks every query result against the worker's
	// model of its own stripe: reported points in the stripe must exactly
	// match the live set (read-your-writes per connection). Mismatches
	// count as consistency errors.
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
	// run then survives server restarts, and verification accounts for
	// retried operations (whose Duplicate/Found flags may describe the
	// first execution) and for writes whose outcome stayed unknown.
	Resilient bool
	// Retry bounds the resilient clients' reconnects and retries.
	Retry RetryPolicy
	// ReadAddrs fans queries out across these replica addresses (barrier-
	// stamped, primary fallback on STALE). Requires Resilient. The
	// read-your-writes verification stays sound: the session barrier makes
	// a replica answer only once it has applied this worker's acked
	// writes.
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
	// resilient client absorbs and retries most); UnknownWrites counts
	// write operations whose outcome stayed ambiguous — their points are
	// excluded from verification either way.
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

	// VerifyMode records how query results were checked: "exact" (the
	// index started empty, so each worker's stripe model is the complete
	// truth), "containment" (the index was pre-populated, so only
	// this-run inserts and deletes are checked), or "" with Verify off.
	VerifyMode string `json:"verify_mode,omitempty"`

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

// loadConn abstracts the two connection drivers a worker can run on: a
// plain pipelined Client (responses strictly FIFO) or a ResilientClient
// (responses identified per request, since retries permute the order).
// Either way, recv tells the worker which request the response answers
// and whether that request was ever ambiguously re-sent.
type loadConn interface {
	send(s sentOp) error
	recv() (s sentOp, resp Response, retried bool, err error)
	pending() int
	close() error
}

// sentOp remembers enough about an in-flight request to apply its
// response to the model and verify query results. ambig, set only on
// verified queries in resilient mode, is the set of points touched by
// writes that were still in flight when the query was sent: the read
// barrier covers acked writes only, so a replica-routed (or requeued)
// query may or may not observe those.
type sentOp struct {
	req   Request
	start time.Time
	ambig map[geom.Point]struct{}
}

// plainConn drives a *Client, pairing responses with its FIFO window.
type plainConn struct {
	cl     *Client
	window []sentOp
}

func (c *plainConn) send(s sentOp) error {
	if err := c.cl.Send(s.req); err != nil {
		return err
	}
	c.window = append(c.window, s)
	return nil
}

func (c *plainConn) recv() (sentOp, Response, bool, error) {
	resp, err := c.cl.Recv()
	s := c.window[0]
	c.window = c.window[:copy(c.window, c.window[1:])]
	return s, resp, false, err
}

func (c *plainConn) pending() int { return c.cl.Pending() }
func (c *plainConn) close() error { return c.cl.Close() }

// resilientConn drives a *ResilientClient; the whole sentOp rides along
// as the tag, so the send time spans every retry of the operation and a
// query's in-flight ambiguity snapshot survives re-routing.
type resilientConn struct {
	rc *ResilientClient
}

func (c *resilientConn) send(s sentOp) error {
	return c.rc.Send(s.req, s)
}

func (c *resilientConn) recv() (sentOp, Response, bool, error) {
	res, err := c.rc.Recv()
	if err != nil {
		return sentOp{}, Response{}, false, err
	}
	s := res.Tag.(sentOp)
	s.req = res.Req
	return s, res.Resp, res.Retried, nil
}

func (c *resilientConn) pending() int { return c.rc.Pending() }
func (c *resilientConn) close() error { return c.rc.Close() }

// loadWorker is one closed-loop connection driver.
type loadWorker struct {
	id   int
	cfg  LoadConfig
	rng  *rand.Rand
	conn loadConn
	rc   *ResilientClient // non-nil in resilient mode, for stats

	// live is the worker's model of its own x-stripe: the points it has
	// inserted and not yet deleted. keys mirrors live for O(1) random
	// victim selection.
	live map[geom.Point]int // point -> index in keys
	keys []geom.Point
	// dead holds stripe points this worker deleted (and has not since
	// re-inserted); in containment mode a query returning one is an error.
	dead map[geom.Point]struct{}
	// unknown holds stripe points whose membership is ambiguous: a write
	// touching them surfaced TIMEOUT, so it may or may not have executed.
	// They are excluded from both sides of query verification until a
	// completed write resolves them.
	unknown map[geom.Point]struct{}
	// wpending refcounts the points touched by writes sent but not yet
	// settled (response not yet delivered). Maintained only in resilient
	// mode, where a query may run on a replica or be requeued behind
	// later traffic: the read barrier orders it after every ACKED write,
	// but in-flight writes are fair game in either direction, so their
	// points are ambiguous for that query.
	wpending map[geom.Point]int
	// strict selects exact-match query verification (index started
	// empty); otherwise only containment of this run's effects is checked.
	strict bool

	// zipf/hotspot, when non-nil, skew stripePoint's stripe-local rank
	// (LoadConfig.Dist); both nil means uniform.
	zipf    *dist.Zipfian
	hotspot *dist.Hotspot

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

	hist map[byte]*obs.Histogram
}

func (w *loadWorker) fail(class *uint64, err error) {
	*class++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// stripePoint draws a random point in this worker's x-stripe. The
// stripe-local rank comes from the configured key distribution (rank 0
// is the stripe's hottest column under skew); the rank-to-x mapping
// x = rank·Workers + id keeps each worker's hot set disjoint from every
// other's, so verification stays per-stripe sound under skew.
func (w *loadWorker) stripePoint() geom.Point {
	n := int64(w.cfg.Workers)
	var rank int64
	switch {
	case w.zipf != nil:
		rank = w.zipf.Next(w.rng.Float64())
	case w.hotspot != nil:
		rank = w.hotspot.Next(w.rng.Float64(), w.rng.Float64())
	default:
		rank = w.rng.Int63n((w.cfg.Domain + n - 1) / n)
	}
	return geom.Point{X: rank*n + int64(w.id), Y: w.rng.Int63n(w.cfg.Domain)}
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
	if w.cfg.BatchEvery > 0 && w.writes%uint64(w.cfg.BatchEvery) == 0 && w.writes > 0 {
		entries := make([]BatchEntry, 0, w.cfg.BatchSize)
		for i := 0; i < w.cfg.BatchSize; i++ {
			if len(w.keys) > 0 && w.rng.Float64() < w.cfg.DeleteFrac {
				entries = append(entries, BatchEntry{Kind: BatchDelete, P: w.keys[w.rng.Intn(len(w.keys))]})
			} else {
				entries = append(entries, BatchEntry{Kind: BatchInsert, P: w.stripePoint()})
			}
		}
		return Request{Op: OpBatch, Batch: entries}
	}
	if len(w.keys) > 0 && w.rng.Float64() < w.cfg.DeleteFrac {
		return Request{Op: OpDelete, P: w.keys[w.rng.Intn(len(w.keys))]}
	}
	return Request{Op: OpInsert, P: w.stripePoint()}
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

// modelInsert / modelDelete maintain the live and dead sets. A completed
// write resolves ambiguity: afterwards the point's membership is known
// again, whatever a timed-out earlier attempt did.
func (w *loadWorker) modelInsert(p geom.Point) {
	delete(w.dead, p)
	delete(w.unknown, p)
	if _, ok := w.live[p]; ok {
		return
	}
	w.live[p] = len(w.keys)
	w.keys = append(w.keys, p)
}

func (w *loadWorker) modelDelete(p geom.Point) {
	delete(w.unknown, p)
	i, ok := w.live[p]
	if !ok {
		return
	}
	last := len(w.keys) - 1
	w.keys[i] = w.keys[last]
	w.live[w.keys[i]] = i
	w.keys = w.keys[:last]
	delete(w.live, p)
	w.dead[p] = struct{}{}
}

// modelUnknown records that p's membership is ambiguous: a write touching
// it was abandoned with TIMEOUT and may or may not have executed. The
// point leaves both the live and dead sets so neither side of query
// verification asserts anything about it.
func (w *loadWorker) modelUnknown(p geom.Point) {
	if i, ok := w.live[p]; ok {
		last := len(w.keys) - 1
		w.keys[i] = w.keys[last]
		w.live[w.keys[i]] = i
		w.keys = w.keys[:last]
		delete(w.live, p)
	}
	delete(w.dead, p)
	w.unknown[p] = struct{}{}
}

// inStripe reports whether p belongs to this worker's x-stripe.
func (w *loadWorker) inStripe(p geom.Point) bool {
	return p.X%int64(w.cfg.Workers) == int64(w.id) && p.X >= 0
}

// expectStripe returns the model's points inside rect that belong to this
// worker's stripe, sorted for comparison.
func (w *loadWorker) expectStripe(rect geom.Rect) []geom.Point {
	var out []geom.Point
	for p := range w.live {
		if p.X >= rect.XLo && p.X <= rect.XHi && p.Y >= rect.YLo && p.Y <= rect.YHi {
			out = append(out, p)
		}
	}
	sortPoints(out)
	return out
}

func sortPoints(ps []geom.Point) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].X != ps[j].X {
			return ps[i].X < ps[j].X
		}
		return ps[i].Y < ps[j].Y
	})
}

// trackSend maintains the in-flight write ledger: writes bump their
// points' refcounts; a query snapshots the currently-unsettled points so
// verification can exclude them. Called only in resilient verify mode.
func (w *loadWorker) trackSend(s *sentOp) {
	switch s.req.Op {
	case OpInsert, OpDelete:
		w.wpending[s.req.P]++
	case OpBatch:
		for _, e := range s.req.Batch {
			w.wpending[e.P]++
		}
	case OpQuery3, OpQuery4:
		if len(w.wpending) == 0 {
			return
		}
		snap := make(map[geom.Point]struct{}, len(w.wpending))
		for p := range w.wpending {
			snap[p] = struct{}{}
		}
		s.ambig = snap
	}
}

// trackSettle reverses trackSend's bookkeeping when a write's response
// is delivered (whatever its status — the op left the pipeline).
func (w *loadWorker) trackSettle(req Request) {
	dec := func(p geom.Point) {
		if n := w.wpending[p]; n <= 1 {
			delete(w.wpending, p)
		} else {
			w.wpending[p] = n - 1
		}
	}
	switch req.Op {
	case OpInsert, OpDelete:
		dec(req.P)
	case OpBatch:
		for _, e := range req.Batch {
			dec(e.P)
		}
	}
}

// applyWrite folds one delivered write effect into the model. It is
// authoritative only when no sibling write on the same point is still in
// flight (settled) — otherwise execution order is unknowable and the
// point parks as ambiguous until the last sibling lands. A point already
// ambiguous is resolved only by a write that was never re-sent: a
// dedup-replayed retry can deliver last while reporting an execution
// that predates a sibling's, so it must not claim authority.
func (w *loadWorker) applyWrite(p geom.Point, insert, retried, wasUnknown, settled bool) {
	if !settled || (retried && wasUnknown) {
		w.modelUnknown(p)
		return
	}
	if insert {
		w.modelInsert(p)
	} else {
		w.modelDelete(p)
	}
}

// ambiguousAt reports whether p's membership cannot be asserted for the
// query s: a write touching it timed out, was in flight when s was
// sent, or is in flight now (sent after s, delivered after s — but
// possibly executed before a re-routed s).
func (w *loadWorker) ambiguousAt(s sentOp, p geom.Point) bool {
	if _, ok := w.unknown[p]; ok {
		return true
	}
	if _, ok := s.ambig[p]; ok {
		return true
	}
	return w.wpending[p] > 0
}

// markUnknown records every point a timed-out write request touched as
// ambiguous.
func (w *loadWorker) markUnknown(req Request) {
	switch req.Op {
	case OpInsert, OpDelete:
		w.unknownWrites++
		w.modelUnknown(req.P)
	case OpBatch:
		w.unknownWrites++
		for _, e := range req.Batch {
			w.modelUnknown(e.P)
		}
	}
}

// applyResponse folds one response into the model and error counters.
// retried means the request was re-sent after an ambiguous failure: its
// effects are still applied (idempotency makes the retry converge to the
// same post-state), but its Duplicate/Found/Results flags may describe
// the first execution against an older state — or, after a server
// restart emptied the dedup window, a harmless re-execution — so their
// consistency checks are skipped.
func (w *loadWorker) applyResponse(s sentOp, resp Response, retried bool, err error) {
	lat := time.Since(s.start)
	if err != nil {
		w.fail(&w.txp, err)
		return
	}
	w.hist[s.req.Op].Observe(uint64(lat))
	if s.req.Trace != nil {
		w.traced++
		w.traceHist.Observe(uint64(lat))
	}
	w.ops++
	if w.wpending != nil {
		w.trackSettle(s.req)
	}
	switch resp.Status {
	case StatusBusy, StatusDiskFull, StatusStale, StatusNotPrimary:
		// Shed (or, past the retry budget, refused) without executing:
		// the model is untouched and the outcome is known.
		w.busy++
		return
	case StatusTimeout:
		// Surfaced only when the retry budget ran out (or without a
		// resilient client). The write may or may not have executed.
		w.timeouts++
		w.markUnknown(s.req)
		return
	case StatusErr:
		w.fail(&w.protoErr, fmt.Errorf("%s: server error: %s", OpName(s.req.Op), resp.Msg))
		return
	}
	switch s.req.Op {
	case OpInsert:
		w.writes++
		_, wasUnknown := w.unknown[s.req.P]
		// In resilient mode a requeued sibling write on the same point
		// can still be in flight — it may have executed before this op
		// but deliver after it, so neither the flags nor the delivered
		// effect are authoritative for the point yet (wpending > 0):
		// skip flag checks, exactly as for a retried op, and let
		// applyWrite park the point as ambiguous.
		settled := w.wpending[s.req.P] == 0
		if w.cfg.Verify && !retried && !wasUnknown && settled {
			// The stripe is exclusive to this worker, so the server must
			// report a duplicate exactly when the model already holds the
			// point. In containment mode a duplicate of a point the model
			// never saw is a pre-existing point — learn it instead.
			_, wasLive := w.live[s.req.P]
			if wasLive && !resp.Duplicate {
				w.fail(&w.consistency, fmt.Errorf("insert %v: not a duplicate, but model holds it live", s.req.P))
			}
			_, wasDead := w.dead[s.req.P]
			if resp.Duplicate && !wasLive && (w.strict || wasDead) {
				w.fail(&w.consistency, fmt.Errorf("insert %v: unexpected duplicate (live=%v dead=%v)", s.req.P, wasLive, wasDead))
			}
		}
		w.applyWrite(s.req.P, true, retried, wasUnknown, settled)
	case OpDelete:
		w.writes++
		_, wasUnknown := w.unknown[s.req.P]
		settled := w.wpending[s.req.P] == 0
		if w.cfg.Verify && !retried && !wasUnknown && settled {
			_, wasLive := w.live[s.req.P]
			if wasLive != resp.Found {
				w.fail(&w.consistency, fmt.Errorf("delete %v: found=%v, model live=%v", s.req.P, resp.Found, wasLive))
			}
		}
		w.applyWrite(s.req.P, false, retried, wasUnknown, settled)
	case OpBatch:
		w.writes++
		if len(resp.Results) != len(s.req.Batch) {
			w.fail(&w.protoErr, fmt.Errorf("batch: %d results for %d entries", len(resp.Results), len(s.req.Batch)))
			return
		}
		for i, e := range s.req.Batch {
			_, wasUnknown := w.unknown[e.P]
			settled := w.wpending[e.P] == 0
			check := w.cfg.Verify && !retried && !wasUnknown && settled
			if e.Kind == BatchDelete {
				if check {
					_, wasLive := w.live[e.P]
					got := resp.Results[i] == BatchOK
					if wasLive != got {
						w.fail(&w.consistency, fmt.Errorf("batch delete %v: code=%d, model live=%v", e.P, resp.Results[i], wasLive))
					}
				}
				w.applyWrite(e.P, false, retried, wasUnknown, settled)
			} else {
				if check {
					_, wasLive := w.live[e.P]
					_, wasDead := w.dead[e.P]
					dup := resp.Results[i] == BatchDup
					if wasLive && !dup {
						w.fail(&w.consistency, fmt.Errorf("batch insert %v: not a duplicate, but model holds it live", e.P))
					}
					if dup && !wasLive && (w.strict || wasDead) {
						w.fail(&w.consistency, fmt.Errorf("batch insert %v: unexpected duplicate", e.P))
					}
				}
				w.applyWrite(e.P, true, retried, wasUnknown, settled)
			}
		}
	case OpQuery3, OpQuery4:
		w.reads++
		w.pointsRead += uint64(len(resp.Points))
		if w.cfg.Verify {
			w.verifyQuery(s, resp.Points)
		}
	}
}

// verifyQuery checks a query result against the worker's stripe model.
// In strict mode (index started empty) the result restricted to this
// worker's stripe must equal the model's live set in the rectangle. In
// containment mode (pre-populated index) only this run's effects are
// checked: every model-live point in the rectangle must appear, and no
// point this worker deleted may appear. Either way, points whose
// membership the model cannot pin down for THIS query — timed-out
// writes, and writes in flight around the query in resilient mode (see
// sentOp.ambig) — are excluded from both sides.
func (w *loadWorker) verifyQuery(s sentOp, pts []geom.Point) {
	req := s.req
	if w.strict {
		var got []geom.Point
		for _, p := range pts {
			if w.ambiguousAt(s, p) {
				continue // an unsettled write may have put it there
			}
			if w.inStripe(p) {
				got = append(got, p)
			}
		}
		sortPoints(got)
		var want []geom.Point
		for _, p := range w.expectStripe(req.Rect) {
			if !w.ambiguousAt(s, p) {
				want = append(want, p)
			}
		}
		if !equalPoints(got, want) {
			w.fail(&w.consistency, fmt.Errorf("%s %+v: got %d stripe points, want %d", OpName(req.Op), req.Rect, len(got), len(want)))
		}
		return
	}
	got := make(map[geom.Point]struct{}, len(pts))
	for _, p := range pts {
		got[p] = struct{}{}
		if _, deleted := w.dead[p]; deleted && !w.ambiguousAt(s, p) {
			w.fail(&w.consistency, fmt.Errorf("%s %+v: returned %v, which this worker deleted", OpName(req.Op), req.Rect, p))
			return
		}
	}
	for _, p := range w.expectStripe(req.Rect) {
		if _, ok := got[p]; !ok && !w.ambiguousAt(s, p) {
			w.fail(&w.consistency, fmt.Errorf("%s %+v: missing %v, which this worker inserted", OpName(req.Op), req.Rect, p))
			return
		}
	}
}

func equalPoints(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// run drives the closed loop until deadline (or an early Stop), then
// drains the window.
func (w *loadWorker) run(deadline time.Time) {
	stopped := func() bool {
		select {
		case <-w.cfg.Stop:
			return true
		default:
			return false
		}
	}
	for time.Now().Before(deadline) && w.firstErr == nil && !stopped() {
		// Fill the pipeline window.
		for w.conn.pending() < w.cfg.Pipeline {
			req := w.nextRequest()
			w.maybeTrace(&req)
			s := sentOp{req: req, start: time.Now()}
			if w.wpending != nil {
				w.trackSend(&s)
			}
			if err := w.conn.send(s); err != nil {
				w.fail(&w.txp, err)
				return
			}
		}
		s, resp, retried, err := w.conn.recv()
		w.applyResponse(s, resp, retried, err)
		if err != nil {
			return
		}
	}
	// Drain outstanding responses so the connection closes cleanly.
	for w.conn.pending() > 0 && w.firstErr == nil {
		s, resp, retried, err := w.conn.recv()
		w.applyResponse(s, resp, retried, err)
		if err != nil {
			return
		}
	}
}

// fetchStats fetches the server's STATS payload, through the retry layer
// in resilient mode (so a restarting server doesn't fail the probe).
func fetchStats(cfg LoadConfig) ([]byte, error) {
	if cfg.Resilient {
		rc := NewResilient(cfg.Addr, ResilientOptions{
			Client: cfg.Client, Retry: cfg.Retry, Seed: cfg.Seed,
			FailoverAddrs: cfg.FailoverAddrs,
		})
		defer rc.Close()
		return rc.ServerStats()
	}
	probe, err := Dial(cfg.Addr, cfg.Client)
	if err != nil {
		return nil, err
	}
	defer probe.Close()
	return probe.Stats()
}

// RunLoad runs the closed-loop workload against the server at cfg.Addr and
// aggregates every worker's counters and latency histograms into one
// report. Each worker owns a disjoint x-stripe (x mod Workers), which is
// what makes per-connection read-your-writes verification sound under
// concurrency: no other connection ever writes the stripe a worker checks.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	cfg = cfg.withDefaults()
	switch cfg.Dist {
	case "uniform", "zipf", "hotspot":
	default:
		return nil, fmt.Errorf("load: unknown key distribution %q (uniform, zipf, hotspot)", cfg.Dist)
	}

	// Exact verification is sound only when the index starts empty (the
	// stripe model then is the whole truth about the stripe); against a
	// pre-populated store, fall back to checking containment of this
	// run's own effects.
	strict := true
	if cfg.Verify {
		raw, err := fetchStats(cfg)
		if err != nil {
			return nil, fmt.Errorf("probe stats: %w", err)
		}
		var st StatsSnapshot
		if err := json.Unmarshal(raw, &st); err != nil {
			return nil, fmt.Errorf("probe stats: %w", err)
		}
		strict = st.Len == 0
	}

	// One sampler serves every worker: stripes are all the same size and
	// the samplers are stateless in the RNG (each Next consumes the
	// worker's own uniform variates).
	var zipfian *dist.Zipfian
	var hotspot *dist.Hotspot
	stripe := (cfg.Domain + int64(cfg.Workers) - 1) / int64(cfg.Workers)
	switch cfg.Dist {
	case "zipf":
		var err error
		if zipfian, err = dist.NewZipfian(stripe, cfg.Theta); err != nil {
			return nil, err
		}
	case "hotspot":
		var err error
		if hotspot, err = dist.NewHotspot(stripe, 0.1, 0.9); err != nil {
			return nil, err
		}
	}

	workers := make([]*loadWorker, cfg.Workers)
	for i := range workers {
		w := &loadWorker{
			id:      i,
			cfg:     cfg,
			rng:     rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
			live:    map[geom.Point]int{},
			dead:    map[geom.Point]struct{}{},
			unknown: map[geom.Point]struct{}{},
			strict:  strict,
			hist: map[byte]*obs.Histogram{
				OpInsert: {}, OpDelete: {}, OpQuery3: {}, OpQuery4: {}, OpBatch: {},
			},
			traceEvery: sampleInterval(cfg.TraceSample),
			zipf:       zipfian,
			hotspot:    hotspot,
		}
		if cfg.Resilient {
			if cfg.Verify {
				w.wpending = map[geom.Point]int{}
			}
			w.rc = NewResilient(cfg.Addr, ResilientOptions{
				Client: cfg.Client,
				Retry:  cfg.Retry,
				// Jitter is seeded per worker; the idempotency client id
				// stays crypto-random so windows never collide across runs
				// against the same server.
				Seed:          cfg.Seed + int64(i)*104729,
				ReadAddrs:     cfg.ReadAddrs,
				FailoverAddrs: cfg.FailoverAddrs,
			})
			w.conn = &resilientConn{rc: w.rc}
		} else {
			cl, err := Dial(cfg.Addr, cfg.Client)
			if err != nil {
				for _, prev := range workers[:i] {
					prev.conn.close()
				}
				return nil, fmt.Errorf("dial worker %d: %w", i, err)
			}
			w.conn = &plainConn{cl: cl}
		}
		workers[i] = w
	}

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for _, w := range workers {
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
	if cfg.Verify {
		rep.VerifyMode = "containment"
		if strict {
			rep.VerifyMode = "exact"
		}
	}
	merged := map[byte]*obs.Histogram{
		OpInsert: {}, OpDelete: {}, OpQuery3: {}, OpQuery4: {}, OpBatch: {},
	}
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
		if w.rc != nil {
			st := w.rc.Stats()
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
		for op, h := range w.hist {
			merged[op].Merge(h)
		}
	}
	if elapsed > 0 {
		rep.OpsPerSec = float64(rep.Ops) / elapsed.Seconds()
	}
	for op, h := range merged {
		snap := h.Snapshot()
		if snap.Count == 0 {
			continue
		}
		rep.PerOp[OpName(op)] = OpLoadStats{
			Count:  snap.Count,
			P50Ms:  float64(h.Quantile(0.50)) / 1e6,
			P99Ms:  float64(h.Quantile(0.99)) / 1e6,
			P999Ms: float64(h.Quantile(0.999)) / 1e6,
			MeanMs: snap.Mean / 1e6,
		}
	}
	// Attach the server's own view of the run, best-effort: a server mid-
	// restart (or gone) just leaves the field nil.
	if raw, err := fetchStats(cfg); err == nil {
		var st StatsSnapshot
		if json.Unmarshal(raw, &st) == nil {
			rep.ServerStats = &st
		}
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
