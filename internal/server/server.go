package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"rangesearch/internal/core"
	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
	"rangesearch/internal/obs"
	"rangesearch/internal/trace"
)

// ReplInfo is a node's replication identity, reported inside STATS when
// the server is given a ReplInfo callback. All fields are point-in-time.
type ReplInfo struct {
	// Role is "primary", "replica", or "fenced" (an ex-primary refusing
	// writes after learning of a newer term).
	Role string `json:"role"`
	// Term is the fencing term from the manifest: a promotion bumps it,
	// and a node never accepts records from a lower term.
	Term uint64 `json:"term"`
	// AppliedLSN is the node's durable position.
	AppliedLSN uint64 `json:"applied_lsn"`
	// PrimaryLSN is the highest LSN the node has heard from its primary
	// (replica only; equals AppliedLSN when caught up).
	PrimaryLSN uint64 `json:"primary_lsn,omitempty"`
	// StalenessMs is how long ago the node last heard from its primary
	// (replica only).
	StalenessMs float64 `json:"staleness_ms,omitempty"`
	// Replicas is the number of connected downstream replicas (primary
	// side of a shipping link).
	Replicas int `json:"replicas,omitempty"`
}

// Config tunes a Server. The zero value serves with the documented
// defaults.
type Config struct {
	// MaxInFlight caps the RPCs admitted past the gate at once, across all
	// connections. A request arriving while the gate is full is answered
	// StatusBusy immediately instead of queueing — offered load beyond the
	// budget is shed, not buffered, so memory and tail latency stay
	// bounded. PING and STATS bypass the gate: a saturated server must
	// stay health-checkable and observable. Default 64.
	MaxInFlight int
	// MaxFrame is the per-frame byte ceiling (default DefaultMaxFrame).
	MaxFrame int
	// MaxBatchOps bounds one BATCH frame (default DefaultMaxBatchOps).
	MaxBatchOps int
	// IdleTimeout is how long a connection may sit between frames before
	// the server closes it (default 2 minutes; <0 disables).
	IdleTimeout time.Duration
	// WriteTimeout is the deadline for writing one response batch
	// (default 30 seconds; <0 disables). A connection that misses it is
	// evicted: a peer too slow to accept responses cannot pin a handler
	// (Metrics.Evicted counts these).
	WriteTimeout time.Duration
	// RequestTimeout bounds one request's execution. A request runs on
	// its connection's goroutine; one that finishes after its deadline is
	// answered StatusTimeout, not with its result. One still running when
	// the deadline fires is detached: another goroutine takes the
	// connection over, answers it StatusTimeout and serves the requests
	// behind it, while the detached execution runs to completion (for
	// IDEM writes its outcome lands in the dedup window for the retry to
	// find). Ordering relative to later requests on the connection is not
	// guaranteed for a detached request. 0 disables.
	RequestTimeout time.Duration
	// RetryAfterHint is the backoff hint attached to BUSY responses
	// (default 2ms; <0 omits the hint).
	RetryAfterHint time.Duration
	// Idem bounds the idempotency dedup windows (see IdemConfig).
	Idem IdemConfig
	// TraceSample, when > 0, makes the server record a full span (phase
	// timings + exact block I/O, see internal/trace) for roughly this
	// fraction of requests: every ⌈1/TraceSample⌉-th request is sampled,
	// counter-based so the unsampled path costs one atomic add and zero
	// allocations. Client requests stamped with a sampled TRACE envelope
	// are always recorded regardless. 0 disables server-side sampling.
	TraceSample float64
	// SlowLog, when > 0, arms the slow-query log: EVERY request is traced
	// and any request whose wall time reaches the threshold is dumped via
	// Logf as one line — all non-zero phases, attributed I/O count, and
	// the Theorem 6/7 I/O allowance for the op. 0 disables.
	SlowLog time.Duration
	// Spans, when non-nil, receives the record of every sampled span
	// after its response flushes (ring buffer, JSONL spool, ...).
	Spans SpanRecorder
	// Repl, when non-nil, is polled by STATS for the node's replication
	// identity (role, term, LSNs, staleness). Nil omits the repl section.
	Repl func() ReplInfo
	// WriteBuffer, when non-nil, is the node's write-buffer metric set
	// (depth, flush counts, journal size), which STATS serves. Nil omits
	// the section (unbuffered node).
	WriteBuffer obs.Set
	// Metrics, when non-nil, receives every signal the server emits; use
	// obs.Publish to put it on the expvar surface. Nil disables.
	Metrics *Metrics
	// Logf, when non-nil, receives one line per abnormal event (handler
	// panic, accept error). Nil discards.
	Logf func(format string, args ...interface{})
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.MaxBatchOps <= 0 {
		c.MaxBatchOps = DefaultMaxBatchOps
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.RetryAfterHint == 0 {
		c.RetryAfterHint = 2 * time.Millisecond
	}
	return c
}

// Server serves the wire protocol over a core.Engine — a *core.Concurrent,
// a wbuf.Buffered in front of one, or a role-switching repl.Node. It is
// robust by construction:
//
//   - per-connection read (idle) and write deadlines, so a stalled or
//     vanished peer cannot hold a handler goroutine forever;
//   - a MaxInFlight admission gate answering BUSY instead of queueing;
//   - panic-isolated connection handlers: a panic kills one connection
//     (counted in Metrics.Panics), never the process;
//   - graceful drain: Shutdown stops accepting, lets every in-flight
//     request finish and its response flush, then returns — the caller
//     syncs and closes the store afterwards, scrub-clean.
//
// Writes from concurrent connections coalesce into the group commits
// core.Concurrent already performs: one WAL record and fsync schedule per
// committed group, however many clients contributed.
type Server struct {
	idx core.Engine
	cfg Config

	gate  chan struct{}
	idem  *idemTable
	start time.Time

	traceEvery   uint64 // sample every Nth request (0 = off)
	traceCounter atomic.Uint64

	// draining is read by every request without a lock. It is set under
	// mu, and Serve checks it under mu before adding a connection to
	// conns, so Shutdown interrupts every connection Serve admits.
	draining atomic.Bool
	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}

	wg sync.WaitGroup
}

// New builds a Server over idx.
func New(idx core.Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		idx:        idx,
		cfg:        cfg,
		gate:       make(chan struct{}, cfg.MaxInFlight),
		start:      time.Now(),
		conns:      map[net.Conn]struct{}{},
		traceEvery: sampleInterval(cfg.TraceSample),
	}
	if cfg.Idem.MaxClients >= 0 {
		s.idem = newIdemTable(cfg.Idem)
	}
	return s
}

// Serve accepts connections on ln until Shutdown (or a permanent accept
// error) and blocks until every connection handler has exited. After
// Shutdown it returns nil.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()

	var err error
	for {
		conn, aerr := ln.Accept()
		if aerr != nil {
			if !s.draining.Load() {
				err = aerr
			}
			break
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			conn.Close()
			break
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		if m := s.cfg.Metrics; m != nil {
			m.accepted.Add(1)
			m.conns.Add(1)
		}
		s.wg.Add(1)
		go s.handleConn(conn)
	}
	s.wg.Wait()
	return err
}

// Shutdown drains the server: the listener closes, blocked reads are
// interrupted, connections finish the request they are handling (and
// flush its response) and close. It blocks until every handler has exited
// or ctx is done, whichever is first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		// Interrupt reads blocked waiting for the next frame; handlers
		// re-check the draining flag on read errors and exit cleanly.
		_ = conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Hard-close what is left; handlers exit on the next I/O error.
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
	if m := s.cfg.Metrics; m != nil {
		m.conns.Add(-1)
	}
}

// connState is one connection's serving state. One goroutine owns it at a
// time: the one Serve started, or the one a request deadline's takeover
// runs on. Only the owner touches the connection, the buffers and the
// current request's fields.
type connState struct {
	s       *Server
	nc      net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	respBuf []byte
	pts     []geom.Point // result buffer the response's Points alias

	// The request deadline; timer is nil when RequestTimeout is off. word
	// packs the executing request's deadline (ns since s.start) with its
	// state in the low stateBits. Every arming writes a larger deadline,
	// so a timer firing late for an earlier request finds a word whose
	// deadline has not passed and leaves it alone.
	timer    *time.Timer
	word     atomic.Uint64
	deadline uint64 // the last deadline armed

	// The current request, as its reply or a takeover's TIMEOUT needs it.
	req   Request
	sp    *trace.Span
	start time.Time
	inLen int
}

// The state of the request a connState's word describes.
const (
	stateBits    = 2
	stateMask    = 1<<stateBits - 1
	stateRunning = 1 // executing; the timer may take the connection over
	stateDone    = 2 // finished in time to keep the connection
	stateExpired = 3 // the timer won: the connection has a new owner
)

// testHookTakeover, when a test sets it, runs on a takeover's goroutine
// as soon as its CAS has won the connection.
var testHookTakeover func()

// handleConn serves one accepted connection.
func (s *Server) handleConn(nc net.Conn) {
	c := &connState{
		s:  s,
		nc: nc,
		br: bufio.NewReaderSize(nc, 32*1024),
		bw: bufio.NewWriterSize(nc, 32*1024),
	}
	if s.cfg.RequestTimeout > 0 {
		// Armed by each execution; until the first it never fires.
		c.timer = time.AfterFunc(math.MaxInt64, c.expire)
	}
	c.serve(false)
}

// serve runs the connection's request loop on the goroutine that owns c;
// a takeover first answers the request it took over. A panic anywhere in
// the loop is caught here: the connection dies, the server does not. The
// goroutine that owns c when it returns stops the timer and closes the
// connection; one whose request was taken over leaves both alone.
func (c *connState) serve(takeover bool) {
	s := c.s
	owner := true
	defer s.wg.Done()
	defer func() {
		if owner {
			if c.timer != nil {
				c.timer.Stop()
			}
			s.dropConn(c.nc)
		}
	}()
	defer func() {
		if r := recover(); r != nil {
			if m := s.cfg.Metrics; m != nil {
				m.panics.Add(1)
			}
			s.logf("server: connection %v: handler panic: %v\n%s", c.nc.RemoteAddr(), r, debug.Stack())
		}
	}()
	owner = c.loop(takeover)
}

// loop reads a frame, executes it and writes the response, flushing when
// the input buffer drains (so pipelined clients get batched response
// writes). Responses go out in request order. It returns false when a
// takeover has the connection, which this goroutine must not touch again.
func (c *connState) loop(takeover bool) bool {
	s := c.s
	if takeover {
		if m := s.cfg.Metrics; m != nil {
			m.timeouts.Add(1)
		}
		if !c.reply(Response{Status: StatusTimeout}, false, time.Now()) {
			return true
		}
	}
	for {
		if s.cfg.IdleTimeout > 0 {
			_ = c.nc.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		// Checked after the idle deadline is set, never before: Shutdown
		// sets draining before it interrupts reads, so either this load
		// sees it or Shutdown's interrupt replaces the deadline just set.
		if s.draining.Load() {
			c.bw.Flush()
			return true
		}
		body, err := ReadFrame(c.br, s.cfg.MaxFrame)
		if err != nil {
			// Clean close, idle timeout, drain interrupt: just drop the
			// connection. A framing violation additionally counts as a
			// protocol error — the stream is unparseable from here on.
			if errors.Is(err, ErrFrameTooLarge) || errors.Is(err, ErrProto) {
				if m := s.cfg.Metrics; m != nil {
					m.protoErr.Add(1)
				}
				c.respBuf = EncodeResponse(c.respBuf[:0], 0, Response{Status: StatusErr, Msg: err.Error()})
				s.writeResponse(c.nc, c.bw, c.respBuf)
			}
			c.bw.Flush()
			return true
		}
		c.start = time.Now()
		req, derr := DecodeRequest(body, s.cfg.MaxBatchOps)
		if derr != nil {
			// A malformed payload inside a well-formed frame: report it on
			// this request, keep the connection (framing is still sound).
			if m := s.cfg.Metrics; m != nil {
				m.protoErr.Add(1)
			}
			c.respBuf = EncodeResponse(c.respBuf[:0], 0, Response{Status: StatusErr, Msg: derr.Error()})
			if !c.write() {
				return true
			}
			continue
		}
		sp := s.startSpan(req, c.start)
		c.req, c.sp, c.inLen = req, sp, len(body)
		var ok bool
		if cached, hit := s.lookupIdem(req); hit {
			// A retried write whose original completed: replay the
			// recorded response verbatim, never re-execute.
			c.respBuf = append(c.respBuf[:0], cached...)
			ok = c.reply(Response{}, true, time.Now())
		} else {
			resp, detached := c.execute(req, sp)
			if detached {
				return false
			}
			ok = c.reply(resp, false, time.Now())
		}
		if !ok {
			return true
		}
	}
}

// execute runs req on this goroutine under the request deadline. detached
// means the deadline fired first and a takeover owns the connection now.
func (c *connState) execute(req Request, sp *trace.Span) (resp Response, detached bool) {
	s := c.s
	// The execution fills a local copy of the result buffer: after a
	// takeover it is still writing it, and the new owner starts afresh.
	pts := c.pts
	if c.timer == nil {
		resp = s.executeIsolated(req, sp, &pts)
		c.pts = pts
		return resp, false
	}
	d := uint64(c.start.Sub(s.start) + s.cfg.RequestTimeout)
	if d <= c.deadline {
		d = c.deadline + 1
	}
	c.deadline = d
	w := d<<stateBits | stateRunning
	c.word.Store(w)
	c.timer.Reset(s.cfg.RequestTimeout)
	resp = s.executeIsolated(req, sp, &pts)
	if !c.word.CompareAndSwap(w, d<<stateBits|stateDone) {
		return resp, true
	}
	c.timer.Stop()
	c.pts = pts
	if uint64(time.Since(s.start)) >= d {
		// Finished past the deadline, before the timer could take over:
		// answered as if it had.
		if m := s.cfg.Metrics; m != nil {
			m.timeouts.Add(1)
		}
		return Response{Status: StatusTimeout}, false
	}
	return resp, false
}

// expire is the request timer's callback, on a goroutine of its own. If
// the request the word describes is still running past its deadline, this
// goroutine takes the connection over: it answers that request TIMEOUT and
// serves the connection from then on, while the executing goroutine
// finishes its request detached.
func (c *connState) expire() {
	s := c.s
	w := c.word.Load()
	if w&stateMask != stateRunning || uint64(time.Since(s.start)) < w>>stateBits {
		return
	}
	// Counted before the CAS: once the CAS wins, the executing goroutine
	// may finish and exit at any moment, and Shutdown must not see zero
	// handlers while this one is about to serve the connection.
	s.wg.Add(1)
	if !c.word.CompareAndSwap(w, w&^stateMask|stateExpired) {
		s.wg.Done()
		return
	}
	if h := testHookTakeover; h != nil {
		h()
	}
	c.pts = nil
	c.serve(true)
}

// reply answers the current request: it encodes resp (a replay's bytes
// are already in respBuf), writes the frame, then closes the request's
// span and records its metrics. False means the connection is dead.
func (c *connState) reply(resp Response, replayed bool, replyStart time.Time) bool {
	s := c.s
	if !replayed {
		c.respBuf = EncodeResponse(c.respBuf[:0], c.req.Op, resp)
	}
	if !c.write() {
		return false
	}
	if sp := c.sp; sp != nil {
		// reply_flush covers encode + frame write (+ the flush when this
		// request triggered one); the span's wall clock stops here, so it
		// is the request's server-side wire latency.
		sp.AddPhase(trace.PhaseReplyFlush, time.Since(replyStart))
		s.completeSpan(sp, c.req, resp)
	}
	if m := s.cfg.Metrics; m != nil {
		m.observe(c.req.Op, time.Since(c.start), c.inLen, len(c.respBuf), !replayed && resp.Status == StatusErr)
		if !replayed && resp.Status == StatusBusy {
			m.busy.Add(1)
		}
	}
	return true
}

// write frames respBuf under the write deadline and flushes once the
// pipeline's input is drained: pipelined bursts get one syscall per burst,
// single requests flush immediately. False means the connection is dead.
func (c *connState) write() bool {
	if !c.s.writeResponse(c.nc, c.bw, c.respBuf) {
		return false
	}
	if c.br.Buffered() == 0 {
		if err := c.bw.Flush(); err != nil {
			c.s.noteWriteErr(err)
			return false
		}
	}
	return true
}

// lookupIdem consults the dedup window for a retried IDEM write.
func (s *Server) lookupIdem(req Request) ([]byte, bool) {
	if req.Idem == nil {
		return nil, false
	}
	cached, ok := s.idem.lookup(*req.Idem)
	if m := s.cfg.Metrics; m != nil {
		if ok {
			m.idemReplay.Add(1)
		} else {
			m.idemExec.Add(1)
		}
	}
	return cached, ok
}

// completeIdem records the response of an executed IDEM write so a retry
// replays it instead of re-executing. BUSY, DISKFULL and NOTPRIMARY all
// mean the write did not run (the retry must execute it — possibly
// elsewhere, for NOTPRIMARY). TIMEOUT means the outcome is unknown: a
// semi-sync write whose replica acks stalled is durable here but
// unconfirmed, and a retry must re-execute to learn it (the re-executed
// write answers DUPLICATE/FOUND against the applied state), not replay
// TIMEOUT forever.
func (s *Server) completeIdem(req Request, resp Response) {
	if req.Idem == nil || resp.Status == StatusBusy || resp.Status == StatusTimeout ||
		resp.Status == StatusDiskFull || resp.Status == StatusNotPrimary {
		return
	}
	s.idem.store(*req.Idem, EncodeResponse(nil, req.Op, resp))
}

// executeIsolated runs one request, converting a handler panic into an
// error response so it costs the request, not the connection or the
// server.
func (s *Server) executeIsolated(req Request, sp *trace.Span, pts *[]geom.Point) (resp Response) {
	defer func() {
		if r := recover(); r != nil {
			if m := s.cfg.Metrics; m != nil {
				m.panics.Add(1)
			}
			s.logf("server: %s handler panic: %v\n%s", OpName(req.Op), r, debug.Stack())
			resp = Response{Status: StatusErr, Msg: "server: internal error"}
		}
	}()
	// A detached execution (deadline already expired) keeps recording
	// into sp — every span counter is atomic, so the record the server
	// already emitted was merely a consistent partial view.
	resp = s.handle(req, sp, pts)
	s.completeIdem(req, resp)
	return resp
}

// noteWriteErr classifies a response-write failure: a deadline miss means
// the peer is too slow to accept responses and the connection is being
// evicted to protect the handler budget.
func (s *Server) noteWriteErr(err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		if m := s.cfg.Metrics; m != nil {
			m.evicted.Add(1)
		}
		s.logf("server: evicting slow client: %v", err)
	}
}

// writeResponse frames and writes one response body under the write
// deadline; false means the connection is dead.
func (s *Server) writeResponse(conn net.Conn, bw *bufio.Writer, body []byte) bool {
	if s.cfg.WriteTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}
	if err := WriteFrame(bw, body); err != nil {
		s.noteWriteErr(err)
		return false
	}
	return true
}

// admit tries to take an in-flight token without blocking.
func (s *Server) admit() bool {
	select {
	case s.gate <- struct{}{}:
		if m := s.cfg.Metrics; m != nil {
			m.inflight.Add(1)
		}
		return true
	default:
		return false
	}
}

func (s *Server) release() {
	<-s.gate
	if m := s.cfg.Metrics; m != nil {
		m.inflight.Add(-1)
	}
}

// maxKeptResult bounds, in points (16 B each), the result buffer a
// connection keeps between requests: a larger result is garbage once its
// reply is encoded, as every result was before buffers were reused.
const maxKeptResult = 1 << 16

// Covers reports whether the replication position (term, lsn) is at or
// past (minTerm, minLSN) in the barrier order. LSNs are comparable only
// within one term, so the order is lexicographic: a later term covers
// every position of an earlier one (promotion with synchronous acks
// preserves every acknowledged older-term write), within a term the LSN
// must have been reached, and an earlier term never covers — its
// numerically-high LSNs may name a divergent pre-promotion suffix. The
// server's read barrier, the resilient client's session barrier and the
// router's per-shard vector all order positions by it.
func Covers(term, lsn, minTerm, minLSN uint64) bool {
	return term > minTerm || (term == minTerm && lsn >= minLSN)
}

// handle executes one admitted request against the index. A non-nil sp
// records the request's phases: admission here, the index phases inside
// the engine. Query results are collected in *pts, the caller's reusable
// buffer (kept up to maxKeptResult points), which the response's Points
// alias.
func (s *Server) handle(req Request, sp *trace.Span, pts *[]geom.Point) Response {
	switch req.Op {
	case OpPing:
		return Response{Status: StatusOK, Data: req.Data}
	case OpStats:
		if sp == nil {
			return s.handleStats()
		}
		t0 := time.Now()
		resp := s.handleStats()
		sp.AddPhase(trace.PhaseExecute, time.Since(t0))
		return resp
	case OpTopology:
		// Only routers own a shard map; a single node is not a cluster.
		return Response{Status: StatusErr, Msg: "server: no topology (standalone node, not a router)"}
	}
	// Read barrier: a BARRIER envelope asks "answer only from a timeline
	// at least as new as (MinTerm, MinLSN)" in the order Covers defines.
	// Checked before admission — a stale replica answers from two atomic
	// loads, without spending a gate token the primary-bound retry will
	// need elsewhere. A current primary is never stale: its term is the
	// newest and its LSN ≥ every LSN it ever acked.
	if req.MinLSN > 0 || req.MinTerm > 0 {
		term, lsn := s.idx.Position()
		if !Covers(term, lsn, req.MinTerm, req.MinLSN) {
			if m := s.cfg.Metrics; m != nil {
				m.stale.Add(1)
			}
			return Response{Status: StatusStale, LSN: lsn, Term: term}
		}
	}
	var admitStart time.Time
	if sp != nil {
		admitStart = time.Now()
	}
	admitted := s.admit()
	if sp != nil {
		sp.AddPhase(trace.PhaseAdmission, time.Since(admitStart))
	}
	if !admitted {
		resp := Response{Status: StatusBusy}
		if s.cfg.RetryAfterHint > 0 {
			ms := s.cfg.RetryAfterHint.Milliseconds()
			if ms < 1 {
				ms = 1
			}
			resp.RetryAfterMs = uint32(ms)
		}
		return resp
	}
	defer s.release()

	switch req.Op {
	case OpInsert:
		res, ack := s.write([]core.BatchOp{{P: req.P}}, sp)
		if err := res[0].Err; errors.Is(err, core.ErrDuplicate) {
			ack.Duplicate = true
		} else if err != nil {
			return s.errResponse(err)
		}
		return ack
	case OpDelete:
		res, ack := s.write([]core.BatchOp{{Delete: true, P: req.P}}, sp)
		if err := res[0].Err; err != nil {
			return s.errResponse(err)
		}
		ack.Found = res[0].Found
		return ack
	case OpQuery3, OpQuery4:
		res, err := s.idx.Report((*pts)[:0], req.Rect, sp)
		if err != nil {
			return s.errResponse(err)
		}
		if cap(res) <= maxKeptResult {
			*pts = res
		}
		return Response{Status: StatusOK, Points: res}
	case OpBatch:
		return s.handleBatch(req.Batch, sp)
	default:
		return Response{Status: StatusErr, Msg: fmt.Sprintf("server: unhandled opcode 0x%02x", req.Op)}
	}
}

// write is the one write call behind INSERT, DELETE and BATCH: ops go to
// the engine as one run, and the acknowledgement is stamped with the
// position read after they committed. That position may run ahead of the
// one the run committed at (another writer's commit, or a promotion, in
// between); that only tightens the client's barrier, and synchronous
// replication guarantees every committed write is already part of any
// newer term's timeline.
func (s *Server) write(ops []core.BatchOp, sp *trace.Span) ([]core.BatchResult, Response) {
	res := s.idx.Apply(ops, sp)
	term, lsn := s.idx.Position()
	return res, Response{Status: StatusOK, LSN: lsn, Term: term}
}

// handleBatch submits the whole batch as one run (as few group commits as
// the engine's batch cap allows) and folds the per-operation outcomes into
// result codes. A non-benign failure fails the whole request.
func (s *Server) handleBatch(entries []BatchEntry, sp *trace.Span) Response {
	if len(entries) == 0 {
		return Response{Status: StatusOK}
	}
	ops := make([]core.BatchOp, len(entries))
	for i, e := range entries {
		ops[i] = core.BatchOp{Delete: e.Kind == BatchDelete, P: e.P}
	}
	results, ack := s.write(ops, sp)
	codes := make([]byte, len(results))
	for i, r := range results {
		switch {
		case r.Err == nil && (!ops[i].Delete || r.Found):
			codes[i] = BatchOK
		case r.Err == nil:
			codes[i] = BatchNotFound
		case errors.Is(r.Err, core.ErrDuplicate):
			codes[i] = BatchDup
		default:
			return s.errResponse(r.Err)
		}
	}
	ack.Results = codes
	return ack
}

// StatsSnapshot is the JSON payload of a STATS response: the index's
// serving state plus, when the server has a Metrics, its full snapshot.
type StatsSnapshot struct {
	// UptimeS is the seconds since the server was constructed.
	UptimeS float64 `json:"uptime_s"`
	// Epoch is the index's current committed epoch.
	Epoch uint64 `json:"epoch"`
	// Len is the number of stored points.
	Len int `json:"len"`
	// InFlight is the number of admission-gate tokens held at the instant
	// of the snapshot — requests admitted but not yet answered.
	InFlight int `json:"in_flight"`
	// MaxInFlight is the admission-gate capacity.
	MaxInFlight int `json:"max_in_flight"`
	// IdemClients and IdemEntries size the idempotency dedup state:
	// tracked client sessions and remembered write outcomes.
	IdemClients int `json:"idem_clients"`
	IdemEntries int `json:"idem_entries"`
	// TraceSampleRate is the server's effective span-sampling rate
	// (0..1): 1 with a slow-query log armed, 1/interval with counter
	// sampling, 0 when only client-stamped envelopes are traced.
	TraceSampleRate float64 `json:"trace_sample_rate"`
	// AppliedLSN is the node's durable commit position — the value
	// barrier reads compare against. 0 on a non-durable (memory) stack.
	AppliedLSN uint64 `json:"applied_lsn"`
	// Repl is the node's replication identity (nil when the server was
	// built without a Repl callback, i.e. a standalone node).
	Repl *ReplInfo `json:"repl,omitempty"`
	// WriteBuffer is the write buffer's metric set rendered by obs.JSON
	// (absent on an unbuffered node).
	WriteBuffer json.RawMessage `json:"write_buffer,omitempty"`
	// Metrics is the server's metric set rendered by obs.JSON (absent
	// without a Metrics). Its phase_hist histograms carry p50/p99, so
	// rsload can print a phase breakdown from STATS alone.
	Metrics json.RawMessage `json:"metrics,omitempty"`
}

func (s *Server) handleStats() Response {
	n, err := s.idx.Len()
	if err != nil {
		return s.errResponse(err)
	}
	_, lsn := s.idx.Position()
	snap := StatsSnapshot{
		UptimeS:         time.Since(s.start).Seconds(),
		Epoch:           s.idx.Epoch(),
		Len:             n,
		InFlight:        len(s.gate),
		MaxInFlight:     s.cfg.MaxInFlight,
		TraceSampleRate: s.traceRate(),
		AppliedLSN:      lsn,
	}
	snap.IdemClients, snap.IdemEntries = s.idem.stats()
	if s.cfg.Repl != nil {
		ri := s.cfg.Repl()
		snap.Repl = &ri
	}
	if s.cfg.WriteBuffer != nil {
		snap.WriteBuffer = obs.JSON(s.cfg.WriteBuffer)
	}
	if m := s.cfg.Metrics; m != nil {
		snap.Metrics = obs.JSON(m)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return s.errResponse(err)
	}
	return Response{Status: StatusOK, Data: data}
}

// errResponse maps an execution error to its wire status. Three errors
// are flow control, not failures:
//
//   - core.ErrNotPrimary: this node is a replica — the client must
//     redirect the write, so the response carries no hint and is never
//     cached in the dedup window.
//   - eio.ErrNoSpace: the disk is full. The store is undamaged and reads
//     keep working; the write is retryable (an operator freeing space
//     un-wedges it), so it gets the BUSY-style retry hint.
//   - core.ErrReplicationStall: the commit gate timed out waiting for
//     replica acks. The write's outcome is UNKNOWN to the client (it is
//     durable locally but unacked downstream) — TIMEOUT is the one status
//     with exactly those retry semantics.
func (s *Server) errResponse(err error) Response {
	switch {
	case errors.Is(err, core.ErrNotPrimary):
		if m := s.cfg.Metrics; m != nil {
			m.notPrimary.Add(1)
		}
		return Response{Status: StatusNotPrimary}
	case errors.Is(err, eio.ErrNoSpace):
		if m := s.cfg.Metrics; m != nil {
			m.diskFull.Add(1)
		}
		resp := Response{Status: StatusDiskFull}
		if s.cfg.RetryAfterHint > 0 {
			ms := s.cfg.RetryAfterHint.Milliseconds()
			if ms < 1 {
				ms = 1
			}
			resp.RetryAfterMs = uint32(ms)
		}
		return resp
	case errors.Is(err, core.ErrReplicationStall):
		if m := s.cfg.Metrics; m != nil {
			m.timeouts.Add(1)
		}
		return Response{Status: StatusTimeout}
	}
	return Response{Status: StatusErr, Msg: err.Error()}
}
