package server

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// RetryPolicy bounds the reconnect and retry behavior of a
// ResilientClient: bounded exponential backoff with equal jitter.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per operation — and per
	// reconnect episode — including the first. Zero selects 10.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles on every
	// subsequent one. Zero selects 10ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Zero selects 1s.
	MaxDelay time.Duration
	// Sleep replaces time.Sleep, letting tests run the full backoff
	// schedule without wall-clock cost. Nil selects time.Sleep.
	Sleep func(time.Duration)
}

func (p RetryPolicy) filled() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 10
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// ResilientOptions tunes a ResilientClient.
type ResilientOptions struct {
	// Client is passed to every Dial.
	Client ClientOptions
	// Retry bounds reconnects and per-operation retries.
	Retry RetryPolicy
	// Seed seeds the backoff-jitter RNG (zero draws from crypto/rand).
	// It deliberately does NOT determine the idempotency client id:
	// dedup windows are keyed by client id, so a repeated seed across
	// runs against one server must not replay another run's responses.
	Seed int64
	// ReadAddrs lists replica addresses. When non-empty, queries fan out
	// across them round-robin, stamped with a BARRIER envelope at the
	// session's last acked write LSN — read-your-writes holds even though
	// the replica applies asynchronously. A STALE answer, a connection
	// failure, or an undialable replica falls the read back to the
	// primary; replicas are re-tried on later reads.
	ReadAddrs []string
	// FailoverAddrs lists candidate primary addresses beyond the one the
	// client was built with. On NOTPRIMARY (the node was demoted, or a
	// replica answered a write) or on repeated dial failure the client
	// rotates to the next candidate, so it follows a promotion without
	// outside help.
	FailoverAddrs []string
}

// RecvResult is one delivered response: the request it answers, the tag
// its Send supplied, and whether the request was ever re-sent after an
// ambiguous failure (in which case Duplicate/Found/Results may reflect
// the first execution rather than the retry).
type RecvResult struct {
	Req     Request
	Tag     interface{}
	Resp    Response
	Retried bool
}

// ResilientStats counts a ResilientClient's recovery work.
type ResilientStats struct {
	Reconnects     uint64 `json:"reconnects"`
	DialFailures   uint64 `json:"dial_failures"`
	Resent         uint64 `json:"resent"`
	BusyRetries    uint64 `json:"busy_retries"`
	TimeoutRetries uint64 `json:"timeout_retries"`
	// ReplicaReads counts queries issued to a replica connection;
	// StaleFallbacks those answered STALE and re-run on the primary;
	// ReplicaFallbacks those re-routed to the primary after a replica
	// connection failure.
	ReplicaReads     uint64 `json:"replica_reads,omitempty"`
	StaleFallbacks   uint64 `json:"stale_fallbacks,omitempty"`
	ReplicaFallbacks uint64 `json:"replica_fallbacks,omitempty"`
	// Failovers counts primary-candidate rotations after NOTPRIMARY.
	Failovers uint64 `json:"failovers,omitempty"`
	// DiskFullRetries counts DISKFULL responses absorbed and retried.
	DiskFullRetries uint64 `json:"disk_full_retries,omitempty"`
}

// pendingReq is one sent-but-unanswered request, mirrored in order with
// the pipeline of the connection it rides on: route is routePrimary or
// the index of the replica connection carrying it. The entries sharing a
// route are, in pending order, exactly that connection's FIFO.
type pendingReq struct {
	req      Request
	tag      interface{}
	attempts int
	retried  bool
	// sent records whether the request has ever been put on (or may have
	// reached) its connection's wire. A reconnect only marks previously
	// sent entries retried: a deferred first send (primary down at Send
	// time) is a first transmission, not an ambiguous re-send.
	sent  bool
	route int
}

// routePrimary routes a pendingReq over the primary connection.
const routePrimary = -1

// ResilientClient is a Client that survives the network: it reconnects
// with bounded exponential backoff plus jitter, transparently re-sends
// every unanswered request of its pipeline after a reconnect, stamps
// writes with idempotency IDs so those re-sends are execute-once (the
// server dedup window replays the original response), and retries BUSY
// responses after the server's retry-after hint. Like Client it is for
// ONE goroutine.
//
// Responses are delivered per request: a BUSY or TIMEOUT retry re-enqueues
// the request at the tail of the pipeline, so responses are NOT globally
// FIFO — Recv identifies each response by the request and tag it answers.
// Per-request ordering relative to the server stays consistent: effects
// apply in the order responses are delivered.
type ResilientClient struct {
	primaries []string // candidate primary addrs; pi is the current one
	pi        int
	opts      ResilientOptions
	rng       *rand.Rand

	cl       *Client // nil while disconnected
	clientID uint64
	seq      uint64
	pending  []pendingReq

	// replicas holds one lazily dialed connection per ReadAddrs entry
	// (nil while down); rr is the round-robin cursor. (lastTerm, lastLSN)
	// is the lexicographic max position any write ack carried — the
	// session's read barrier. The pair matters: LSNs are comparable only
	// within one term's timeline, so after a failover the term is what
	// keeps a divergent ex-primary from satisfying the barrier.
	replicas []*Client
	rr       int
	lastTerm uint64
	lastLSN  uint64

	stats ResilientStats
}

// NewResilient builds a client for addr. No connection is made until the
// first operation, so construction succeeds while the server is down.
func NewResilient(addr string, opts ResilientOptions) *ResilientClient {
	opts.Client = opts.Client.withDefaults()
	opts.Retry = opts.Retry.filled()
	seed := opts.Seed
	if seed == 0 {
		var b [8]byte
		_, _ = crand.Read(b[:])
		seed = int64(binary.LittleEndian.Uint64(b[:]))
	}
	rng := rand.New(rand.NewSource(seed))
	var id uint64
	for id == 0 {
		var b [8]byte
		if _, err := crand.Read(b[:]); err != nil {
			id = rng.Uint64() // no entropy source; better than nothing
			break
		}
		id = binary.LittleEndian.Uint64(b[:])
	}
	return &ResilientClient{
		primaries: append([]string{addr}, opts.FailoverAddrs...),
		opts:      opts,
		rng:       rng,
		clientID:  id,
		replicas:  make([]*Client, len(opts.ReadAddrs)),
	}
}

// Stats returns the recovery counters so far.
func (c *ResilientClient) Stats() ResilientStats { return c.stats }

// Pending returns the number of sent-but-unanswered requests.
func (c *ResilientClient) Pending() int { return len(c.pending) }

// Primary returns the primary address the client currently targets (it
// moves along the failover candidates on NOTPRIMARY).
func (c *ResilientClient) Primary() string { return c.primaries[c.pi] }

// LastLSN returns the LSN half of the session's read barrier: the
// highest position carried by a write ack this client has received.
func (c *ResilientClient) LastLSN() uint64 { return c.lastLSN }

// LastTerm returns the term half of the session's read barrier.
func (c *ResilientClient) LastTerm() uint64 { return c.lastTerm }

// barrierAfter reports whether the session barrier is past (term, lsn) in
// the barrier order — i.e. stamping it on a request would raise it.
func (c *ResilientClient) barrierAfter(term, lsn uint64) bool {
	return !Covers(term, lsn, c.lastTerm, c.lastLSN)
}

// rotatePrimary advances to the next primary candidate.
func (c *ResilientClient) rotatePrimary() {
	if len(c.primaries) > 1 {
		c.pi = (c.pi + 1) % len(c.primaries)
	}
}

// Close drops every connection and forgets the pipeline.
func (c *ResilientClient) Close() error {
	c.pending = nil
	for i, rcl := range c.replicas {
		if rcl != nil {
			rcl.Close()
			c.replicas[i] = nil
		}
	}
	if c.cl == nil {
		return nil
	}
	err := c.cl.Close()
	c.cl = nil
	return err
}

// backoff sleeps the jittered exponential delay for the given retry
// (1-based): d = min(base·2^(n-1), max), slept in [d/2, d).
func (c *ResilientClient) backoff(n int) {
	d := c.opts.Retry.BaseDelay << uint(n-1)
	if d <= 0 || d > c.opts.Retry.MaxDelay {
		d = c.opts.Retry.MaxDelay
	}
	c.opts.Retry.Sleep(d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1)))
}

// dropConn closes the broken connection; pending stays queued for the
// next reconnect.
func (c *ResilientClient) dropConn() {
	if c.cl != nil {
		c.cl.Close()
		c.cl = nil
	}
}

// reconnect dials (under the retry policy) and re-sends every pending
// primary-routed request in pipeline order. Re-sent requests are marked
// retried: their original may have executed before the connection died.
// Each dial failure rotates to the next primary candidate, so exhausting
// the budget walks the whole failover ring.
func (c *ResilientClient) reconnect() error {
	var lastErr error
	for attempt := 1; attempt <= c.opts.Retry.MaxAttempts; attempt++ {
		if attempt > 1 {
			c.backoff(attempt - 1)
		}
		cl, err := Dial(c.Primary(), c.opts.Client)
		if err != nil {
			c.stats.DialFailures++
			c.rotatePrimary()
			lastErr = err
			continue
		}
		if err := c.resend(cl); err != nil {
			c.stats.DialFailures++
			cl.Close()
			lastErr = err
			continue
		}
		c.cl = cl
		c.stats.Reconnects++
		return nil
	}
	return fmt.Errorf("server: resilient: reconnect to %s failed after %d attempts: %w",
		c.Primary(), c.opts.Retry.MaxAttempts, lastErr)
}

func (c *ResilientClient) resend(cl *Client) error {
	for i := range c.pending {
		if c.pending[i].route != routePrimary {
			continue
		}
		if err := cl.Send(c.pending[i].req); err != nil {
			return err
		}
		if c.pending[i].sent {
			c.pending[i].retried = true
			c.stats.Resent++
		}
		c.pending[i].sent = true
	}
	return cl.Flush()
}

// replica returns the i-th replica connection, dialing it if down. nil
// means the replica is unreachable right now (one dial attempt per read;
// the primary is the always-available fallback, so no backoff here).
func (c *ResilientClient) replica(i int) *Client {
	if c.replicas[i] != nil {
		return c.replicas[i]
	}
	cl, err := Dial(c.opts.ReadAddrs[i], c.opts.Client)
	if err != nil {
		c.stats.DialFailures++
		return nil
	}
	c.replicas[i] = cl
	return cl
}

// routeRead picks a connection for a query: the next live replica in
// round-robin order, or the primary when there are no replicas (or none
// is reachable). Every barrierable read is stamped with the session's
// read barrier, whatever the route: a true primary trivially satisfies
// it (acks are issued after the epoch publish, so its applied position
// covers every LSN this session has seen), while a replica the failover
// ring mistook for the primary answers STALE instead of old data.
func (c *ResilientClient) routeRead(r *Request) int {
	if !barrierable(r.Op) || r.MinLSN != 0 || r.MinTerm != 0 {
		return routePrimary
	}
	r.MinTerm, r.MinLSN = c.lastTerm, c.lastLSN
	for k := 0; k < len(c.replicas); k++ {
		i := c.rr % len(c.replicas)
		c.rr++
		if c.replica(i) != nil {
			return i
		}
	}
	return routePrimary
}

// dropReplica closes a failed replica connection and re-routes every
// pending request riding on it to the primary: each moves to the tail of
// the logical pipeline (Recv identifies responses per request, so
// reordering is within contract) with its barrier kept — a true primary
// satisfies it for free, and during a failover window it is the only
// thing standing between the read and a stale ex-replica.
func (c *ResilientClient) dropReplica(i int) {
	if cl := c.replicas[i]; cl != nil {
		cl.Close()
		c.replicas[i] = nil
	}
	var keep, moved []pendingReq
	for _, p := range c.pending {
		if p.route == i {
			p.route = routePrimary
			moved = append(moved, p)
		} else {
			keep = append(keep, p)
		}
	}
	c.pending = append(keep, moved...)
	tail := c.pending[len(c.pending)-len(moved):]
	for i := range tail {
		c.stats.ReplicaFallbacks++
		tail[i].sent = false // first transmission on the primary route
		if c.cl == nil {
			continue // reconnect's resend will carry it
		}
		if err := c.cl.Send(tail[i].req); err != nil {
			c.dropConn()
			continue
		}
		tail[i].sent = true
	}
}

// ensure returns a live connection, reconnecting if needed.
func (c *ResilientClient) ensure() error {
	if c.cl != nil {
		return nil
	}
	return c.reconnect()
}

// Send stamps writes with an idempotency ID, routes queries to a replica
// when a read pool is configured, queues the request, and puts it on the
// wire if its connection is up (a dead primary defers the send to the
// next Recv's reconnect). tag is handed back with the response.
func (c *ResilientClient) Send(r Request, tag interface{}) error {
	if r.Idem == nil && idempotent(r.Op) {
		c.seq++
		r.Idem = &IdemID{Client: c.clientID, Seq: c.seq}
	}
	route := c.routeRead(&r)
	c.pending = append(c.pending, pendingReq{req: r, tag: tag, route: route})
	if route != routePrimary {
		c.stats.ReplicaReads++
		if err := c.replicas[route].Send(r); err != nil {
			if errors.Is(err, ErrProto) {
				c.pending = c.pending[:len(c.pending)-1]
				return err
			}
			c.dropReplica(route)
			return nil
		}
		c.pending[len(c.pending)-1].sent = true
		return nil
	}
	if c.cl == nil {
		return nil
	}
	if err := c.cl.Send(r); err != nil {
		if errors.Is(err, ErrProto) {
			// Encoding rejected the request itself — no retry can help.
			c.pending = c.pending[:len(c.pending)-1]
			return err
		}
		c.dropConn()
	}
	// A transport error may have flushed bytes before failing, so the
	// request counts as sent (ambiguous) either way once attempted.
	c.pending[len(c.pending)-1].sent = true
	return nil
}

// Recv delivers the next response, absorbing transport failures
// (reconnect + re-send), BUSY and DISKFULL (hinted backoff + retry),
// TIMEOUT (idempotent re-send), STALE (replica behind the read barrier —
// re-run on the primary) and NOTPRIMARY (rotate to the next failover
// candidate) up to the retry budget. An error means the budget is
// exhausted or the pipeline is empty.
func (c *ResilientClient) Recv() (RecvResult, error) {
	if len(c.pending) == 0 {
		return RecvResult{}, fmt.Errorf("%w: Recv with no pending request", ErrProto)
	}
	episodes := 0
	for {
		// The logical head decides which connection to read: each route's
		// entries mirror that connection's FIFO, so the head's response is
		// the next frame on its own connection.
		if c.pending[0].route != routePrimary {
			route := c.pending[0].route
			resp, err := c.replicas[route].Recv()
			if err != nil {
				// The replica died: every read riding on it (head included)
				// falls back to the primary, and the loop re-examines the
				// new head. No episode charge — the primary is intact.
				c.dropReplica(route)
				continue
			}
			head := c.pending[0]
			c.pending = c.pending[:copy(c.pending, c.pending[1:])]
			res, retry := c.dispose(head, resp)
			if !retry {
				return res, nil
			}
			continue
		}
		if err := c.ensure(); err != nil {
			return RecvResult{}, err
		}
		resp, err := c.cl.Recv()
		if err != nil {
			// Transport or framing failure: the connection is unusable.
			// Reconnect (bounded) and re-send the whole pipeline. The
			// backoff here paces the case where dialing succeeds but the
			// connection dies immediately (e.g. a proxy whose upstream is
			// down) — without it the episode budget burns in milliseconds.
			c.dropConn()
			episodes++
			if episodes >= c.opts.Retry.MaxAttempts {
				return RecvResult{}, fmt.Errorf("server: resilient: giving up after %d broken connections: %w", episodes, err)
			}
			c.backoff(episodes)
			continue
		}
		head := c.pending[0]
		c.pending = c.pending[:copy(c.pending, c.pending[1:])]
		res, retry := c.dispose(head, resp)
		if !retry {
			return res, nil
		}
	}
}

// dispose folds one response into the retry machinery: either it is
// deliverable (retry false) or the request went back into the pipeline
// (retry true). head has already been popped.
func (c *ResilientClient) dispose(head pendingReq, resp Response) (RecvResult, bool) {
	deliver := func() (RecvResult, bool) {
		if resp.Status == StatusOK && (resp.Term != 0 || resp.LSN != 0) &&
			!c.barrierAfter(resp.Term, resp.LSN) {
			// A write ack carries the server's (term, durable LSN):
			// advance the session barrier — lexicographically, so a
			// straggler ack from a pre-failover timeline never lowers it —
			// and later replica reads see this write.
			c.lastTerm, c.lastLSN = resp.Term, resp.LSN
		}
		return RecvResult{Req: head.req, Tag: head.tag, Resp: resp, Retried: head.retried}, false
	}
	switch resp.Status {
	case StatusBusy, StatusDiskFull:
		if head.attempts+1 >= c.opts.Retry.MaxAttempts {
			return deliver()
		}
		// The server shed the request without executing it (admission gate
		// or a full disk): honor the hint (or backoff), then re-enqueue at
		// the pipeline tail — on the primary, whatever route it came in on.
		if resp.Status == StatusDiskFull {
			c.stats.DiskFullRetries++
		} else {
			c.stats.BusyRetries++
		}
		head.attempts++
		if resp.RetryAfterMs > 0 {
			c.opts.Retry.Sleep(time.Duration(resp.RetryAfterMs) * time.Millisecond)
		} else {
			c.backoff(head.attempts)
		}
		c.requeue(head)
	case StatusTimeout:
		if head.attempts+1 >= c.opts.Retry.MaxAttempts {
			return deliver()
		}
		// Outcome unknown: safe to re-send because writes carry an
		// idempotency ID (the server replays or converges) and reads
		// are naturally idempotent.
		c.stats.TimeoutRetries++
		head.attempts++
		head.retried = true
		c.requeue(head)
	case StatusStale:
		if head.attempts+1 >= c.opts.Retry.MaxAttempts {
			return deliver()
		}
		head.attempts++
		if head.route == routePrimary {
			// A current primary never answers STALE — its term is the
			// newest this session can have seen and its applied position
			// covers every LSN it has ever acked. This node is a replica
			// (or a deposed ex-primary on an older term) the failover ring
			// landed on mid-promotion: rotate exactly as NOTPRIMARY would
			// (reads alone never elicit NOTPRIMARY, so the barrier is what
			// surfaces the misdirected route).
			c.stats.Failovers++
			c.rotatePrimary()
			c.dropConn()
			c.backoff(head.attempts)
		} else {
			// The replica has not applied up to the read barrier: re-run
			// on the primary, which satisfies any barrier this session
			// holds.
			c.stats.StaleFallbacks++
		}
		c.requeue(head)
	case StatusNotPrimary:
		if head.attempts+1 >= c.opts.Retry.MaxAttempts {
			return deliver()
		}
		// The node was demoted (or never was the primary): rotate to the
		// next candidate and re-send there. The write did not execute, so
		// this is not ambiguous. The backoff paces a promotion in flight.
		c.stats.Failovers++
		head.attempts++
		c.rotatePrimary()
		c.dropConn()
		c.backoff(head.attempts)
		c.requeue(head)
	default:
		return deliver()
	}
	return RecvResult{}, true
}

// requeue puts a retried request back at the pipeline tail, routed to
// the primary, and on the wire. A barrierable read keeps its read
// barrier — raised to the session's current position in case an ack
// advanced it since the original send — so that a mis-aimed primary
// route (a replica mid-failover) answers STALE rather than stale data.
func (c *ResilientClient) requeue(p pendingReq) {
	p.route = routePrimary
	p.sent = false
	if barrierable(p.req.Op) && c.barrierAfter(p.req.MinTerm, p.req.MinLSN) {
		p.req.MinTerm, p.req.MinLSN = c.lastTerm, c.lastLSN
	}
	c.pending = append(c.pending, p)
	if c.cl == nil {
		return
	}
	if err := c.cl.Send(p.req); err != nil {
		c.dropConn()
	}
	c.pending[len(c.pending)-1].sent = true
}

// Do sends one request and waits for its response — the non-pipelined
// convenience path. It must not be interleaved with pipelined Sends.
func (c *ResilientClient) Do(r Request) (Response, error) {
	if err := c.Send(r, nil); err != nil {
		return Response{}, err
	}
	res, err := c.Recv()
	if err != nil {
		return Response{}, err
	}
	return res.Resp, nil
}

// Ping round-trips data through the retry layer and verifies the echo.
func (c *ResilientClient) Ping(data []byte) error {
	r, err := c.Do(Request{Op: OpPing, Data: data})
	if err != nil {
		return err
	}
	if err := statusErr(r); err != nil {
		return err
	}
	if string(r.Data) != string(data) {
		return fmt.Errorf("%w: ping echo mismatch", ErrProto)
	}
	return nil
}

// Stats fetches the server's StatsSnapshot as raw JSON, with retries.
func (c *ResilientClient) ServerStats() ([]byte, error) {
	r, err := c.Do(Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	return r.Data, statusErr(r)
}
