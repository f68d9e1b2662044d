// Package server is the network serving subsystem: a TCP wire protocol
// over core.Concurrent, so the paper's structures — and their
// O(log_B N + t) query bounds — are reachable end-to-end over a socket
// instead of only in-process.
//
// The wire format is deliberately minimal: length-prefixed binary frames,
// one request frame in, one response frame out, responses in request
// order per connection. Clients may pipeline freely (send many frames
// before reading responses); the server handles frames sequentially per
// connection and coalesces writes from concurrent connections into the
// group commits core.Concurrent already performs, so pipelined writers on
// many connections share WAL records and fsyncs.
//
//	frame    := len(u32 BE, body length) body
//	request  := opcode(u8) payload
//	response := status(u8) payload
//
// Requests:
//
//	PING   0x01  payload echoed back verbatim
//	INSERT 0x02  point (16 B: x i64 BE, y i64 BE)
//	DELETE 0x03  point (16 B)
//	QUERY3 0x04  xlo, xhi, ylo (24 B) — 3-sided, y unbounded above
//	QUERY4 0x05  xlo, xhi, ylo, yhi (32 B)
//	BATCH  0x06  count(u32) then count × (kind u8: 0 insert / 1 delete, point 16 B)
//	STATS  0x07  empty; response payload is a JSON StatsSnapshot
//	IDEM   0x08  client(u64) seq(u64) then one INSERT/DELETE/BATCH request
//	             body — an idempotency envelope (see below)
//	TRACE  0x09  trace id (16 B) + flags (u8, bit0 = sampled, rest zero)
//	             then any request body except another TRACE — a tracing
//	             envelope (see below)
//	BARRIER 0x0A min term (u64) + min LSN (u64), not both zero, then one
//	             QUERY3/QUERY4 body — a read barrier envelope (see below)
//	TOPOLOGY 0x0B empty; response payload is the serving node's shard map
//	             (see internal/router's topology codec). A plain rsserve
//	             answers ERR — only routers own a topology.
//
// Responses:
//
//	OK      0x00  payload depends on the opcode (see Response)
//	ERR     0x01  payload is a UTF-8 error message; the operation failed
//	BUSY    0x02  empty, or retry-after hint in ms (u32 > 0); the admission
//	              gate was full and the operation was NOT executed — the
//	              client may retry, ideally after the hinted delay
//	TIMEOUT 0x03  empty; the request's execution deadline expired before it
//	              finished. The outcome is UNKNOWN: the operation may still
//	              apply after this response. Safe to retry only under an
//	              idempotency envelope (writes) or when naturally
//	              idempotent (reads).
//	STALE   0x04  applied term (u64) + applied LSN (u64); a BARRIER read
//	              reached a node whose replayed position is below the
//	              barrier (or whose timeline is older than the barrier's
//	              term). The query was NOT executed — retry it on the
//	              primary (or on a caught-up replica).
//	NOTPRIMARY 0x05  empty; a write reached a read-only replica or a fenced
//	              former primary. The write was NOT executed and will never
//	              succeed here — redirect to the current primary.
//	DISKFULL 0x06 empty, or retry-after hint in ms (u32 > 0); the write's
//	              commit was refused because the backing device is full.
//	              Like BUSY the operation was NOT executed and the
//	              connection stays healthy — reads keep working — but
//	              unlike BUSY the condition clears only when space is
//	              reclaimed, so clients should back off harder.
//
// A BUSY response is load shedding, not an error: the server refuses to
// queue beyond its in-flight budget so that latency stays bounded and
// memory cannot grow with offered load.
//
// The BARRIER envelope carries session consistency to read replicas: a
// client that has seen its writes acknowledged at (term T, LSN L) stamps
// reads with that pair, and a node answers only from a timeline at least
// as new (STALE otherwise, with its own position). LSNs are comparable
// only within one term's timeline, so the rule is lexicographic: a node
// at a term above T serves unconditionally (promotion preserves every
// acknowledged write of older terms), a node at exactly T must have
// applied L, and a node below T always answers STALE — it may hold a
// divergent pre-promotion suffix whose LSNs numerically satisfy L while
// missing newer-term writes. Write acknowledgements carry the primary's
// (term, durable LSN) precisely so clients have the pair on hand.
// BARRIER may wrap only QUERY3/QUERY4 and sits inside a TRACE envelope
// when both are present.
//
// The IDEM envelope makes write retries safe after an ambiguous failure (a
// dropped connection or TIMEOUT leaves the client unable to tell whether
// the write applied). The client stamps each write with a (client, seq)
// pair — client drawn at random once per logical session, seq a counter —
// and re-sends the identical envelope on retry. The server remembers the
// encoded response of each completed envelope in a bounded per-client
// window and replays it verbatim on a duplicate, so a retried write is
// executed once and observed once, as long as the duplicate arrives within
// the window (and within one server lifetime — the window is in-memory;
// across a server crash the data-level idempotency of INSERT/DELETE makes
// a replayed write harmless, but its Duplicate/Found flags may reflect the
// first execution). The response to an IDEM request is the response of
// the inner opcode.
//
// The TRACE envelope carries request tracing over the wire: a client that
// wants one request followed end to end stamps it with a random 16-byte
// trace ID and the sampled flag, and the server records a full span for
// it (phase timings + exact block I/Os, see internal/trace) regardless
// of its own sampling rate. TRACE is always the OUTERMOST envelope — it
// may wrap an IDEM envelope, but nothing may wrap a TRACE, and nested
// TRACE envelopes are a protocol error. The envelope does not change the
// response: tracing is observation only.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"rangesearch/internal/geom"
	"rangesearch/internal/trace"
)

// Opcodes of the wire protocol.
const (
	OpPing    byte = 0x01
	OpInsert  byte = 0x02
	OpDelete  byte = 0x03
	OpQuery3  byte = 0x04
	OpQuery4  byte = 0x05
	OpBatch   byte = 0x06
	OpStats   byte = 0x07
	OpIdem    byte = 0x08
	OpTrace   byte = 0x09
	OpBarrier byte = 0x0A
	// OpTopology asks the serving node for its shard map (empty request
	// payload, opaque response payload — internal/router owns the codec).
	// A single rsserve has no topology and answers ERR.
	OpTopology byte = 0x0B
)

// Response status bytes.
const (
	StatusOK         byte = 0x00
	StatusErr        byte = 0x01
	StatusBusy       byte = 0x02
	StatusTimeout    byte = 0x03
	StatusStale      byte = 0x04
	StatusNotPrimary byte = 0x05
	StatusDiskFull   byte = 0x06
)

// Batch entry kinds.
const (
	BatchInsert byte = 0x00
	BatchDelete byte = 0x01
)

// DefaultMaxFrame is the frame-size ceiling used when a config leaves
// MaxFrame zero: large enough for a 64k-point query result, small enough
// that a hostile length prefix cannot balloon allocation.
const DefaultMaxFrame = 1 << 20

// DefaultMaxBatchOps bounds the entries of one BATCH frame.
const DefaultMaxBatchOps = 4096

// pointSize is the wire size of one encoded point.
const pointSize = 16

// Protocol errors. ErrFrameTooLarge and ErrProto poison the connection
// (framing is no longer trustworthy); sizes and shapes inside a
// well-framed body are reported per-request instead.
var (
	// ErrFrameTooLarge reports a length prefix above the negotiated limit.
	ErrFrameTooLarge = errors.New("server: frame exceeds size limit")
	// ErrProto reports a malformed frame or payload.
	ErrProto = errors.New("server: protocol error")
	// ErrBusy is returned by the client when the server shed the request.
	ErrBusy = errors.New("server: busy (admission gate full, request not executed)")
	// ErrTimeout is returned by the client on a TIMEOUT response: the
	// request's execution deadline expired server-side and its outcome is
	// unknown.
	ErrTimeout = errors.New("server: request execution deadline expired (outcome unknown)")
	// ErrStale is returned by the client on a STALE response: the replica
	// has not replayed up to the request's read barrier. Retry on the
	// primary.
	ErrStale = errors.New("server: replica behind read barrier")
	// ErrNotPrimary is returned by the client on a NOTPRIMARY response: the
	// node cannot execute writes. Redirect to the current primary.
	ErrNotPrimary = errors.New("server: node is not the primary")
	// ErrDiskFull is returned by the client on a DISKFULL response: the
	// write was refused because the server's device is full. Retryable, but
	// only reclamation clears it.
	ErrDiskFull = errors.New("server: disk full, write not executed")
)

// OpName returns the human-readable opcode name ("insert", "query3", ...).
func OpName(op byte) string {
	switch op {
	case OpPing:
		return "ping"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpQuery3:
		return "query3"
	case OpQuery4:
		return "query4"
	case OpBatch:
		return "batch"
	case OpStats:
		return "stats"
	case OpIdem:
		return "idem"
	case OpTrace:
		return "trace"
	case OpBarrier:
		return "barrier"
	case OpTopology:
		return "topology"
	default:
		return fmt.Sprintf("op(0x%02x)", op)
	}
}

// --- framing ------------------------------------------------------------

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, body []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadFrame reads one frame body, enforcing the size limit BEFORE
// allocating: a hostile 4 GiB length prefix costs nothing. An empty frame
// (length 0) is a protocol error — every request and response carries at
// least one byte.
func ReadFrame(r io.Reader, maxFrame int) ([]byte, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, fmt.Errorf("%w: empty frame", ErrProto)
	}
	if n > uint32(maxFrame) {
		return nil, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooLarge, n, maxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return body, nil
}

// --- requests -----------------------------------------------------------

// Request is one decoded client request.
type Request struct {
	// Op is the opcode (OpPing ... OpStats).
	Op byte
	// P is the point of an INSERT or DELETE.
	P geom.Point
	// Rect is the query window of a QUERY3 (YHi = geom.MaxCoord) or QUERY4.
	Rect geom.Rect
	// Batch holds the entries of a BATCH request.
	Batch []BatchEntry
	// Data is the opaque payload of a PING.
	Data []byte
	// Idem, when non-nil, wraps the request in an IDEM idempotency
	// envelope. Only write opcodes (INSERT, DELETE, BATCH) may carry one.
	Idem *IdemID
	// Trace, when non-nil, wraps the request (outermost, outside any IDEM
	// envelope) in a TRACE tracing envelope. Any opcode may carry one.
	Trace *TraceInfo
	// MinTerm and MinLSN, when not both zero, wrap a QUERY3/QUERY4 in a
	// BARRIER envelope: the serving node must be on a timeline at least as
	// new as (MinTerm, MinLSN) — lexicographically — or answer STALE.
	MinTerm uint64
	MinLSN  uint64
}

// TraceInfo is the decoded TRACE envelope header: the client-chosen
// trace ID and whether the client asked for the request to be sampled.
type TraceInfo struct {
	ID trace.ID
	// Sampled, when set, forces the server to record a full span for
	// this request regardless of its own sampling rate.
	Sampled bool
}

// traceHdrSize is the wire size of the TRACE envelope header.
const traceHdrSize = trace.IDSize + 1

// traceFlagSampled is bit0 of the TRACE flags byte; all other bits must
// be zero (canonical form, so the envelope re-encodes byte-identically).
const traceFlagSampled = 0x01

// IdemID identifies one write for idempotent retry: Client names the
// logical client session (drawn at random once per session so windows from
// different sessions never collide), Seq is the client's write counter.
type IdemID struct {
	Client uint64
	Seq    uint64
}

// idemHdrSize is the wire size of the IDEM envelope header.
const idemHdrSize = 16

// barrierHdrSize is the wire size of the BARRIER envelope header:
// min term (u64) followed by min LSN (u64).
const barrierHdrSize = 16

// barrierable reports whether op may carry a BARRIER read envelope.
func barrierable(op byte) bool {
	return op == OpQuery3 || op == OpQuery4
}

// idempotent reports whether op may be wrapped in an IDEM envelope: only
// writes need retry protection, and keeping reads out of the envelope
// keeps the dedup window's cached responses small and bounded.
func idempotent(op byte) bool {
	return op == OpInsert || op == OpDelete || op == OpBatch
}

// BatchEntry is one operation of a BATCH request.
type BatchEntry struct {
	// Kind is BatchInsert or BatchDelete.
	Kind byte
	// P is the point operated on.
	P geom.Point
}

func putPoint(dst []byte, p geom.Point) {
	binary.BigEndian.PutUint64(dst[0:8], uint64(p.X))
	binary.BigEndian.PutUint64(dst[8:16], uint64(p.Y))
}

func getPoint(src []byte) geom.Point {
	return geom.Point{
		X: int64(binary.BigEndian.Uint64(src[0:8])),
		Y: int64(binary.BigEndian.Uint64(src[8:16])),
	}
}

// EncodeRequest appends the wire form of r (opcode + payload, no length
// prefix) to dst and returns the extended slice. A request with Idem set
// is emitted as an IDEM envelope around its own (write) opcode; a
// request with Trace set is emitted as a TRACE envelope around the rest
// (TRACE outermost, so it may wrap the IDEM envelope too).
func EncodeRequest(dst []byte, r Request) ([]byte, error) {
	if r.Trace != nil {
		var hdr [1 + traceHdrSize]byte
		hdr[0] = OpTrace
		copy(hdr[1:1+trace.IDSize], r.Trace.ID[:])
		if r.Trace.Sampled {
			hdr[1+trace.IDSize] = traceFlagSampled
		}
		dst = append(dst, hdr[:]...)
		inner := r
		inner.Trace = nil
		return EncodeRequest(dst, inner)
	}
	if r.MinLSN != 0 || r.MinTerm != 0 {
		if !barrierable(r.Op) {
			return nil, fmt.Errorf("%w: barrier envelope around %s", ErrProto, OpName(r.Op))
		}
		var hdr [1 + barrierHdrSize]byte
		hdr[0] = OpBarrier
		binary.BigEndian.PutUint64(hdr[1:9], r.MinTerm)
		binary.BigEndian.PutUint64(hdr[9:17], r.MinLSN)
		dst = append(dst, hdr[:]...)
		inner := r
		inner.MinTerm = 0
		inner.MinLSN = 0
		return EncodeRequest(dst, inner)
	}
	if r.Idem != nil {
		if !idempotent(r.Op) {
			return nil, fmt.Errorf("%w: idempotency envelope around %s", ErrProto, OpName(r.Op))
		}
		var hdr [1 + idemHdrSize]byte
		hdr[0] = OpIdem
		binary.BigEndian.PutUint64(hdr[1:9], r.Idem.Client)
		binary.BigEndian.PutUint64(hdr[9:17], r.Idem.Seq)
		dst = append(dst, hdr[:]...)
		inner := r
		inner.Idem = nil
		return EncodeRequest(dst, inner)
	}
	dst = append(dst, r.Op)
	switch r.Op {
	case OpPing:
		dst = append(dst, r.Data...)
	case OpInsert, OpDelete:
		var buf [pointSize]byte
		putPoint(buf[:], r.P)
		dst = append(dst, buf[:]...)
	case OpQuery3:
		var buf [24]byte
		binary.BigEndian.PutUint64(buf[0:8], uint64(r.Rect.XLo))
		binary.BigEndian.PutUint64(buf[8:16], uint64(r.Rect.XHi))
		binary.BigEndian.PutUint64(buf[16:24], uint64(r.Rect.YLo))
		dst = append(dst, buf[:]...)
	case OpQuery4:
		var buf [32]byte
		binary.BigEndian.PutUint64(buf[0:8], uint64(r.Rect.XLo))
		binary.BigEndian.PutUint64(buf[8:16], uint64(r.Rect.XHi))
		binary.BigEndian.PutUint64(buf[16:24], uint64(r.Rect.YLo))
		binary.BigEndian.PutUint64(buf[24:32], uint64(r.Rect.YHi))
		dst = append(dst, buf[:]...)
	case OpBatch:
		var cnt [4]byte
		binary.BigEndian.PutUint32(cnt[:], uint32(len(r.Batch)))
		dst = append(dst, cnt[:]...)
		for _, e := range r.Batch {
			if e.Kind != BatchInsert && e.Kind != BatchDelete {
				return nil, fmt.Errorf("%w: batch entry kind 0x%02x", ErrProto, e.Kind)
			}
			var buf [1 + pointSize]byte
			buf[0] = e.Kind
			putPoint(buf[1:], e.P)
			dst = append(dst, buf[:]...)
		}
	case OpStats, OpTopology:
		// no payload
	default:
		return nil, fmt.Errorf("%w: unknown opcode 0x%02x", ErrProto, r.Op)
	}
	return dst, nil
}

// DecodeRequest parses a frame body into a Request. It is total over
// arbitrary input: any malformed body yields an error wrapping ErrProto,
// never a panic or a partially-valid request (the fuzz target pins this).
func DecodeRequest(body []byte, maxBatchOps int) (Request, error) {
	if maxBatchOps <= 0 {
		maxBatchOps = DefaultMaxBatchOps
	}
	if len(body) == 0 {
		return Request{}, fmt.Errorf("%w: empty request", ErrProto)
	}
	op, payload := body[0], body[1:]
	r := Request{Op: op}
	switch op {
	case OpPing:
		r.Data = payload
	case OpInsert, OpDelete:
		if len(payload) != pointSize {
			return Request{}, fmt.Errorf("%w: %s payload %d bytes, want %d", ErrProto, OpName(op), len(payload), pointSize)
		}
		r.P = getPoint(payload)
	case OpQuery3:
		if len(payload) != 24 {
			return Request{}, fmt.Errorf("%w: query3 payload %d bytes, want 24", ErrProto, len(payload))
		}
		r.Rect = geom.Rect{
			XLo: int64(binary.BigEndian.Uint64(payload[0:8])),
			XHi: int64(binary.BigEndian.Uint64(payload[8:16])),
			YLo: int64(binary.BigEndian.Uint64(payload[16:24])),
			YHi: geom.MaxCoord,
		}
	case OpQuery4:
		if len(payload) != 32 {
			return Request{}, fmt.Errorf("%w: query4 payload %d bytes, want 32", ErrProto, len(payload))
		}
		r.Rect = geom.Rect{
			XLo: int64(binary.BigEndian.Uint64(payload[0:8])),
			XHi: int64(binary.BigEndian.Uint64(payload[8:16])),
			YLo: int64(binary.BigEndian.Uint64(payload[16:24])),
			YHi: int64(binary.BigEndian.Uint64(payload[24:32])),
		}
	case OpBatch:
		if len(payload) < 4 {
			return Request{}, fmt.Errorf("%w: batch payload truncated", ErrProto)
		}
		n := binary.BigEndian.Uint32(payload[:4])
		if n > uint32(maxBatchOps) {
			return Request{}, fmt.Errorf("%w: batch of %d ops (limit %d)", ErrProto, n, maxBatchOps)
		}
		rest := payload[4:]
		if len(rest) != int(n)*(1+pointSize) {
			return Request{}, fmt.Errorf("%w: batch body %d bytes for %d ops", ErrProto, len(rest), n)
		}
		if n > 0 {
			r.Batch = make([]BatchEntry, n)
			for i := range r.Batch {
				e := rest[i*(1+pointSize):]
				if e[0] != BatchInsert && e[0] != BatchDelete {
					return Request{}, fmt.Errorf("%w: batch entry %d kind 0x%02x", ErrProto, i, e[0])
				}
				r.Batch[i] = BatchEntry{Kind: e[0], P: getPoint(e[1:])}
			}
		}
	case OpStats, OpTopology:
		if len(payload) != 0 {
			return Request{}, fmt.Errorf("%w: %s payload must be empty", ErrProto, OpName(op))
		}
	case OpIdem:
		if len(payload) < idemHdrSize+1 {
			return Request{}, fmt.Errorf("%w: idem envelope truncated", ErrProto)
		}
		id := IdemID{
			Client: binary.BigEndian.Uint64(payload[0:8]),
			Seq:    binary.BigEndian.Uint64(payload[8:16]),
		}
		if inner := payload[idemHdrSize]; !idempotent(inner) {
			return Request{}, fmt.Errorf("%w: idem envelope around %s", ErrProto, OpName(inner))
		}
		r, err := DecodeRequest(payload[idemHdrSize:], maxBatchOps)
		if err != nil {
			return Request{}, err
		}
		r.Idem = &id
		return r, nil
	case OpBarrier:
		if len(payload) < barrierHdrSize+1 {
			return Request{}, fmt.Errorf("%w: barrier envelope truncated", ErrProto)
		}
		minTerm := binary.BigEndian.Uint64(payload[0:8])
		minLSN := binary.BigEndian.Uint64(payload[8:16])
		if minTerm == 0 && minLSN == 0 {
			// Canonical form: a zero barrier must omit the envelope.
			return Request{}, fmt.Errorf("%w: barrier envelope with zero barrier", ErrProto)
		}
		if inner := payload[barrierHdrSize]; !barrierable(inner) {
			return Request{}, fmt.Errorf("%w: barrier envelope around %s", ErrProto, OpName(inner))
		}
		r, err := DecodeRequest(payload[barrierHdrSize:], maxBatchOps)
		if err != nil {
			return Request{}, err
		}
		r.MinTerm = minTerm
		r.MinLSN = minLSN
		return r, nil
	case OpTrace:
		if len(payload) < traceHdrSize+1 {
			return Request{}, fmt.Errorf("%w: trace envelope truncated", ErrProto)
		}
		var ti TraceInfo
		copy(ti.ID[:], payload[:trace.IDSize])
		flags := payload[trace.IDSize]
		if flags&^traceFlagSampled != 0 {
			return Request{}, fmt.Errorf("%w: trace envelope flags 0x%02x", ErrProto, flags)
		}
		ti.Sampled = flags&traceFlagSampled != 0
		if inner := payload[traceHdrSize]; inner == OpTrace {
			return Request{}, fmt.Errorf("%w: nested trace envelope", ErrProto)
		}
		r, err := DecodeRequest(payload[traceHdrSize:], maxBatchOps)
		if err != nil {
			return Request{}, err
		}
		r.Trace = &ti
		return r, nil
	default:
		return Request{}, fmt.Errorf("%w: unknown opcode 0x%02x", ErrProto, op)
	}
	return r, nil
}

// --- responses ----------------------------------------------------------

// Response is one decoded server response. Which fields are meaningful
// depends on the opcode of the request it answers.
type Response struct {
	// Status is one of the Status... bytes.
	Status byte
	// Msg is the error message of a StatusErr response.
	Msg string
	// RetryAfterMs is the backoff hint of a StatusBusy or StatusDiskFull
	// response, in milliseconds (0 = no hint).
	RetryAfterMs uint32
	// LSN is the server's durable log position: on a write OK it is ≥ the
	// LSN the write committed at (the value to use as a later read
	// barrier); on a STALE response it is the replica's current applied
	// position. Zero on non-durable backends.
	LSN uint64
	// Term is the server's replication term alongside LSN on write OKs and
	// STALE responses: LSNs are comparable only within one term's
	// timeline, so a read barrier is the (Term, LSN) pair. Zero on
	// un-replicated servers.
	Term uint64
	// Duplicate reports an INSERT of an already-present point (a benign
	// per-operation outcome, not an error).
	Duplicate bool
	// Found mirrors Index.Delete's found result for a DELETE.
	Found bool
	// Points is the result set of a QUERY3/QUERY4.
	Points []geom.Point
	// Results holds per-entry outcome codes of a BATCH (see BatchOK...).
	Results []byte
	// Data is the echoed payload of a PING or the JSON body of a STATS.
	Data []byte
}

// Per-entry outcome codes of a BATCH response.
const (
	BatchOK       byte = 0x00 // insert applied / delete found
	BatchDup      byte = 0x01 // insert of an already-present point
	BatchNotFound byte = 0x02 // delete of an absent point
)

// EncodeResponse appends the wire form of the response to op (status byte
// + payload) to dst and returns the extended slice.
func EncodeResponse(dst []byte, op byte, r Response) []byte {
	dst = append(dst, r.Status)
	switch r.Status {
	case StatusErr:
		return append(dst, r.Msg...)
	case StatusBusy, StatusDiskFull:
		if r.RetryAfterMs > 0 {
			var hint [4]byte
			binary.BigEndian.PutUint32(hint[:], r.RetryAfterMs)
			dst = append(dst, hint[:]...)
		}
		return dst
	case StatusTimeout, StatusNotPrimary:
		return dst
	case StatusStale:
		var pos [16]byte
		binary.BigEndian.PutUint64(pos[0:8], r.Term)
		binary.BigEndian.PutUint64(pos[8:16], r.LSN)
		return append(dst, pos[:]...)
	}
	switch op {
	case OpPing, OpStats, OpTopology:
		dst = append(dst, r.Data...)
	case OpInsert:
		if r.Duplicate {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = appendPosition(dst, r)
	case OpDelete:
		if r.Found {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = appendPosition(dst, r)
	case OpQuery3, OpQuery4:
		var cnt [4]byte
		binary.BigEndian.PutUint32(cnt[:], uint32(len(r.Points)))
		dst = append(dst, cnt[:]...)
		for _, p := range r.Points {
			var buf [pointSize]byte
			putPoint(buf[:], p)
			dst = append(dst, buf[:]...)
		}
	case OpBatch:
		var cnt [4]byte
		binary.BigEndian.PutUint32(cnt[:], uint32(len(r.Results)))
		dst = append(dst, cnt[:]...)
		dst = append(dst, r.Results...)
		dst = appendPosition(dst, r)
	}
	return dst
}

// appendPosition appends the (LSN, term) trailer write acknowledgements
// carry so clients can maintain a read barrier.
func appendPosition(dst []byte, r Response) []byte {
	var pos [16]byte
	binary.BigEndian.PutUint64(pos[0:8], r.LSN)
	binary.BigEndian.PutUint64(pos[8:16], r.Term)
	return append(dst, pos[:]...)
}

// DecodeResponse parses a frame body into the Response to a request with
// opcode op. Like DecodeRequest it is total over arbitrary input.
func DecodeResponse(body []byte, op byte) (Response, error) {
	if len(body) == 0 {
		return Response{}, fmt.Errorf("%w: empty response", ErrProto)
	}
	status, payload := body[0], body[1:]
	switch status {
	case StatusErr:
		return Response{Status: status, Msg: string(payload)}, nil
	case StatusBusy, StatusDiskFull:
		switch len(payload) {
		case 0:
			return Response{Status: status}, nil
		case 4:
			// A zero hint must be encoded as no payload (canonical form).
			hint := binary.BigEndian.Uint32(payload)
			if hint == 0 {
				return Response{}, fmt.Errorf("%w: %s retry-after hint of 0", ErrProto, statusName(status))
			}
			return Response{Status: status, RetryAfterMs: hint}, nil
		default:
			return Response{}, fmt.Errorf("%w: %s response payload of %d bytes", ErrProto, statusName(status), len(payload))
		}
	case StatusTimeout, StatusNotPrimary:
		if len(payload) != 0 {
			return Response{}, fmt.Errorf("%w: %s response carries payload", ErrProto, statusName(status))
		}
		return Response{Status: status}, nil
	case StatusStale:
		if len(payload) != 16 {
			return Response{}, fmt.Errorf("%w: stale response payload of %d bytes", ErrProto, len(payload))
		}
		return Response{
			Status: status,
			Term:   binary.BigEndian.Uint64(payload[0:8]),
			LSN:    binary.BigEndian.Uint64(payload[8:16]),
		}, nil
	case StatusOK:
	default:
		return Response{}, fmt.Errorf("%w: unknown status 0x%02x", ErrProto, status)
	}
	r := Response{Status: StatusOK}
	switch op {
	case OpPing, OpStats, OpTopology:
		r.Data = payload
	case OpInsert:
		if len(payload) != 1+16 || payload[0] > 1 {
			return Response{}, fmt.Errorf("%w: insert response payload", ErrProto)
		}
		r.Duplicate = payload[0] == 1
		r.LSN = binary.BigEndian.Uint64(payload[1:9])
		r.Term = binary.BigEndian.Uint64(payload[9:17])
	case OpDelete:
		if len(payload) != 1+16 || payload[0] > 1 {
			return Response{}, fmt.Errorf("%w: delete response payload", ErrProto)
		}
		r.Found = payload[0] == 1
		r.LSN = binary.BigEndian.Uint64(payload[1:9])
		r.Term = binary.BigEndian.Uint64(payload[9:17])
	case OpQuery3, OpQuery4:
		if len(payload) < 4 {
			return Response{}, fmt.Errorf("%w: query response truncated", ErrProto)
		}
		n := binary.BigEndian.Uint32(payload[:4])
		rest := payload[4:]
		if len(rest) != int(n)*pointSize {
			return Response{}, fmt.Errorf("%w: query response %d bytes for %d points", ErrProto, len(rest), n)
		}
		if n > 0 {
			r.Points = make([]geom.Point, n)
			for i := range r.Points {
				r.Points[i] = getPoint(rest[i*pointSize:])
			}
		}
	case OpBatch:
		if len(payload) < 4+16 {
			return Response{}, fmt.Errorf("%w: batch response truncated", ErrProto)
		}
		n := binary.BigEndian.Uint32(payload[:4])
		rest := payload[4:]
		if len(rest) != int(n)+16 {
			return Response{}, fmt.Errorf("%w: batch response %d bytes for %d results", ErrProto, len(rest), n)
		}
		codes := rest[:n]
		for _, code := range codes {
			if code > BatchNotFound {
				return Response{}, fmt.Errorf("%w: batch result code 0x%02x", ErrProto, code)
			}
		}
		r.Results = codes
		r.LSN = binary.BigEndian.Uint64(rest[n : n+8])
		r.Term = binary.BigEndian.Uint64(rest[n+8:])
	default:
		return Response{}, fmt.Errorf("%w: unknown opcode 0x%02x", ErrProto, op)
	}
	return r, nil
}
