// Package trace is the request-span vocabulary shared by the serving
// stack: a 16-byte trace ID that rides the wire protocol's TRACE
// envelope, a fixed set of phases a request passes through on its way
// from the client socket to the WAL and back, and a Span that
// accumulates per-phase wall time plus exact block-I/O counts.
//
// The package is a dependency leaf (standard library only) so every
// layer — internal/server at the top, internal/core in the middle,
// internal/eio at the bottom — can share one Span without creating an
// import cycle.
//
// Overhead contract: a Span is only allocated for sampled requests.
// All mutating methods are atomic adds, so the detached-execution path
// (a timed-out request whose handler is still running) may keep
// recording into a span the server already finished without a data
// race. Unsampled requests carry a nil *Span and every call site
// checks for nil before touching it — the unsampled hot path allocates
// nothing and reads no clocks beyond what it already did.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"
)

// IDSize is the wire size of a trace ID in bytes.
const IDSize = 16

// ID identifies one request end to end. Clients that stamp their own
// TRACE envelopes choose random IDs; the server generates one for
// requests it samples itself.
type ID [IDSize]byte

// NewID returns a cryptographically random ID.
func NewID() ID {
	var id ID
	if _, err := rand.Read(id[:]); err != nil {
		// crypto/rand never fails on the supported platforms; if it
		// somehow does, a zero ID is still functional (just not unique).
		return ID{}
	}
	return id
}

// IsZero reports whether the ID is all zero bytes.
func (id ID) IsZero() bool { return id == ID{} }

// String renders the ID as 32 lowercase hex digits.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// ParseID inverts String.
func ParseID(s string) (ID, error) {
	var id ID
	if len(s) != 2*IDSize {
		return id, fmt.Errorf("trace: ID must be %d hex digits, got %d", 2*IDSize, len(s))
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("trace: bad ID %q: %w", s, err)
	}
	copy(id[:], b)
	return id, nil
}

// Phase is one segment of a request's life. The phases are disjoint and
// in sum cover (nearly) the whole server-side wall time of a request:
//
//	admission    waiting for an in-flight slot at the admission gate
//	queue        sitting in the group-commit queue before a leader took it
//	leadership   waiting to acquire the single-writer leadership lock
//	execute      running the index operation itself (tree reads/writes)
//	wal_append   writing WAL record pages inside TxStore.Commit
//	sync         the commit-point durability barrier, one per commit
//	commit       the rest of commit: in-place apply, epoch publish
//	reply_flush  encoding the response and flushing it to the socket
//	flush        draining a write buffer into the base structure (the
//	             bulk apply a buffered write triggered by crossing the
//	             size threshold; see internal/wbuf)
//	checkpoint   the WAL checkpoint a commit ran because its record did not
//	             fit the ring: two barriers, the anchor, the held frees
//
// Reads have only admission, execute and reply_flush; the group-commit
// phases stay zero. The flush phase is zero for every request except the
// unlucky buffered write that crossed the flush threshold and paid for
// the whole drain; the checkpoint phase likewise, for the one commit in a
// ring lap that found the WAL full.
type Phase int

const (
	PhaseAdmission Phase = iota
	PhaseQueue
	PhaseLeadership
	PhaseExecute
	PhaseWALAppend
	PhaseSync
	PhaseCommit
	PhaseReplyFlush
	PhaseFlush
	PhaseCheckpoint

	// NumPhases is the number of defined phases; valid phases are
	// 0 <= p < NumPhases.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"admission",
	"queue",
	"leadership",
	"execute",
	"wal_append",
	"sync",
	"commit",
	"reply_flush",
	"flush",
	"checkpoint",
}

// String returns the snake_case phase name used in JSON records,
// STATS payloads and Prometheus label values.
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return phaseNames[p]
}

// ParsePhase inverts String.
func ParsePhase(s string) (Phase, error) {
	for p, name := range phaseNames {
		if name == s {
			return Phase(p), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown phase %q", s)
}

// Span accumulates one sampled request's phase timings and block-I/O
// counts. All counters are atomic so recorders on other goroutines
// (group-commit leaders, detached executions) never race the owner.
type Span struct {
	id    ID
	op    string
	start time.Time

	phases [NumPhases]atomic.Int64 // nanoseconds per phase

	reads  atomic.Int64
	writes atomic.Int64
	allocs atomic.Int64
	frees  atomic.Int64

	wall   atomic.Int64 // set once by Finish
	status atomic.Pointer[string]
}

// New starts a span for one request. op is the wire opcode name
// ("insert", "query3", ...).
func New(id ID, op string) *Span {
	return &Span{id: id, op: op, start: time.Now()}
}

// NewAt starts a span whose clock began at start — the server uses it so
// a span's wall time covers the whole wire lifetime of a request (from
// the moment its frame was read) even though the TRACE envelope is only
// discovered after decoding.
func NewAt(id ID, op string, start time.Time) *Span {
	return &Span{id: id, op: op, start: start}
}

// ID returns the span's trace ID.
func (s *Span) ID() ID { return s.id }

// Op returns the operation name the span was started with.
func (s *Span) Op() string { return s.op }

// Start returns the span's start time.
func (s *Span) Start() time.Time { return s.start }

// AddPhase adds d to phase p. Negative durations are clamped to zero so
// clock oddities never produce negative phase sums.
func (s *Span) AddPhase(p Phase, d time.Duration) {
	if s == nil || p < 0 || p >= NumPhases {
		return
	}
	if d < 0 {
		d = 0
	}
	s.phases[p].Add(int64(d))
}

// Phase returns the accumulated time in phase p.
func (s *Span) Phase(p Phase) time.Duration {
	if p < 0 || p >= NumPhases {
		return 0
	}
	return time.Duration(s.phases[p].Load())
}

// PhaseTotal returns the sum over all phases.
func (s *Span) PhaseTotal() time.Duration {
	var total int64
	for i := range s.phases {
		total += s.phases[i].Load()
	}
	return time.Duration(total)
}

// AddIO adds block-I/O counts attributed to this request.
func (s *Span) AddIO(reads, writes, allocs, frees int64) {
	if s == nil {
		return
	}
	if reads != 0 {
		s.reads.Add(reads)
	}
	if writes != 0 {
		s.writes.Add(writes)
	}
	if allocs != 0 {
		s.allocs.Add(allocs)
	}
	if frees != 0 {
		s.frees.Add(frees)
	}
}

// IOs returns reads+writes — the paper's currency, matching
// eio.Stats.IOs (allocs and frees are bookkeeping, not block
// transfers).
func (s *Span) IOs() int64 { return s.reads.Load() + s.writes.Load() }

// Finish stamps the span's wall time (now − start) and final status.
// It may be called exactly once; recorders may keep adding phases and
// I/O afterwards (detached execution), which later Record calls will
// see.
func (s *Span) Finish(status string) {
	s.wall.Store(int64(time.Since(s.start)))
	s.status.Store(&status)
}

// Wall returns the finished wall time, or time-since-start when the
// span has not finished yet.
func (s *Span) Wall() time.Duration {
	if w := s.wall.Load(); w != 0 {
		return time.Duration(w)
	}
	return time.Since(s.start)
}

// Record is the JSONL schema of one finished span — one object per
// line in the sampled-span sink, replayed by `rsinspect spans`.
type Record struct {
	TraceID string           `json:"trace_id"`
	Op      string           `json:"op"`
	Start   time.Time        `json:"start"`
	WallNs  int64            `json:"wall_ns"`
	Status  string           `json:"status,omitempty"`
	Phases  map[string]int64 `json:"phases_ns"`
	Reads   int64            `json:"reads"`
	Writes  int64            `json:"writes"`
	Allocs  int64            `json:"allocs,omitempty"`
	Frees   int64            `json:"frees,omitempty"`
	IOs     int64            `json:"ios"`
}

// Record snapshots the span into its JSON-friendly form. Zero phases
// are omitted from the map to keep span lines compact.
func (s *Span) Record() Record {
	r := Record{
		TraceID: s.id.String(),
		Op:      s.op,
		Start:   s.start,
		WallNs:  s.wall.Load(),
		Phases:  make(map[string]int64, NumPhases),
		Reads:   s.reads.Load(),
		Writes:  s.writes.Load(),
		Allocs:  s.allocs.Load(),
		Frees:   s.frees.Load(),
	}
	r.IOs = r.Reads + r.Writes
	if st := s.status.Load(); st != nil {
		r.Status = *st
	}
	for i := range s.phases {
		if v := s.phases[i].Load(); v != 0 {
			r.Phases[Phase(i).String()] = v
		}
	}
	return r
}
