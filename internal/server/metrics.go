package server

import (
	"sync/atomic"
	"time"

	"rangesearch/internal/obs"
	"rangesearch/internal/trace"
)

// opSlots indexes the per-opcode metric arrays: opcodes are 0x01..0x07, so
// slot = opcode works with one unused zero slot.
const opSlots = 8

// Metrics aggregates the serving layer's observability signals: per-RPC
// latency and byte-size log₂ histograms, connection and in-flight gauges,
// and the counters that distinguish "slow" from "shedding" from "broken"
// (busy rejections, protocol errors, handler panics). A zero Metrics is
// ready to use and safe for concurrent use from every connection handler;
// Snapshot is how anything outside the server reads it.
type Metrics struct {
	latency  [opSlots]obs.Histogram // wall ns per RPC, by opcode
	bytesIn  [opSlots]obs.Histogram // request frame bytes, by opcode
	bytesOut [opSlots]obs.Histogram // response frame bytes, by opcode
	ops      [opSlots]atomic.Uint64 // completed RPCs, by opcode
	errs     [opSlots]atomic.Uint64 // RPCs answered StatusErr, by opcode

	spans  atomic.Uint64                  // sampled spans recorded
	phases [trace.NumPhases]obs.Histogram // ns per trace phase, sampled spans only

	conns      atomic.Int64  // open connections
	inflight   atomic.Int64  // RPCs past the admission gate, not yet answered
	accepted   atomic.Uint64 // connections ever accepted
	busy       atomic.Uint64 // RPCs shed with StatusBusy
	protoErr   atomic.Uint64 // malformed frames / payloads received
	panics     atomic.Uint64 // connection handlers killed by a panic
	timeouts   atomic.Uint64 // RPCs answered StatusTimeout (deadline expired)
	evicted    atomic.Uint64 // connections closed for missing a write deadline
	idemReplay atomic.Uint64 // IDEM retries answered from the dedup window
	idemExec   atomic.Uint64 // IDEM envelopes executed (window miss)
	stale      atomic.Uint64 // barrier reads answered StatusStale
	notPrimary atomic.Uint64 // writes rejected StatusNotPrimary (replica role)
	diskFull   atomic.Uint64 // writes rejected StatusDiskFull (ENOSPC)
}

// observe records one completed RPC.
func (m *Metrics) observe(op byte, lat time.Duration, in, out int, isErr bool) {
	if lat < 0 {
		lat = 0
	}
	if int(op) < opSlots {
		m.latency[op].Observe(uint64(lat))
		m.bytesIn[op].Observe(uint64(in))
		m.bytesOut[op].Observe(uint64(out))
		m.ops[op].Add(1)
		if isErr {
			m.errs[op].Add(1)
		}
	}
}

// observeSpan feeds a finished sampled span into the per-phase latency
// histograms. Only phases the request actually passed through (non-zero)
// are observed, so a read doesn't drag the group-commit phase quantiles
// toward zero.
func (m *Metrics) observeSpan(sp *trace.Span) {
	m.spans.Add(1)
	for p := trace.Phase(0); p < trace.NumPhases; p++ {
		if d := sp.Phase(p); d > 0 {
			m.phases[p].Observe(uint64(d))
		}
	}
}

// OpMetricsSnapshot is the JSON-friendly per-opcode view.
type OpMetricsSnapshot struct {
	Count    uint64                `json:"count"`
	Errors   uint64                `json:"errors,omitempty"`
	LatNs    obs.HistogramSnapshot `json:"lat_ns"`
	BytesIn  obs.HistogramSnapshot `json:"bytes_in"`
	BytesOut obs.HistogramSnapshot `json:"bytes_out"`
}

// PhaseSnapshot is the compact per-trace-phase view served inside STATS:
// count plus the two quantiles an operator actually pages on.
type PhaseSnapshot struct {
	Count uint64 `json:"count"`
	P50Ns uint64 `json:"p50_ns"`
	P99Ns uint64 `json:"p99_ns"`
}

// MetricsSnapshot is the JSON-friendly view of a Metrics, the payload both
// the expvar variable and the STATS opcode serve.
type MetricsSnapshot struct {
	Conns       int64                        `json:"conns"`
	InFlight    int64                        `json:"in_flight"`
	Accepted    uint64                       `json:"accepted"`
	Busy        uint64                       `json:"busy"`
	ProtoErrors uint64                       `json:"proto_errors"`
	Panics      uint64                       `json:"panics"`
	Timeouts    uint64                       `json:"timeouts"`
	Evicted     uint64                       `json:"evicted"`
	IdemReplays uint64                       `json:"idem_replays"`
	IdemExecs   uint64                       `json:"idem_execs"`
	Stale       uint64                       `json:"stale,omitempty"`
	NotPrimary  uint64                       `json:"not_primary,omitempty"`
	DiskFull    uint64                       `json:"disk_full,omitempty"`
	Spans       uint64                       `json:"spans,omitempty"`
	Ops         map[string]OpMetricsSnapshot `json:"ops"`
	// Phases holds p50/p99 per trace phase (only phases with samples).
	Phases map[string]PhaseSnapshot `json:"phases,omitempty"`
	// PhaseHist carries the full phase histograms (only phases with
	// samples); the Prometheus exporter turns these into cumulative
	// bucket series.
	PhaseHist map[string]obs.HistogramSnapshot `json:"phase_hist,omitempty"`
}

// Snapshot returns a point-in-time copy of every counter and histogram.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Conns:       m.conns.Load(),
		InFlight:    m.inflight.Load(),
		Accepted:    m.accepted.Load(),
		Busy:        m.busy.Load(),
		ProtoErrors: m.protoErr.Load(),
		Panics:      m.panics.Load(),
		Timeouts:    m.timeouts.Load(),
		Evicted:     m.evicted.Load(),
		IdemReplays: m.idemReplay.Load(),
		IdemExecs:   m.idemExec.Load(),
		Stale:       m.stale.Load(),
		NotPrimary:  m.notPrimary.Load(),
		DiskFull:    m.diskFull.Load(),
		Spans:       m.spans.Load(),
		Ops:         map[string]OpMetricsSnapshot{},
	}
	for p := trace.Phase(0); p < trace.NumPhases; p++ {
		h := &m.phases[p]
		n := h.Count()
		if n == 0 {
			continue
		}
		if s.Phases == nil {
			s.Phases = map[string]PhaseSnapshot{}
			s.PhaseHist = map[string]obs.HistogramSnapshot{}
		}
		s.Phases[p.String()] = PhaseSnapshot{
			Count: n,
			P50Ns: h.Quantile(0.50),
			P99Ns: h.Quantile(0.99),
		}
		s.PhaseHist[p.String()] = h.Snapshot()
	}
	for _, op := range []byte{OpPing, OpInsert, OpDelete, OpQuery3, OpQuery4, OpBatch, OpStats} {
		if n := m.ops[op].Load(); n > 0 {
			s.Ops[OpName(op)] = OpMetricsSnapshot{
				Count:    n,
				Errors:   m.errs[op].Load(),
				LatNs:    m.latency[op].Snapshot(),
				BytesIn:  m.bytesIn[op].Snapshot(),
				BytesOut: m.bytesOut[op].Snapshot(),
			}
		}
	}
	return s
}

// PublishMetrics exports m.Snapshot() as the expvar
// "rangesearch.server.<name>" on the same /debug/vars surface
// obs.ServeMetrics serves. Later calls with the same name repoint the
// variable.
func PublishMetrics(name string, m *Metrics) {
	obs.Publish("rangesearch.server."+name, func() interface{} {
		return m.Snapshot()
	})
}
