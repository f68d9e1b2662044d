package server

import (
	"time"

	"rangesearch/internal/obs"
	"rangesearch/internal/trace"
)

// opSlots indexes the per-opcode metric arrays: opcodes are 0x01..0x07, so
// slot = opcode works with one unused zero slot.
const opSlots = 8

// opMetrics is one opcode's slice of the serving metrics.
type opMetrics struct {
	count    obs.Counter   // completed RPCs
	errors   obs.Counter   // RPCs answered StatusErr
	latency  obs.Histogram // wall ns per RPC
	bytesIn  obs.Histogram // request frame bytes
	bytesOut obs.Histogram // response frame bytes
}

// Metrics aggregates the serving layer's observability signals: per-RPC
// latency and byte-size log₂ histograms, connection and in-flight gauges,
// and the counters that distinguish "slow" from "shedding" from "broken"
// (busy rejections, protocol errors, handler panics). A zero Metrics is
// ready to use and safe for concurrent use from every connection handler;
// it is an obs.Set, which is how anything outside the server reads it.
type Metrics struct {
	ops [opSlots]opMetrics // by opcode

	spans  obs.Counter                    // sampled spans recorded
	phases [trace.NumPhases]obs.Histogram // ns per trace phase, sampled spans only

	conns      obs.Gauge   // open connections
	inflight   obs.Gauge   // RPCs past the admission gate, not yet answered
	accepted   obs.Counter // connections ever accepted
	busy       obs.Counter // RPCs shed with StatusBusy
	protoErr   obs.Counter // malformed frames / payloads received
	panics     obs.Counter // connection handlers killed by a panic
	timeouts   obs.Counter // RPCs answered StatusTimeout (deadline expired)
	evicted    obs.Counter // connections closed for missing a write deadline
	idemReplay obs.Counter // IDEM retries answered from the dedup window
	idemExec   obs.Counter // IDEM envelopes executed (window miss)
	stale      obs.Counter // barrier reads answered StatusStale
	notPrimary obs.Counter // writes rejected StatusNotPrimary (replica role)
	diskFull   obs.Counter // writes rejected StatusDiskFull (ENOSPC)
}

// observe records one completed RPC.
func (m *Metrics) observe(op byte, lat time.Duration, in, out int, isErr bool) {
	if lat < 0 {
		lat = 0
	}
	if int(op) < opSlots {
		o := &m.ops[op]
		o.latency.Observe(uint64(lat))
		o.bytesIn.Observe(uint64(in))
		o.bytesOut.Observe(uint64(out))
		o.count.Add(1)
		if isErr {
			o.errors.Add(1)
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

// Emit declares every serving metric: rsserve publishes the set as
// "rangesearch.server.main", and STATS serves it as "metrics".
func (m *Metrics) Emit(s obs.Sink) {
	s.Gauge("conns", float64(m.conns.Load()))
	s.Gauge("in_flight", float64(m.inflight.Load()))
	s.Counter("accepted", m.accepted.Load())
	s.Counter("busy", m.busy.Load())
	s.Counter("proto_errors", m.protoErr.Load())
	s.Counter("panics", m.panics.Load())
	s.Counter("timeouts", m.timeouts.Load())
	s.Counter("evicted", m.evicted.Load())
	s.Counter("idem_replays", m.idemReplay.Load())
	s.Counter("idem_execs", m.idemExec.Load())
	s.Counter("stale", m.stale.Load())
	s.Counter("not_primary", m.notPrimary.Load())
	s.Counter("disk_full", m.diskFull.Load())
	s.Counter("spans", m.spans.Load())
	s.Group("ops", func(s obs.Sink) {
		for _, op := range []byte{OpPing, OpInsert, OpDelete, OpQuery3, OpQuery4, OpBatch, OpStats} {
			o := &m.ops[op]
			s.Group(OpName(op), func(s obs.Sink) {
				s.Counter("count", o.count.Load())
				s.Counter("errors", o.errors.Load())
				s.Histogram("lat_ns", &o.latency)
				s.Histogram("bytes_in", &o.bytesIn)
				s.Histogram("bytes_out", &o.bytesOut)
			})
		}
	})
	s.Group("phase_hist", func(s obs.Sink) {
		for p := trace.Phase(0); p < trace.NumPhases; p++ {
			s.Histogram(p.String(), &m.phases[p])
		}
	})
}
