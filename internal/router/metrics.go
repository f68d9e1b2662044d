package router

import (
	"time"

	"rangesearch/internal/obs"
)

// shardMetrics is one shard's slice of the router's observability: how
// often the router talks to it, how long the shard takes to answer, and
// how many bytes flow each way.
type shardMetrics struct {
	latency  obs.Histogram // wall ns per forwarded sub-request
	bytesIn  obs.Histogram // response bytes from the shard (points mostly)
	bytesOut obs.Histogram // request bytes to the shard

	points  obs.Counter // point writes (INSERT/DELETE) routed here by x
	queries obs.Counter // QUERY3/QUERY4 sub-reads scattered here
	batches obs.Counter // BATCH sub-batches routed here
	errors  obs.Counter // sub-requests that came back non-OK
}

// Metrics aggregates the router's routing and per-shard signals. Create
// with NewMetrics (the per-shard arrays are sized to the map); it is safe
// for concurrent use from every connection handler, and it is an obs.Set,
// which is how anything outside the router reads it.
type Metrics struct {
	shards []shardMetrics

	fanout obs.Histogram // shards contacted per scatter-gather query

	conns     obs.Gauge   // open inbound connections
	accepted  obs.Counter // inbound connections ever accepted
	ops       obs.Counter // inbound requests completed
	scatters  obs.Counter // QUERY3/QUERY4 requests scatter-gathered
	merged    obs.Counter // points merged into scatter-gather results
	splits    obs.Counter // BATCH requests split across ≥ 2 shards
	topology  obs.Counter // TOPOLOGY requests answered
	protoErr  obs.Counter // malformed inbound frames / payloads
	shardErr  obs.Counter // sub-requests failed after shard-client retries
	ambiguous obs.Counter // OK write acks demoted to TIMEOUT after an ambiguous resend
	nonOK     obs.Counter // inbound requests answered non-OK
}

// NewMetrics returns a Metrics sized for a map of nshards shards.
func NewMetrics(nshards int) *Metrics {
	return &Metrics{shards: make([]shardMetrics, nshards)}
}

// observeShard records one forwarded sub-request to shard i.
func (m *Metrics) observeShard(i int, lat time.Duration, out, in int, ok bool) {
	if i < 0 || i >= len(m.shards) {
		return
	}
	if lat < 0 {
		lat = 0
	}
	sm := &m.shards[i]
	sm.latency.Observe(uint64(lat))
	sm.bytesOut.Observe(uint64(out))
	sm.bytesIn.Observe(uint64(in))
	if !ok {
		sm.errors.Add(1)
	}
}

// Emit declares every routing metric: rsrouter publishes the set as
// "rangesearch.router.main", and its STATS serves it as "router".
func (m *Metrics) Emit(s obs.Sink) {
	s.Gauge("conns", float64(m.conns.Load()))
	s.Counter("accepted", m.accepted.Load())
	s.Counter("ops", m.ops.Load())
	s.Counter("scatters", m.scatters.Load())
	s.Counter("merged_points", m.merged.Load())
	s.Counter("batch_splits", m.splits.Load())
	s.Counter("topology_serves", m.topology.Load())
	s.Counter("proto_errors", m.protoErr.Load())
	s.Counter("shard_errors", m.shardErr.Load())
	s.Counter("ambiguous_writes", m.ambiguous.Load())
	s.Counter("non_ok", m.nonOK.Load())
	s.Histogram("fanout", &m.fanout)
	s.List("shards", len(m.shards), func(i int, s obs.Sink) {
		sm := &m.shards[i]
		s.Counter("points", sm.points.Load())
		s.Counter("queries", sm.queries.Load())
		s.Counter("batches", sm.batches.Load())
		s.Counter("errors", sm.errors.Load())
		s.Histogram("lat_ns", &sm.latency)
		s.Histogram("bytes_in", &sm.bytesIn)
		s.Histogram("bytes_out", &sm.bytesOut)
	})
}
