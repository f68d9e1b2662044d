package router

import (
	"sync/atomic"
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

	points  atomic.Uint64 // point writes (INSERT/DELETE) routed here by x
	queries atomic.Uint64 // QUERY3/QUERY4 sub-reads scattered here
	batches atomic.Uint64 // BATCH sub-batches routed here
	errors  atomic.Uint64 // sub-requests that came back non-OK
}

// Metrics aggregates the router's routing and per-shard signals. Create
// with NewMetrics (the per-shard arrays are sized to the map); it is safe
// for concurrent use from every connection handler, and Snapshot is how
// anything outside the router reads it.
type Metrics struct {
	shards []shardMetrics

	fanout obs.Histogram // shards contacted per scatter-gather query

	conns     atomic.Int64  // open inbound connections
	accepted  atomic.Uint64 // inbound connections ever accepted
	ops       atomic.Uint64 // inbound requests completed
	scatters  atomic.Uint64 // QUERY3/QUERY4 requests scatter-gathered
	merged    atomic.Uint64 // points merged into scatter-gather results
	splits    atomic.Uint64 // BATCH requests split across ≥ 2 shards
	topology  atomic.Uint64 // TOPOLOGY requests answered
	protoErr  atomic.Uint64 // malformed inbound frames / payloads
	shardErr  atomic.Uint64 // sub-requests failed after shard-client retries
	ambiguous atomic.Uint64 // OK write acks demoted to TIMEOUT after an ambiguous resend
	nonOK     atomic.Uint64 // inbound requests answered non-OK
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

// ShardMetricsSnapshot is the JSON-friendly per-shard view.
type ShardMetricsSnapshot struct {
	Points   uint64                `json:"points"`
	Queries  uint64                `json:"queries"`
	Batches  uint64                `json:"batches,omitempty"`
	Errors   uint64                `json:"errors,omitempty"`
	LatNs    obs.HistogramSnapshot `json:"lat_ns"`
	BytesIn  obs.HistogramSnapshot `json:"bytes_in"`
	BytesOut obs.HistogramSnapshot `json:"bytes_out"`
}

// MetricsSnapshot is the JSON-friendly view of the router's metrics,
// served on /metrics (expvar + Prometheus) next to the shard snapshots.
type MetricsSnapshot struct {
	Conns       int64                  `json:"conns"`
	Accepted    uint64                 `json:"accepted"`
	Ops         uint64                 `json:"ops"`
	Scatters    uint64                 `json:"scatters"`
	Merged      uint64                 `json:"merged_points"`
	Splits      uint64                 `json:"batch_splits"`
	Topology    uint64                 `json:"topology_serves"`
	ProtoErrors uint64                 `json:"proto_errors"`
	ShardErrors uint64                 `json:"shard_errors"`
	Ambiguous   uint64                 `json:"ambiguous_writes,omitempty"`
	NonOK       uint64                 `json:"non_ok"`
	Fanout      obs.HistogramSnapshot  `json:"fanout"`
	Shards      []ShardMetricsSnapshot `json:"shards"`
}

// Snapshot returns a point-in-time copy of every counter and histogram.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Conns:       m.conns.Load(),
		Accepted:    m.accepted.Load(),
		Ops:         m.ops.Load(),
		Scatters:    m.scatters.Load(),
		Merged:      m.merged.Load(),
		Splits:      m.splits.Load(),
		Topology:    m.topology.Load(),
		ProtoErrors: m.protoErr.Load(),
		ShardErrors: m.shardErr.Load(),
		Ambiguous:   m.ambiguous.Load(),
		NonOK:       m.nonOK.Load(),
		Fanout:      m.fanout.Snapshot(),
		Shards:      make([]ShardMetricsSnapshot, len(m.shards)),
	}
	for i := range m.shards {
		sm := &m.shards[i]
		s.Shards[i] = ShardMetricsSnapshot{
			Points:   sm.points.Load(),
			Queries:  sm.queries.Load(),
			Batches:  sm.batches.Load(),
			Errors:   sm.errors.Load(),
			LatNs:    sm.latency.Snapshot(),
			BytesIn:  sm.bytesIn.Snapshot(),
			BytesOut: sm.bytesOut.Snapshot(),
		}
	}
	return s
}

// PublishMetrics exports m.Snapshot() as the expvar
// "rangesearch.router.<name>" on the same /debug/vars surface
// obs.ServeMetrics serves.
func PublishMetrics(name string, m *Metrics) {
	obs.Publish("rangesearch.router."+name, func() interface{} {
		return m.Snapshot()
	})
}
