// Package obs is the observability layer of the repository: it turns the
// raw block transfers of the I/O model into per-operation evidence that
// the paper's bounds (Theorems 6–7) hold continuously, not just in one-off
// experiment tables, and it serves the live process's telemetry.
//
// The layer has four parts:
//
//   - Instrumented, a core.Index decorator that scopes measurement per
//     logical operation (Insert/Delete/Query), recording exact I/O counts
//     (Stats deltas on the measured store), reported-point counts t, and
//     wall latency into a Collector.
//   - The bound checker (CheckBounds) that divides each operation's
//     measured I/Os by its theoretical allowance — log_B N + ⌈t/B⌉ for
//     queries, log_B N for updates — and summarizes the overhead ratios
//     (p50/p95/max), making "O(log_B N + t) with small constants" a
//     machine-checked invariant.
//   - Request spans: SpanRing and SpanWriter keep and spool the sampled
//     spans the server records (their exact I/O comes from an
//     eio.SpanSink on a TraceStore).
//   - The diagnostics surface: each layer declares its metrics once, as
//     a Set of typed Counters, Gauges and log₂ Histograms; Publish puts a
//     Set on /debug/vars (JSON) and /metrics (WritePrometheus), beside
//     pprof and /spans (ServeMetrics), and STATS serves the same JSON.
//
// Nothing in this package is imported by the index structures themselves.
package obs

import (
	"sync"
	"time"
)

// OpKind classifies logical index operations for per-operation accounting.
type OpKind uint8

// Logical operation kinds recorded by Instrumented.
const (
	OpInsert OpKind = iota
	OpDelete
	OpQuery
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpQuery:
		return "query"
	default:
		return "op(?)"
	}
}

// OpRecord is the measured cost of one logical index operation.
type OpRecord struct {
	// Kind is the operation performed.
	Kind OpKind `json:"kind"`
	// Reads and Writes are the store-level I/Os attributed to the
	// operation (Stats deltas on the measured store).
	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`
	// T is the number of points reported (queries only).
	T int `json:"t,omitempty"`
	// N is the number of points in the structure when the operation
	// started — the N of the operation's own O(log_B N) allowance.
	N int `json:"n"`
	// Latency is the wall-clock duration of the operation.
	Latency time.Duration `json:"lat_ns"`
	// Err reports that the operation returned an error; errored records
	// are kept for forensics but excluded from bound checking.
	Err bool `json:"err,omitempty"`
}

// IOs returns the operation's total block transfers.
func (r OpRecord) IOs() uint64 { return r.Reads + r.Writes }

// Collector accumulates OpRecords from one or more Instrumented indexes.
// It keeps every record: the bound checker needs exact per-op values, and
// a bench run is bounded.
type Collector struct {
	mu   sync.Mutex
	recs []OpRecord
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Add records one operation.
func (c *Collector) Add(r OpRecord) {
	c.mu.Lock()
	c.recs = append(c.recs, r)
	c.mu.Unlock()
}

// Records returns a copy of every record added so far.
func (c *Collector) Records() []OpRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]OpRecord(nil), c.recs...)
}

// Len returns the number of records.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.recs)
}
