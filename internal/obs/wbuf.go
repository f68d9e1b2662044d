package obs

// WriteBufferStats is a point-in-time view of a write buffer
// (internal/wbuf.Buffered): how deep it is, what it has flushed, and
// what its journal has absorbed. rsserve publishes it as the expvar
// "rangesearch.wbuf.serve", which the Prometheus exposition flattens
// into rangesearch_wbuf_serve_* series, and serves it inside STATS.
type WriteBufferStats struct {
	// Depth is the number of distinct points currently buffered;
	// NetDelta the inserts-minus-deletes the buffer contributes to Len.
	Depth    int `json:"depth"`
	NetDelta int `json:"net_delta"`
	// CapOps is the size threshold a flush triggers at.
	CapOps int `json:"cap_ops"`

	Flushes      uint64 `json:"flushes"`
	FlushedOps   uint64 `json:"flushed_ops"`
	LastFlushOps int    `json:"last_flush_ops"`

	// Probes counts base point-queries the staging path issued to
	// resolve duplicate/found semantics. Replayed counts journaled ops
	// re-staged at open — nonzero exactly when this process recovered
	// acknowledged writes from a predecessor's crash.
	Probes   uint64 `json:"probes"`
	Replayed uint64 `json:"replayed"`

	FlushP50Ms  float64 `json:"flush_p50_ms"`
	FlushP99Ms  float64 `json:"flush_p99_ms"`
	FlushMaxMs  float64 `json:"flush_max_ms"`
	FlushOpsP50 uint64  `json:"flush_ops_p50"`
	FlushOpsMax uint64  `json:"flush_ops_max"`

	JournalBytes   int64  `json:"journal_bytes"`
	JournalAppends uint64 `json:"journal_appends"`
	JournalSyncs   uint64 `json:"journal_syncs"`
}
