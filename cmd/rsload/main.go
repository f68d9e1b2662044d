// Command rsload is a closed-loop load generator for rsserve: N worker
// connections, each keeping a fixed pipeline of requests in flight, drawing
// operations from a configurable read/write mix over a coordinate domain.
// Every worker writes one shared pool of points and (with -verify) records
// each operation; after the run the history is checked for linearizability
// point by point, so a run doubles as an end-to-end consistency check: zero
// protocol errors and zero consistency errors or the process exits nonzero.
//
// The report — throughput plus p50/p99/p999 latency per operation — is
// printed as JSON and optionally written to a file (-json) in the same
// shape internal/bench snapshots use, so trajectory tooling can ingest it.
//
// Usage:
//
//	rsload -addr 127.0.0.1:9035 -workers 8 -duration 10s -verify
//	rsload -addr 127.0.0.1:9035 -read-frac 0.9 -pipeline 16 -json load.json
//	rsload -addr 127.0.0.1:9035 -resilient -verify \
//	    -read-addrs 127.0.0.1:9036,127.0.0.1:9037 \
//	    -failover-addrs 127.0.0.1:9036,127.0.0.1:9037
//	rsload -addr 127.0.0.1:9040 -cluster -verify
//
// With -cluster the target must be an rsrouter: the run first fetches the
// TOPOLOGY frame, records the shard map in the report, and then verifies
// the same way — the router speaks the same protocol, so a zero-error
// -cluster run proves the sharded fleet is indistinguishable from one
// server.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rangesearch/internal/router"
	"rangesearch/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:9035", "rsserve address")
		workers    = flag.Int("workers", 4, "concurrent connections")
		duration   = flag.Duration("duration", 5*time.Second, "run length")
		pipeline   = flag.Int("pipeline", 8, "requests in flight per connection")
		readFrac   = flag.Float64("read-frac", 0.5, "fraction of ops that are queries (negative = none)")
		deleteFrac = flag.Float64("delete-frac", 0.3, "fraction of writes that are deletes (negative = none)")
		fourFrac   = flag.Float64("four-frac", 0.5, "fraction of queries that are 4-sided (negative = none)")
		domain     = flag.Int64("domain", 1<<20, "coordinate domain [0, domain)")
		distName   = flag.String("dist", "uniform", "write-key distribution: uniform, zipf (skew via -theta), hotspot (90/10)")
		theta      = flag.Float64("theta", 0.99, "zipfian skew for -dist zipf, in (0, 1)")
		batchEvery = flag.Int("batch-every", 0, "make every Nth write a BATCH (0 = never)")
		batchSize  = flag.Int("batch-size", 16, "operations per BATCH request")
		seed       = flag.Int64("seed", 1, "workload RNG seed")
		verify     = flag.Bool("verify", false, "record every op and check the history for per-point linearizability")
		jsonOut    = flag.String("json", "", "also write the report to this file")

		traceSample = flag.Float64("trace-sample", 0, "stamp this fraction of requests with a TRACE envelope (server records full spans for them)")

		resilient = flag.Bool("resilient", false, "survive resets/restarts: reconnect with backoff, idempotent write retries")
		attempts  = flag.Int("retry-attempts", 0, "resilient: max tries per op and per reconnect (0 = default 10)")
		baseDelay = flag.Duration("retry-base", 0, "resilient: first backoff delay (0 = default 10ms)")
		maxDelay  = flag.Duration("retry-max", 0, "resilient: backoff cap (0 = default 1s)")

		readAddrs     = flag.String("read-addrs", "", "resilient: comma-separated replica addresses for barrier-stamped read fan-out")
		failoverAddrs = flag.String("failover-addrs", "", "resilient: comma-separated additional primary candidates for write failover")

		cluster = flag.Bool("cluster", false, "require -addr to be an rsrouter: fetch its TOPOLOGY and record the shard map in the report")
	)
	flag.Parse()

	splitAddrs := func(s string) []string {
		if s == "" {
			return nil
		}
		var out []string
		for _, a := range strings.Split(s, ",") {
			if a = strings.TrimSpace(a); a != "" {
				out = append(out, a)
			}
		}
		return out
	}
	if (*readAddrs != "" || *failoverAddrs != "") && !*resilient {
		fmt.Fprintln(os.Stderr, "rsload: -read-addrs and -failover-addrs require -resilient")
		os.Exit(1)
	}

	var clusterInfo *server.ClusterLoadInfo
	if *cluster {
		m, err := fetchTopology(*addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rsload: -cluster: %v (is %s an rsrouter?)\n", err, *addr)
			os.Exit(1)
		}
		clusterInfo = &server.ClusterLoadInfo{Shards: len(m.Shards), Spec: m.Spec()}
		fmt.Fprintf(os.Stderr, "rsload: cluster: %d shards (%s)\n", clusterInfo.Shards, clusterInfo.Spec)
	}

	rep, err := server.RunLoad(server.LoadConfig{
		Addr:          *addr,
		Workers:       *workers,
		Duration:      *duration,
		Pipeline:      *pipeline,
		ReadFrac:      *readFrac,
		DeleteFrac:    *deleteFrac,
		FourFrac:      *fourFrac,
		Domain:        *domain,
		Dist:          *distName,
		Theta:         *theta,
		BatchEvery:    *batchEvery,
		BatchSize:     *batchSize,
		Seed:          *seed,
		Verify:        *verify,
		TraceSample:   *traceSample,
		Resilient:     *resilient,
		ReadAddrs:     splitAddrs(*readAddrs),
		FailoverAddrs: splitAddrs(*failoverAddrs),
		Retry: server.RetryPolicy{
			MaxAttempts: *attempts,
			BaseDelay:   *baseDelay,
			MaxDelay:    *maxDelay,
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rsload: %v\n", err)
		os.Exit(1)
	}
	rep.Cluster = clusterInfo

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "rsload: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(raw))
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "rsload: write %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
	}

	if rep.Failed() {
		fmt.Fprintf(os.Stderr, "rsload: FAILED: proto=%d consistency=%d transport=%d first=%s\n",
			rep.ProtoErrors, rep.ConsistencyErrors, rep.TransportErrors, rep.FirstError)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "rsload: ok: %d ops in %.1fs (%.0f ops/s), busy=%d\n",
		rep.Ops, rep.DurationS, rep.OpsPerSec, rep.Busy)
	if *resilient {
		fmt.Fprintf(os.Stderr, "rsload: resilience: reconnects=%d resent=%d busy_retries=%d timeout_retries=%d unknown_writes=%d\n",
			rep.Reconnects, rep.Resent, rep.BusyRetries, rep.TimeoutRetries, rep.UnknownWrites)
		if *readAddrs != "" || *failoverAddrs != "" {
			fmt.Fprintf(os.Stderr, "rsload: fleet: replica_reads=%d stale_fallbacks=%d replica_fallbacks=%d failovers=%d\n",
				rep.ReplicaReads, rep.StaleFallbacks, rep.ReplicaFallbacks, rep.Failovers)
		}
	}
	if c := rep.Cluster; c != nil {
		fmt.Fprintf(os.Stderr, "rsload: cluster: verified through %d shards (%s)\n", c.Shards, c.Spec)
	}
	if st := rep.ServerStats; st != nil {
		fmt.Fprintf(os.Stderr, "rsload: server: uptime=%.1fs epoch=%d len=%d in_flight=%d idem_clients=%d\n",
			st.UptimeS, st.Epoch, st.Len, st.InFlight, st.IdemClients)
	}
	if t := rep.Trace; t != nil {
		fmt.Fprintf(os.Stderr, "rsload: traced %d requests: client p50=%.3fms p99=%.3fms mean=%.3fms\n",
			rep.TracedOps, t.ClientP50Ms, t.ClientP99Ms, t.ClientMeanMs)
		for _, phase := range []string{
			"admission", "queue", "leadership", "execute",
			"wal_append", "sync", "commit", "reply_flush",
		} {
			if ps := t.ServerPhases[phase]; ps.Count > 0 {
				fmt.Fprintf(os.Stderr, "rsload:   server %-11s p50=%.3fms p99=%.3fms (n=%d)\n",
					phase, float64(ps.P50)/1e6, float64(ps.P99)/1e6, ps.Count)
			}
		}
	}
}

// fetchTopology asks the target for its shard map via the TOPOLOGY frame.
func fetchTopology(addr string) (*router.Map, error) {
	cl, err := server.Dial(addr, server.ClientOptions{})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	raw, err := cl.Topology()
	if err != nil {
		return nil, err
	}
	return router.DecodeTopology(raw)
}
