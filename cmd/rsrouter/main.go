// Command rsrouter fronts an x-range-partitioned rsserve fleet with the
// same wire protocol the shards speak: clients point rsload (or any
// Client/ResilientClient) at the router and get the whole keyspace.
//
// The shard map is static, given as -shards:
//
//	rsrouter -addr :9040 -shards "x<1000@h1:9035,x<2000@h2:9035,rest@h3:9035"
//
// Each shard is "bound@primary|failover|failover..." — the bound ends the
// shard's x-range (exclusive), "rest" covers everything after the last
// bound, and the addresses after "|" are the shard's replicas, which the
// router rotates to on NOTPRIMARY (a promotion, e.g. rsserve SIGUSR1).
// `rsinspect splitplan` proposes bounds from an existing store's
// x-distribution.
//
// INSERT/DELETE route point-wise by x; BATCH splits deterministically
// into per-shard sub-batches; QUERY3/QUERY4 scatter-gather across exactly
// the shards their x-interval overlaps, merged into canonical order.
// IDEM envelopes forward unchanged (exactly-once per shard across client
// retries), BARRIER read consistency is preserved through a per-shard
// (term, LSN) vector (see internal/router), and TOPOLOGY serves the
// shard map. Per-shard latency/byte histograms and routing counters are
// served on -metrics.
//
// SIGTERM/SIGINT drains: in-flight requests finish, then the process
// exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rangesearch/internal/obs"
	"rangesearch/internal/router"
	"rangesearch/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:9040", "listen address")
		shards      = flag.String("shards", "", `shard map, e.g. "x<100@h1:9035,rest@h2:9035" (required)`)
		metricsAddr = flag.String("metrics", "", "serve expvar+pprof+/metrics on this address (empty = off)")
		idleT       = flag.Duration("idle-timeout", 5*time.Minute, "close inbound connections idle this long")
		writeT      = flag.Duration("write-timeout", 30*time.Second, "per-response write deadline")
		ioT         = flag.Duration("shard-io-timeout", 30*time.Second, "per-round-trip deadline on shard connections")
		dialT       = flag.Duration("shard-dial-timeout", 5*time.Second, "shard connection dial deadline")
		attempts    = flag.Int("shard-attempts", 10, "retry budget per shard sub-request (reconnects, BUSY, failover)")
		maxFrame    = flag.Int("max-frame", server.DefaultMaxFrame, "inbound frame size ceiling")
		maxBatch    = flag.Int("max-batch", server.DefaultMaxBatchOps, "max entries per inbound BATCH")
	)
	flag.Parse()
	if *shards == "" {
		fmt.Fprintln(os.Stderr, "rsrouter: -shards is required")
		flag.Usage()
		os.Exit(1)
	}
	m, err := router.ParseShards(*shards)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rsrouter: %v\n", err)
		os.Exit(1)
	}

	metrics := router.NewMetrics(len(m.Shards))
	obs.Publish("rangesearch.router.main", metrics)
	if *metricsAddr != "" {
		ms, err := obs.ServeMetrics(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rsrouter: metrics: %v\n", err)
			os.Exit(1)
		}
		defer ms.Close()
		fmt.Printf("rsrouter: metrics on http://%s/debug/vars (Prometheus: /metrics)\n", ms.Addr())
	}

	rt, err := router.New(m, router.Options{
		Client:       server.ClientOptions{DialTimeout: *dialT, IOTimeout: *ioT},
		Retry:        server.RetryPolicy{MaxAttempts: *attempts},
		MaxFrame:     *maxFrame,
		MaxBatchOps:  *maxBatch,
		IdleTimeout:  *idleT,
		WriteTimeout: *writeT,
		Metrics:      metrics,
		Logf: func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rsrouter: %v\n", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rsrouter: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("rsrouter: listening on %s fronting %d shards (%s)\n", ln.Addr(), len(m.Shards), m.Spec())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	serveDone := make(chan error, 1)
	go func() { serveDone <- rt.Serve(ln) }()

	select {
	case sig := <-sigc:
		fmt.Printf("rsrouter: %v: draining\n", sig)
	case err := <-serveDone:
		fmt.Fprintf(os.Stderr, "rsrouter: serve: %v\n", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "rsrouter: shutdown: %v\n", err)
	}
	<-serveDone

	count := func(name string) float64 { return obs.Value(metrics, name) }
	fmt.Printf("rsrouter: drained clean: %.0f conns accepted, %.0f ops (%.0f scatters, %.0f shard errors, %.0f proto errors)\n",
		count("accepted"), count("ops"), count("scatters"), count("shard_errors"), count("proto_errors"))
}
