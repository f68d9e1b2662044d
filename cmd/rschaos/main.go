// Command rschaos is the kill-and-recover chaos harness for the serving
// stack (package internal/server/chaos). It boots a real fleet of rsserve
// processes on durable stores under -dir, drives verified resilient load
// at it, and SIGKILLs and restarts fleet members for -cycles cycles,
// -period apart. The fleet's topology follows -replicas/-shards:
//
//   - neither: one rsserve behind a fault-injecting proxy that delays
//     the client link; each cycle kills and restarts it. With
//     -write-buffer every kill lands on buffered acks that the restart
//     must replay;
//   - -replicas N: a primary plus N semi-sync replicas, the replication
//     links behind the proxy; each cycle kills and restarts a replica,
//     cuts and degrades the replication link, then kills the primary and
//     promotes a replica (SIGUSR1 on odd cycles, PROMOTE on even ones);
//   - -shards N (with -router): N x-range shards behind a real rsrouter;
//     each cycle kills a rotating shard and restarts it.
//
// The run passes only if the verified load finishes with zero protocol,
// consistency and transport errors (acked writes survive every crash;
// retried writes apply exactly once), every process's /metrics exposition
// validates with its metric families, with -trace-sample every node's span
// spool parses and they hold a span, every SIGTERM drain exits 0, every
// store reopens in-process with clean checksums, zero leaked pages
// (replicas excepted) and an empty write-buffer journal, and the fleet's
// invariants hold: the stores hold exactly the total the router or
// primary reported, replicas hold the primary's points, the term equals
// the promotions and the final primary's manifest records it, and
// replicas converge within the staleness budget.
//
// The report is printed as JSON and optionally written to -json. Exit 2
// means the run failed its acceptance, 1 that the harness itself broke.
//
// Usage:
//
//	rschaos -server ./rsserve -dir /tmp/chaos -cycles 10
//	rschaos -server ./rsserve -dir /tmp/chaos -write-buffer
//	rschaos -server ./rsserve -dir /tmp/chaos -replicas 2 -cycles 5
//	rschaos -server ./rsserve -router ./rsrouter -dir /tmp/chaos -shards 3 -cycles 6
//
// scripts/chaos.sh builds the binaries and passes its arguments through.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"rangesearch/internal/server/chaos"
)

func main() {
	var cfg chaos.Config
	flag.StringVar(&cfg.ServerBin, "server", "", "path to an rsserve binary (required)")
	flag.StringVar(&cfg.RouterBin, "router", "", "path to an rsrouter binary (required with -shards)")
	flag.StringVar(&cfg.Dir, "dir", "", "working directory for the fleet's stores (required; created)")
	flag.IntVar(&cfg.Replicas, "replicas", 0, "run a primary plus this many log-shipping replicas")
	flag.IntVar(&cfg.Shards, "shards", 0, "run this many x-range shards behind the router")
	flag.IntVar(&cfg.Cycles, "cycles", 0, "fault cycles (0 = harness default)")
	flag.DurationVar(&cfg.Period, "period", 0, "dwell between fault steps (0 = harness default)")
	flag.Int64Var(&cfg.Seed, "seed", 0, "workload and fault RNG seed (0 = harness default)")
	flag.Float64Var(&cfg.TraceSample, "trace-sample", 0, "run with request tracing live at this sample rate (0 disables)")
	flag.BoolVar(&cfg.WriteBuffer, "write-buffer", false, "run rsserve write-optimized; kills must recover acked writes by journal replay")
	jsonOut := flag.String("json", "", "also write the report to this file")
	quiet := flag.Bool("quiet", false, "suppress progress logging")
	flag.Parse()
	if !*quiet {
		cfg.Logf = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	rep, err := chaos.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rschaos: %v\n", err)
		os.Exit(1)
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "rschaos: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(raw))
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "rschaos: write %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
	}

	if rep.Failed() {
		first := ""
		if rep.Load != nil {
			first = rep.Load.FirstError
		}
		fmt.Fprintf(os.Stderr, "rschaos: FAILED: failures=%v drain_exits=%v stores=%v first=%s\n",
			rep.Failures, rep.DrainExits, rep.Stores, first)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "rschaos: ok: %d cycles, %d kills, %d restarts, %d promotions (term %d), %d link faults, %d journal replays; "+
		"%d ops (%d reconnects, %d resent, %d unknown, %d failovers, %d replica reads, %.1f%% of writes same-key concurrent); %d points intact across %d stores, 0 leaks\n",
		rep.Cycles, rep.Kills, rep.Restarts, rep.Promotions, rep.FinalTerm, rep.LinkFaults, rep.JournalReplays,
		rep.Load.Ops, rep.Load.Reconnects, rep.Load.Resent, rep.Load.UnknownWrites, rep.Load.Failovers, rep.Load.ReplicaReads,
		100*rep.Load.SameKeyOverlap,
		rep.Points, len(rep.Stores))
}
