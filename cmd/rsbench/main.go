// Command rsbench runs the experiment suite that reproduces every
// quantitative claim of Arge, Samoladas & Vitter (PODS 1999) and prints
// one table per claim (the experiment index lives in DESIGN.md, the
// recorded results in EXPERIMENTS.md).
//
// Usage:
//
//	rsbench                     # run every experiment at full size
//	rsbench -exp e7,e8          # run selected experiments
//	rsbench -quick              # smaller instances (seconds instead of minutes)
//	rsbench -list               # list experiments and the claims they test
//	rsbench -json -outdir out   # also write machine-readable BENCH_<exp>.json
//	rsbench -metrics :6060      # serve expvar + pprof while running
//	rsbench -bound              # run the e14 bound check and fail on violation
//
// Exit codes: 0 success; 1 if any experiment errored (the rest of the
// suite still runs) or storage of a snapshot failed; 2 usage; 3 if -bound
// found a theorem-overhead violation.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rangesearch/internal/bench"
	"rangesearch/internal/obs"
)

func main() {
	var (
		expFlag     = flag.String("exp", "", "comma-separated experiment names (default: all)")
		quickFlag   = flag.Bool("quick", false, "run smaller instances")
		listFlag    = flag.Bool("list", false, "list experiments and exit")
		jsonFlag    = flag.Bool("json", false, "write a BENCH_<exp>.json snapshot per experiment")
		outdirFlag  = flag.String("outdir", ".", "directory for -json snapshots")
		metricsFlag = flag.String("metrics", "", "serve expvar and pprof on this address (e.g. :6060) while running")
		boundFlag   = flag.Bool("bound", false, "run the bound check (e14) and exit 3 if p95 overhead exceeds the limits")
		boundQP95   = flag.Float64("bound-query-p95", bench.CIQueryP95Limit, "with -bound: max allowed p95 query overhead")
		boundUP95   = flag.Float64("bound-update-p95", bench.CIUpdateP95Limit, "with -bound: max allowed p95 update overhead")
	)
	flag.Parse()

	exps := bench.All()
	if *listFlag {
		for _, e := range exps {
			fmt.Printf("%-5s %s\n", e.Name, e.Claim)
		}
		return
	}

	if *metricsFlag != "" {
		ms, err := obs.ServeMetrics(*metricsFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rsbench: metrics server: %v\n", err)
			os.Exit(1)
		}
		defer ms.Close()
		fmt.Printf("metrics: expvar at http://%s/debug/vars, pprof at http://%s/debug/pprof/\n\n", ms.Addr(), ms.Addr())
	}
	// Progress is published whether or not -metrics is set, so an
	// embedded expvar scrape (or a test) can watch a run.
	progress := expvar.NewMap("rangesearch.bench")

	if *boundFlag {
		os.Exit(runBoundCheck(*quickFlag, *jsonFlag, *outdirFlag, *boundQP95, *boundUP95))
	}

	want := map[string]bool{}
	if *expFlag != "" {
		for _, name := range strings.Split(*expFlag, ",") {
			want[strings.TrimSpace(strings.ToLower(name))] = true
		}
	}

	ran := 0
	var failed []string
	for _, e := range exps {
		if len(want) > 0 && !want[e.Name] {
			continue
		}
		ran++
		progress.Set("current", stringVar(e.Name))
		start := time.Now()
		tables, err := e.Run(*quickFlag)
		dur := time.Since(start)
		if err != nil {
			// Report and keep going: one broken experiment must not hide
			// the results (or further breakage) of the rest of the suite.
			// The failure still fails the run via the exit code.
			fmt.Fprintf(os.Stderr, "rsbench: %s: %v\n", e.Name, err)
			failed = append(failed, e.Name)
			continue
		}
		for _, t := range tables {
			fmt.Println(t.Render())
		}
		fmt.Printf("(%s finished in %v)\n\n", e.Name, dur.Round(time.Millisecond))
		if *jsonFlag {
			snap := bench.NewSnapshot(e.Name, e.Claim, *quickFlag, dur, tables, nil)
			path, err := bench.WriteSnapshot(*outdirFlag, snap)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rsbench: %s: write snapshot: %v\n", e.Name, err)
				failed = append(failed, e.Name+" (snapshot)")
				continue
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "rsbench: no experiment matches -exp=%q (try -list)\n", *expFlag)
		os.Exit(2)
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "rsbench: %d of %d experiments failed: %s\n", len(failed), ran, strings.Join(failed, ", "))
		os.Exit(1)
	}
}

// runBoundCheck runs e14 with thresholds and returns the process exit
// code.
func runBoundCheck(quick, writeJSON bool, outdir string, qp95, up95 float64) int {
	start := time.Now()
	tables, reports, err := bench.BoundCheck(quick)
	dur := time.Since(start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rsbench: bound check: %v\n", err)
		return 1
	}
	for _, t := range tables {
		fmt.Println(t.Render())
	}
	if writeJSON {
		snap := bench.NewSnapshot("e14", "bound check: per-op overhead vs Thms 6-7 allowances", quick, dur, tables, reports)
		path, err := bench.WriteSnapshot(outdir, snap)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rsbench: write snapshot: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", path)
	}
	code := 0
	for _, rep := range reports {
		if err := rep.Exceeds(qp95, up95); err != nil {
			fmt.Fprintf(os.Stderr, "rsbench: BOUND VIOLATION: %v\n", err)
			code = 3
		} else {
			fmt.Printf("bound check OK: %s (query p95 %.2f <= %.2f, update p95 %.2f/%.2f <= %.2f)\n",
				rep.Name, rep.Query.P95, qp95, rep.Insert.P95, rep.Delete.P95, up95)
		}
	}
	fmt.Printf("(bound check finished in %v)\n", dur.Round(time.Millisecond))
	return code
}

// stringVar adapts a plain string to expvar.Var.
type stringVar string

func (s stringVar) String() string { return fmt.Sprintf("%q", string(s)) }
