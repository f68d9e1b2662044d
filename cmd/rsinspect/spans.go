package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"

	"rangesearch/internal/obs"
	"rangesearch/internal/trace"
)

// spansMain replays a span JSONL spool (rsserve -spans, or a /spans
// endpoint dump) and summarizes it: per-op counts, wall-time and
// per-phase quantiles, I/O attribution, and the slowest spans.
func spansMain(args []string) {
	fs := flag.NewFlagSet("spans", flag.ExitOnError)
	path := fs.String("f", "", "path to a span JSONL file ('-' = stdin)")
	url := fs.String("url", "", "fetch spans from a live /spans endpoint instead of a file")
	top := fs.Int("top", 5, "number of slowest spans to print in full")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: rsinspect spans (-f spans.jsonl | -url http://host:port/spans) [-top N]")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if (*path == "") == (*url == "") {
		fs.Usage()
		os.Exit(2)
	}

	var src io.ReadCloser
	switch {
	case *url != "":
		resp, err := http.Get(*url)
		if err != nil {
			fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			fatal(fmt.Errorf("GET %s: %s", *url, resp.Status))
		}
		src = resp.Body
	case *path == "-":
		src = os.Stdin
	default:
		f, err := os.Open(*path)
		if err != nil {
			fatal(err)
		}
		src = f
	}
	defer src.Close()

	type opAgg struct {
		count  uint64
		wall   obs.Histogram
		ios    obs.Histogram
		phases [trace.NumPhases]obs.Histogram
		errs   uint64
	}
	byOp := map[string]*opAgg{}
	var slowest []trace.Record
	var total uint64

	err := obs.ScanSpans(src, func(rec trace.Record) error {
		total++
		a := byOp[rec.Op]
		if a == nil {
			a = &opAgg{}
			byOp[rec.Op] = a
		}
		a.count++
		a.wall.Observe(uint64(rec.WallNs))
		a.ios.Observe(uint64(rec.IOs))
		for name, ns := range rec.Phases {
			if p, perr := trace.ParsePhase(name); perr == nil {
				a.phases[p].Observe(uint64(ns))
			}
		}
		if rec.Status != "" && rec.Status != "ok" {
			a.errs++
		}
		slowest = append(slowest, rec)
		sort.Slice(slowest, func(i, j int) bool { return slowest[i].WallNs > slowest[j].WallNs })
		if len(slowest) > *top {
			slowest = slowest[:*top]
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
	if total == 0 {
		fmt.Println("no spans")
		return
	}

	fmt.Printf("%d spans\n", total)
	opNames := make([]string, 0, len(byOp))
	for op := range byOp {
		opNames = append(opNames, op)
	}
	sort.Strings(opNames)
	for _, op := range opNames {
		a := byOp[op]
		fmt.Printf("\n%s: n=%d wall p50=%.3fms p99=%.3fms max=%.3fms  ios p50=%d max=%d",
			op, a.count,
			float64(a.wall.Quantile(0.50))/1e6,
			float64(a.wall.Quantile(0.99))/1e6,
			float64(a.wall.Max())/1e6,
			a.ios.Quantile(0.50), a.ios.Max())
		if a.errs > 0 {
			fmt.Printf("  non-ok=%d", a.errs)
		}
		fmt.Println()
		for p := trace.Phase(0); p < trace.NumPhases; p++ {
			h := &a.phases[p]
			if h.Count() == 0 {
				continue
			}
			fmt.Printf("  %-11s n=%-6d p50=%.3fms p99=%.3fms\n",
				p, h.Count(),
				float64(h.Quantile(0.50))/1e6,
				float64(h.Quantile(0.99))/1e6)
		}
	}

	if len(slowest) > 0 {
		fmt.Printf("\nslowest %d:\n", len(slowest))
		for _, rec := range slowest {
			var phases []string
			for p := trace.Phase(0); p < trace.NumPhases; p++ {
				if ns, ok := rec.Phases[p.String()]; ok {
					phases = append(phases, fmt.Sprintf("%s=%.3fms", p, float64(ns)/1e6))
				}
			}
			fmt.Printf("  %.3fms %-7s ios=%-4d trace=%s status=%s %s\n",
				float64(rec.WallNs)/1e6, rec.Op, rec.IOs,
				rec.TraceID, rec.Status, strings.Join(phases, " "))
		}
	}
}

// promMain fetches (or reads) a Prometheus text exposition and validates
// it with obs.CheckExposition — the same check the chaos harness runs
// against every process's /metrics scrape.
func promMain(args []string) {
	fs := flag.NewFlagSet("prom", flag.ExitOnError)
	path := fs.String("f", "", "path to an exposition file ('-' = stdin)")
	url := fs.String("url", "", "scrape a live /metrics endpoint instead of a file")
	out := fs.String("o", "", "also copy the exposition to this file")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: rsinspect prom (-f metrics.prom | -url http://host:port/metrics) [-o copy.prom]")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if (*path == "") == (*url == "") {
		fs.Usage()
		os.Exit(2)
	}

	var raw []byte
	var err error
	switch {
	case *url != "":
		resp, herr := http.Get(*url)
		if herr != nil {
			fatal(herr)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fatal(fmt.Errorf("GET %s: %s", *url, resp.Status))
		}
		raw, err = io.ReadAll(resp.Body)
	case *path == "-":
		raw, err = io.ReadAll(os.Stdin)
	default:
		raw, err = os.ReadFile(*path)
	}
	if err != nil {
		fatal(err)
	}

	samples, err := obs.CheckExposition(strings.NewReader(string(raw)))
	if err != nil {
		fmt.Fprintf(os.Stderr, "rsinspect: invalid exposition: %v\n", err)
		os.Exit(2)
	}
	if *out != "" {
		if werr := os.WriteFile(*out, raw, 0o644); werr != nil {
			fatal(werr)
		}
	}
	fmt.Printf("exposition ok: %d samples\n", samples)
}
