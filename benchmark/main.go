//go:build linux

// Command benchmark is the repo's performance instrument: it drives the
// real rsserve binary over its wire protocol for six end-to-end metrics on
// four workloads, and an in-process tapped mirror of the same stacks for
// the per-layer ladder. See README.md in this directory.
//
//	go run ./benchmark -workload read_small_mem -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -trace 1 -out runs.jsonl          # all workloads, per-layer
//	go run ./benchmark summary runs.jsonl
//	go run ./benchmark compare parent.jsonl change.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit; BENCHMARK.json lists
// the same names (a unit test keeps the two in step).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"p95_us", "us"},
	{"cpu_us_per_op", "us"},
	{"rss_mb", "MiB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"client.query_p50_us", "us"}, {"client.query_p95_us", "us"},
	{"client.write_p50_us", "us"}, {"client.write_p95_us", "us"},
	{"client.p99_us", "us"}, {"client.max_us", "us"},
	{"client.points_per_query", "count"}, {"client.self_cpu_us_per_op", "us"},
	{"proc.user_us_per_op", "us"}, {"proc.sys_us_per_op", "us"},
	{"proc.minflt_per_op", "count"}, {"proc.alloc_kb_per_op", "KiB"},
	{"proc.gc_per_kop", "count"}, {"proc.rss_peak_mb", "MiB"},
	{"host.calib_ms_before", "ms"}, {"host.calib_ms_after", "ms"}, {"host.steal_ms", "ms"},
	{"server.self_us_per_op", "us"}, {"server.codec_ns_per_op", "ns"},
	{"server.req_bytes_per_op", "B"}, {"server.resp_bytes_per_op", "B"},
	{"core.self_us_per_op", "us"}, {"core.ops_per_commit", "count"},
	{"wbuf.flushes", "count"}, {"wbuf.ops_per_flush", "count"},
	{"wbuf.flush_p50_ms", "ms"}, {"wbuf.flush_max_ms", "ms"},
	{"wbuf.probes_per_write", "count"}, {"wbuf.journal_bytes_per_write", "B"},
	{"wbuf.journal_syncs_per_write", "count"},
	{"epst.self_us_per_op", "us"}, {"epst.ios_per_query", "count"}, {"epst.ios_per_write", "count"},
	{"eio.wrap_us_per_op", "us"}, {"eio.file_us_per_op", "us"}, {"eio.sync_us_per_op", "us"},
	{"eio.commit_us_per_write", "us"}, {"eio.sync_us_per_write", "us"},
	{"eio.fsyncs_per_write", "count"}, {"eio.pool_hit_ratio", "ratio"},
	{"eio.pool_evictions_per_op", "count"}, {"eio.phys_reads_per_op", "count"},
	{"eio.phys_writes_per_op", "count"}, {"eio.store_bytes_per_point", "B"},
	{"trace.rpc_us_per_op", "us"}, {"trace.overhead_pct", "%"}, {"trace.mirror_ratio", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is everything one run knows, for -out and the compare tool.
type record struct {
	Workload     string                 `json:"workload"`
	Seed         uint64                 `json:"seed"`
	Seconds      int                    `json:"seconds"`
	Quick        bool                   `json:"quick"`
	Trace        int                    `json:"trace"`
	Conns        int                    `json:"conns"`
	OpsPerConn   int                    `json:"ops_per_conn"` // what the streams hold; the clock may stop the run before
	WarmPerConn  int                    `json:"warm_per_conn"`
	Preload      int                    `json:"preload"`
	InputsHash   string                 `json:"inputs_hash"`
	Stamp        stamp                  `json:"stamp"`
	Disturbed    bool                   `json:"disturbed"`
	CalibMs      [2]float64             `json:"calib_ms"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	FirstFailure string                 `json:"first_failure,omitempty"`
	SetupEach    []float64              `json:"setup_s_each"`
	Window       int                    `json:"window_ops"`
	Windows      windowSeries           `json:"windows"`
	Metrics      map[string]metricValue `json:"metrics"`
	// Absent lists per-layer metrics this run could not take (a layer the
	// workload does not use, or a STATS/expvar field that is gone); they
	// are reported as 0 so the metric set is the same on every run.
	Absent []string `json:"absent,omitempty"`
	Note   string   `json:"note,omitempty"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	quick    bool
	dir      string
	rsserve  string
	out      string
	traceOut string
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "summary":
			os.Exit(summaryMain(os.Args[2:]))
		}
	}
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: same seed, same inputs")
	flag.IntVar(&o.seconds, "seconds", 40, "length of the measured phase in seconds (it ends at the first window boundary after that)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics (end-to-end run plus the tapped in-process mirror)")
	flag.BoolVar(&o.quick, "quick", false, "1/20 of the op counts and preload: a smoke test, not a measurement")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for store files and the rsserve binary (a run-private subdirectory is made and removed)")
	flag.StringVar(&o.rsserve, "rsserve", "", "prebuilt rsserve binary (default: go build ./cmd/rsserve into -dir)")
	flag.StringVar(&o.out, "out", "", "append each run's full record to this JSONL file")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the mirror's spans here as JSONL (default <dir>/trace.jsonl)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	os.Exit(runMain(o))
}

func runMain(o options) (code int) {
	if o.seconds < 1 || o.seconds > 60 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be 1..60 and -trace 0 or 1")
		return 2
	}
	var todo []spec
	if o.workload == "all" {
		todo = specs
	} else if s, ok := specByName(o.workload); ok {
		todo = []spec{s}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}

	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	runDir, err := os.MkdirTemp(o.dir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	cleanup := func() {
		killAll()
		_ = os.RemoveAll(runDir)
	}
	defer cleanup()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		cleanup()
		os.Exit(130)
	}()

	env := runEnv{bin: o.rsserve, dir: runDir, divisor: 1, layers: o.trace == 1}
	if o.quick {
		env.divisor = 20
	}
	if env.bin == "" {
		if env.bin, err = buildServer(runDir); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	st := makeStamp(o.dir)
	if o.trace == 1 && o.traceOut == "" {
		o.traceOut = filepath.Join(o.dir, "trace.jsonl")
	}

	var spans []spanRec
	for _, s := range todo {
		// A hung server must not hang the caller: past the ceiling the
		// children are killed and the run fails without a result.
		ceiling := 170 * time.Second // the acceptance driver allows a run 180 s
		timer := time.AfterFunc(ceiling, func() {
			fmt.Fprintf(os.Stderr, "benchmark: %s: wall-clock ceiling of %s reached\n", s.name, ceiling)
			cleanup()
			os.Exit(1)
		})
		rec, sp, err := runWorkload(env, s, o, st)
		timer.Stop()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", s.name, err)
			return 1
		}
		spans = append(spans, sp...)
		if o.out != "" {
			if err := appendRecord(o.out, rec); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
		printHuman(rec)
		line, _ := json.Marshal(result{
			Correct:   rec.Failed == 0,
			Attempted: rec.Attempted,
			Failed:    rec.Failed,
			Metrics:   rec.Metrics,
		})
		fmt.Println(string(line))
		if rec.Failed > 0 {
			code = 1
		}
	}
	if o.trace == 1 {
		if err := writeSpans(o.traceOut, spans); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

// runWorkload generates the inputs and runs the end-to-end measurement,
// plus the mirror when per-layer metrics were asked for.
func runWorkload(env runEnv, s spec, o options, st stamp) (*record, []spanRec, error) {
	s.preload /= env.divisor
	pl := planFor(s, o.seconds, env.divisor)
	measured, warm := pl.measured(), pl.warm
	w := generate(s, o.seed, measured, warm)
	rec := &record{
		Workload: s.name, Seed: o.seed, Seconds: o.seconds, Quick: o.quick, Trace: o.trace,
		Conns: conns, OpsPerConn: measured, WarmPerConn: warm, Preload: s.preload,
		InputsHash: w.hash(), Stamp: st, Metrics: map[string]metricValue{},
	}
	res, err := runE2E(env, w, pl)
	if err != nil {
		return nil, nil, err
	}
	rec.Disturbed, rec.CalibMs = res.Disturbed, res.CalibMs
	rec.Attempted, rec.Failed, rec.FirstFailure = res.Attempted, res.Failed, res.FirstFailure
	rec.SetupEach = res.SetupS
	rec.Window, rec.Windows = pl.window, res.Windows
	if o.trace == 0 {
		for _, d := range endToEnd {
			rec.Metrics[d.name] = metricValue{res.Metrics[d.name], d.unit}
		}
		return rec, nil, nil
	}

	layers, spans, failed, failure, err := runMirror(env, s, o.seed, res.Metrics["p50_us"])
	if err != nil {
		return nil, nil, fmt.Errorf("mirror: %w", err)
	}
	rec.Failed += failed
	if rec.FirstFailure == "" {
		rec.FirstFailure = failure
	}
	for k, v := range res.Layers {
		layers[k] = v
	}
	for _, d := range perLayer {
		v, ok := layers[d.name]
		if !ok {
			rec.Absent = append(rec.Absent, d.name)
		}
		rec.Metrics[d.name] = metricValue{v, d.unit}
	}
	if s.stack == stackBuffered {
		rec.Note = "core.self_us_per_op includes wbuf (staging, journal append+sync, merge-on-read)"
	}
	return rec, spans, nil
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, _ := json.Marshal(rec)
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printHuman writes the run to standard error so standard output stays
// machine-readable.
func printHuman(rec *record) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed=%d windows=%dx%d preload=%d inputs=%s fs=%s nproc=%d calib=%.1f/%.1fms failed=%d/%d",
		rec.Workload, rec.Seed, len(rec.Windows.OpsPerS), rec.Window, rec.Preload, rec.InputsHash,
		rec.Stamp.DataFS, rec.Stamp.NProc, rec.CalibMs[0], rec.CalibMs[1], rec.Failed, rec.Attempted)
	if rec.Disturbed {
		b.WriteString(" DISTURBED")
	}
	b.WriteByte('\n')
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "  %-32s %14.4f %s\n", k, rec.Metrics[k].Value, rec.Metrics[k].Unit)
	}
	if rec.FirstFailure != "" {
		fmt.Fprintf(&b, "  first failure: %s\n", rec.FirstFailure)
	}
	if rec.Note != "" {
		fmt.Fprintf(&b, "  note: %s\n", rec.Note)
	}
	fmt.Fprint(os.Stderr, b.String())
}
