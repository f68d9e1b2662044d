package main

import (
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"rangesearch/internal/geom"
	"rangesearch/internal/node"
	"rangesearch/internal/obs"
	"rangesearch/internal/router"
	"rangesearch/internal/server"
	"rangesearch/internal/trace"
	"rangesearch/internal/wbuf"
)

// TestTelemetryNamesDoNotMove publishes what rsserve and rsrouter publish
// (publishTelemetry), serves one request of each opcode (the reads sampled
// spans), and compares
// every /metrics family name, every /debug/vars variable with the key paths
// under rangesearch.*, and every STATS key path with
// testdata/telemetry.golden. Dashboards, the
// smoke scripts and the benchmark read these names; a change that moves
// one must say so by updating the golden file.
func TestTelemetryNamesDoNotMove(t *testing.T) {
	st, metrics := publishTelemetry(t)
	srv := server.New(st.Engine(), server.Config{
		MaxInFlight: 64,
		Metrics:     metrics,
		WriteBuffer: st.Buf,
		Spans:       obs.NewSpanRing(16),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	cl, err := server.Dial(ln.Addr().String(), server.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// The three reads are sampled spans, so the phase histograms the
	// golden file lists are fed, not only declared.
	sampled := func() *server.TraceInfo { return &server.TraceInfo{ID: trace.NewID(), Sampled: true} }
	var stats []byte
	for _, req := range []server.Request{
		{Op: server.OpPing, Data: []byte("x"), Trace: sampled()},
		{Op: server.OpInsert, P: geom.Point{X: 1, Y: 1}},
		{Op: server.OpDelete, P: geom.Point{X: 1, Y: 1}},
		{Op: server.OpQuery3, Rect: geom.Rect{XLo: 0, XHi: 10, YLo: 0, YHi: geom.MaxCoord}, Trace: sampled()},
		{Op: server.OpQuery4, Rect: geom.Rect{XLo: 0, XHi: 10, YLo: 0, YHi: 10}, Trace: sampled()},
		{Op: server.OpBatch, Batch: []server.BatchEntry{{P: geom.Point{X: 2, Y: 2}}}},
		{Op: server.OpStats},
	} {
		resp, err := cl.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", server.OpName(req.Op), err)
		}
		if req.Op == server.OpStats {
			stats = resp.Data
		}
	}
	cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	<-served

	var got []string
	var prom bytes.Buffer
	if err := obs.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) (\S+)$`).FindAllStringSubmatch(prom.String(), -1) {
		got = append(got, "metrics "+m[1]+" "+m[2])
	}
	expvar.Do(func(kv expvar.KeyValue) {
		if !strings.HasPrefix(kv.Key, "rangesearch.") {
			got = append(got, "vars "+kv.Key) // the runtime's own: cmdline, memstats
			return
		}
		got = append(got, jsonPaths(t, "vars "+kv.Key, []byte(kv.Value.String()))...)
	})
	got = append(got, jsonPaths(t, "stats", stats)...)
	sort.Strings(got)
	got = slices.Compact(got)

	want := readGolden(t)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("telemetry names moved:\n%s\nthe full list now reads:\n%s", diffLines(want, got), strings.Join(got, "\n"))
	}
	// The names the benchmark's STATS scrape reads, spelled out.
	for _, k := range []string{"epoch", "write_buffer.flushes", "write_buffer.flushed_ops", "write_buffer.flush_p50_ms",
		"write_buffer.flush_max_ms", "write_buffer.probes", "write_buffer.journal_syncs", "write_buffer.journal_bytes",
		"write_buffer.depth"} {
		if !slices.Contains(got, "stats "+k) {
			t.Errorf("STATS has no %s", k)
		}
	}
}

// publishTelemetry publishes what rsserve and rsrouter publish: a durable
// stack's page cache as "tx" and its write buffer as "serve", a -pool
// stack's cache as "file", server "main" and a two-shard router "main".
// The stacks drain when the test ends.
func publishTelemetry(t *testing.T) (*node.Stack, *server.Metrics) {
	t.Helper()
	st, err := node.Build(node.Config{Store: filepath.Join(t.TempDir(), "points.db"), PageSize: 4096,
		Durable: true, WALPages: node.DefaultWALPages,
		WriteBuffer: true, WriteBufferOps: wbuf.DefaultMaxOps, WriteBufferAge: wbuf.DefaultMaxAge})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := node.Build(node.Config{Store: filepath.Join(t.TempDir(), "pooled.db"), PageSize: 4096,
		PoolPages: 32, WriteBufferOps: wbuf.DefaultMaxOps})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*node.Stack{st, pooled} {
		publishStack(s)
		t.Cleanup(func() {
			if leaked, err := s.Drain(); err != nil || leaked != 0 {
				t.Errorf("Drain: leaked=%d err=%v", leaked, err)
			}
		})
	}
	metrics := &server.Metrics{}
	obs.Publish("rangesearch.server.main", metrics)
	obs.Publish("rangesearch.router.main", router.NewMetrics(2))
	return st, metrics
}

func readGolden(t *testing.T) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "telemetry.golden"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(string(raw)), "\n")
}

// jsonPaths lists the key path of every leaf of a JSON document, each
// prefixed with prefix. An obs.HistogramSnapshot is one leaf, and array
// elements share one "[]" path segment, so the list does not depend on how
// many buckets or shards there are.
func jsonPaths(t *testing.T, prefix string, doc []byte) []string {
	t.Helper()
	var v interface{}
	if err := json.Unmarshal(doc, &v); err != nil {
		t.Fatalf("%s: %v", prefix, err)
	}
	var out []string
	var walk func(path string, v interface{})
	walk = func(path string, v interface{}) {
		switch v := v.(type) {
		case map[string]interface{}:
			if _, ok := v["mean"]; ok && v["count"] != nil {
				out = append(out, path+" (histogram)")
				return
			}
			for k, e := range v {
				walk(path+"."+k, e)
			}
		case []interface{}:
			for _, e := range v {
				walk(path+"[]", e)
			}
		default:
			out = append(out, path)
		}
	}
	walk("", v)
	for i, p := range out {
		out[i] = prefix + " " + strings.TrimPrefix(p, ".")
	}
	return out
}

// diffLines reports the lines only one of two lists holds.
func diffLines(want, got []string) string {
	var b strings.Builder
	for _, s := range want {
		if !slices.Contains(got, s) {
			b.WriteString("- " + s + "\n")
		}
	}
	for _, s := range got {
		if !slices.Contains(want, s) {
			b.WriteString("+ " + s + "\n")
		}
	}
	return b.String()
}
