package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"rangesearch/internal/geom"
	"rangesearch/internal/obs"
	"rangesearch/internal/trace"
)

// TestMetricsObserveAllocs pins the per-RPC cost of the metrics: recording
// an RPC and a sampled span's phases allocates nothing.
func TestMetricsObserveAllocs(t *testing.T) {
	m := &Metrics{}
	sp := trace.New(trace.NewID(), "query3")
	sp.AddPhase(trace.PhaseAdmission, time.Microsecond)
	sp.AddPhase(trace.PhaseExecute, 3*time.Microsecond)
	if n := testing.AllocsPerRun(1000, func() { m.observe(OpQuery3, 5*time.Microsecond, 25, 400, false) }); n != 0 {
		t.Errorf("observe: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { m.observeSpan(sp) }); n != 0 {
		t.Errorf("observeSpan: %v allocs/op, want 0", n)
	}
}

// TestMetricsScrapeDuringPipelinedRPCs reads the one metric set through
// all three renderings — /metrics, /debug/vars and STATS — while two
// clients pipeline sampled writes and reads that update it. Run it under
// -race: every rendering must read the counters and histograms the
// handlers are writing without a data race, and every scrape must parse.
func TestMetricsScrapeDuringPipelinedRPCs(t *testing.T) {
	m := &Metrics{}
	ts := newTestServer(t, Config{Metrics: m, TraceSample: 0.5})
	defer ts.shutdown(t)
	obs.Publish("rangesearch.server.scrape", m)
	defer obs.Publish("rangesearch.server.scrape", nil)
	ms, err := obs.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	const clients, rounds, depth = 2, 20, 16
	var wg sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < clients; c++ {
		cl := ts.dial(t)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < depth; i++ {
					p := geom.Point{X: int64(c*rounds*depth + r*depth + i), Y: int64(i)}
					req := Request{Op: OpInsert, P: p}
					if i%4 == 3 {
						req = Request{Op: OpQuery3, Rect: geom.Rect{XLo: 0, XHi: p.X, YLo: 0, YHi: geom.MaxCoord}}
					}
					if err := cl.Send(req); err != nil {
						t.Errorf("Send: %v", err)
						return
					}
				}
				if err := cl.Flush(); err != nil {
					t.Errorf("Flush: %v", err)
					return
				}
				for i := 0; i < depth; i++ {
					if resp, err := cl.Recv(); err != nil || resp.Status != StatusOK {
						t.Errorf("Recv: %v (status %d)", err, resp.Status)
						return
					}
				}
			}
		}(c)
	}
	go func() { wg.Wait(); close(done) }()

	stats := ts.dial(t)
	get := func(path string) string {
		resp, err := http.Get("http://" + ms.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}
	for {
		prom := get("/metrics")
		if _, err := obs.CheckExposition(strings.NewReader(prom)); err != nil {
			t.Fatalf("/metrics: %v", err)
		}
		if !strings.Contains(prom, "# TYPE rangesearch_server_scrape_ops_insert_count counter") {
			t.Fatalf("/metrics carries no insert counter:\n%s", prom)
		}
		var vars map[string]json.RawMessage
		if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil || vars["rangesearch.server.scrape"] == nil {
			t.Fatalf("/debug/vars: %v", err)
		}
		raw, err := stats.Stats()
		if err != nil {
			t.Fatalf("STATS: %v", err)
		}
		var st StatsSnapshot
		if err := json.Unmarshal(raw, &st); err != nil || !json.Valid(st.Metrics) {
			t.Fatalf("STATS: %v\n%s", err, raw)
		}
		select {
		case <-done:
			if n := m.ops[OpInsert].count.Load(); n != clients*rounds*depth*3/4 {
				t.Fatalf("%d inserts counted, want %d", n, clients*rounds*depth*3/4)
			}
			return
		default:
		}
	}
}
