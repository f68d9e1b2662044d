package server

import (
	"sync"
	"testing"
	"time"

	"rangesearch/internal/netfault"
)

// TestSoakLoadAgainstServer is the acceptance gate for the serving layer:
// an in-process rsload-vs-rsserve soak. Pipelined mixed reads and writes
// from many connections on one shared key pool, zipf-skewed so a few hot
// points see many concurrent ops, must complete with zero protocol errors
// and a history that is linearizable point by point, drain must leave the
// store scrub-clean, and the per-RPC latency histograms must be readable.
// Run it under -race for the full claim.
func TestSoakLoadAgainstServer(t *testing.T) {
	dur := 3 * time.Second
	workers := 8
	if testing.Short() {
		dur = 500 * time.Millisecond
		workers = 4
	}
	m := &Metrics{}
	ts := newTestServer(t, Config{Metrics: m})

	rep, err := RunLoad(LoadConfig{
		Addr:       ts.addr,
		Workers:    workers,
		Duration:   dur,
		Pipeline:   8,
		Verify:     true,
		Domain:     1 << 16,
		Dist:       "zipf",
		BatchEvery: 50,
		BatchSize:  12,
		Seed:       42,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	t.Logf("soak: %d ops (%.0f/s), %d reads, %d writes, %d points read, busy=%d",
		rep.Ops, rep.OpsPerSec, rep.Reads, rep.Writes, rep.PointsRead, rep.Busy)
	requireSameKeyTraffic(t, rep)

	if rep.Failed() {
		t.Fatalf("soak failed: proto=%d consistency=%d transport=%d first=%s",
			rep.ProtoErrors, rep.ConsistencyErrors, rep.TransportErrors, rep.FirstError)
	}
	if rep.Ops == 0 || rep.Reads == 0 || rep.Writes == 0 {
		t.Fatalf("soak did no work: %+v", rep)
	}

	// Latency quantiles are present for the ops that ran.
	for _, op := range []string{"insert", "query3"} {
		st, ok := rep.PerOp[op]
		if !ok || st.Count == 0 || st.P99Ms <= 0 {
			t.Fatalf("missing %s latency stats: %+v", op, rep.PerOp)
		}
	}
	// And the server-side histograms agree that traffic happened.
	if lat := m.Snapshot().Ops["insert"].LatNs; lat.Count == 0 || lat.Max == 0 {
		t.Fatal("server-side insert latency histogram is empty")
	}

	ts.shutdown(t)
	ts.assertScrubClean(t)
}

// TestSoakUnderSaturation drives a tiny admission gate hard: BUSY
// shedding must be load shedding only — shed ops are not executed, so the
// history check treats them as no-ops and no errors of any class appear.
func TestSoakUnderSaturation(t *testing.T) {
	dur := time.Second
	if testing.Short() {
		dur = 300 * time.Millisecond
	}
	m := &Metrics{}
	ts := newTestServer(t, Config{MaxInFlight: 1, Metrics: m})

	rep, err := RunLoad(LoadConfig{
		Addr:     ts.addr,
		Workers:  6,
		Duration: dur,
		Pipeline: 4,
		Verify:   true,
		Domain:   1 << 12,
		Seed:     7,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	t.Logf("saturation: %d ops, busy=%d", rep.Ops, rep.Busy)
	requireSameKeyTraffic(t, rep)
	if rep.Failed() {
		t.Fatalf("saturation soak failed: proto=%d consistency=%d transport=%d first=%s",
			rep.ProtoErrors, rep.ConsistencyErrors, rep.TransportErrors, rep.FirstError)
	}
	ts.shutdown(t)
	ts.assertScrubClean(t)
}

// TestSoakResilientUnderFaults is the in-process chaos gate: the full
// verified workload runs through a netfault proxy that hard-resets every
// connection (RST) a few times per second. The resilient clients must
// reconnect, re-send their idempotency-stamped pipelines, and finish with
// ZERO errors of any class — including consistency: every re-sent write
// must still take effect inside its window. Run under -race for the full
// claim.
func TestSoakResilientUnderFaults(t *testing.T) {
	dur := 3 * time.Second
	cutEvery := 300 * time.Millisecond
	if testing.Short() {
		dur = 800 * time.Millisecond
		cutEvery = 150 * time.Millisecond
	}
	m := &Metrics{}
	ts := newTestServer(t, Config{Metrics: m, RequestTimeout: 5 * time.Second})

	proxy, err := netfault.New(ts.addr, netfault.Options{Seed: 99})
	if err != nil {
		t.Fatalf("netfault.New: %v", err)
	}
	defer proxy.Close()
	proxy.SetLatency(200*time.Microsecond, 300*time.Microsecond)

	stop := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		tick := time.NewTicker(cutEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				proxy.CutAll()
			}
		}
	}()

	rep, err := RunLoad(LoadConfig{
		Addr:      proxy.Addr(),
		Workers:   6,
		Duration:  dur,
		Pipeline:  4,
		Verify:    true,
		Domain:    1 << 16,
		Seed:      7,
		Resilient: true,
		Retry:     RetryPolicy{MaxAttempts: 50, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond},
	})
	close(stop)
	chaosWG.Wait()
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	t.Logf("resilient soak: %d ops (%.0f/s), cuts=%d reconnects=%d resent=%d unknown=%d",
		rep.Ops, rep.OpsPerSec, proxy.Stats().Cuts, rep.Reconnects, rep.Resent, rep.UnknownWrites)
	requireSameKeyTraffic(t, rep)

	if rep.Failed() {
		t.Fatalf("resilient soak failed: proto=%d consistency=%d transport=%d first=%s",
			rep.ProtoErrors, rep.ConsistencyErrors, rep.TransportErrors, rep.FirstError)
	}
	if rep.Ops == 0 || rep.Writes == 0 {
		t.Fatalf("resilient soak did no work: %+v", rep)
	}
	if cuts := proxy.Stats().Cuts; cuts == 0 {
		t.Fatal("fault proxy never cut a connection; the test exercised nothing")
	}
	// Every worker connected at least once, and the cuts forced extras.
	if rep.Reconnects < 6 {
		t.Fatalf("Reconnects = %d, want >= one per worker", rep.Reconnects)
	}

	proxy.Close()
	ts.shutdown(t)
	ts.assertScrubClean(t)
}

// requireSameKeyTraffic logs the share of writes that overlapped another
// op on their point and fails a run that had none: the history check then
// had no concurrency to order.
func requireSameKeyTraffic(t *testing.T, rep *LoadReport) {
	t.Helper()
	t.Logf("same-key overlap: %.3f of writes", rep.SameKeyOverlap)
	if rep.SameKeyOverlap == 0 {
		t.Fatal("no write overlapped another op on its point")
	}
}
