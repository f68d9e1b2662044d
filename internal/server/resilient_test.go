package server

import (
	"errors"
	"net"
	"testing"
	"time"

	"rangesearch/internal/geom"
)

// noSleep is a RetryPolicy Sleep that yields without wall-clock cost.
func noSleep(time.Duration) {}

// fastRetry is a retry policy that runs the whole backoff schedule in
// microseconds of real time.
func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: attempts,
		BaseDelay:   time.Microsecond,
		MaxDelay:    10 * time.Microsecond,
		Sleep:       func(d time.Duration) { time.Sleep(d) },
	}
}

// TestResilientQueueWhileDown exercises the lazy-dial path: requests sent
// while the server is unreachable queue client-side, and the first Recv
// connects and replays the whole pipeline in order.
func TestResilientQueueWhileDown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()

	rc := NewResilient(addr, ResilientOptions{Retry: fastRetry(20), Seed: 1})
	defer rc.Close()

	const n = 8
	for i := 0; i < n; i++ {
		if err := rc.Send(Request{Op: OpInsert, P: geom.Point{X: int64(i), Y: int64(i)}}, i); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	if rc.Pending() != n {
		t.Fatalf("Pending = %d, want %d", rc.Pending(), n)
	}

	// Only now does a server start accepting on the reserved address.
	ts := newTestServerOn(t, Config{}, ln, nil)

	for i := 0; i < n; i++ {
		res, err := rc.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if res.Tag != i {
			t.Fatalf("Recv %d: tag = %v, want %d", i, res.Tag, i)
		}
		if res.Resp.Status != StatusOK {
			t.Fatalf("Recv %d: status %d msg %q", i, res.Resp.Status, res.Resp.Msg)
		}
		if res.Retried {
			t.Fatalf("Recv %d: Retried = true, want false (a deferred first send is a single transmission, not a re-send)", i)
		}
		if res.Req.Idem == nil {
			t.Fatalf("Recv %d: insert was not stamped with an IdemID", i)
		}
	}

	st := rc.Stats()
	if st.Reconnects != 1 || st.Resent != 0 {
		t.Fatalf("stats = %+v, want 1 reconnect, 0 resent", st)
	}

	// The writes all landed exactly once.
	pts, err := rc.Do(Request{Op: OpQuery4, Rect: geom.Rect{XLo: 0, XHi: n, YLo: 0, YHi: n}})
	if err != nil {
		t.Fatalf("Query4: %v", err)
	}
	if len(pts.Points) != n {
		t.Fatalf("Query4 returned %d points, want %d", len(pts.Points), n)
	}

	rc.Close()
	ts.shutdown(t)
}

// TestResilientReconnectAfterRestart kills the server under an idle
// client and verifies the next operation transparently reconnects to the
// replacement listening on the same address.
func TestResilientReconnectAfterRestart(t *testing.T) {
	ts := newTestServer(t, Config{})
	addr := ts.addr

	rc := NewResilient(addr, ResilientOptions{Retry: fastRetry(30), Seed: 2})
	defer rc.Close()
	if err := rc.Ping([]byte("one")); err != nil {
		t.Fatalf("Ping before restart: %v", err)
	}

	ts.shutdown(t) // closes the listener and the established connection

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	ts2 := newTestServerOn(t, Config{}, ln, nil)

	if err := rc.Ping([]byte("two")); err != nil {
		t.Fatalf("Ping after restart: %v", err)
	}
	if st := rc.Stats(); st.Reconnects != 2 {
		t.Fatalf("Reconnects = %d, want 2 (initial connect + restart)", st.Reconnects)
	}

	rc.Close()
	ts2.shutdown(t)
}

// TestResilientGivesUpWhenServerGone bounds the retry loop: with nothing
// listening, operations fail after MaxAttempts dial attempts instead of
// spinning forever.
func TestResilientGivesUpWhenServerGone(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	rc := NewResilient(addr, ResilientOptions{
		Retry:  RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond, Sleep: noSleep},
		Client: ClientOptions{DialTimeout: 200 * time.Millisecond},
		Seed:   3,
	})
	defer rc.Close()

	if err := rc.Ping(nil); err == nil {
		t.Fatal("Ping to dead address succeeded, want error")
	}
	if st := rc.Stats(); st.DialFailures != 3 {
		t.Fatalf("DialFailures = %d, want 3", st.DialFailures)
	}
}

// TestResilientTimeoutReplay drives the full ambiguous-retry loop: a 1ns
// request deadline times out every execution, the abandoned handler still
// lands its outcome in the dedup window, and the client's idempotent
// re-send is eventually answered from the window with the ORIGINAL
// response — executed exactly once.
func TestResilientTimeoutReplay(t *testing.T) {
	m := &Metrics{}
	ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond, Metrics: m})
	defer ts.shutdown(t)

	rc := NewResilient(ts.addr, ResilientOptions{
		Retry: RetryPolicy{
			MaxAttempts: 100,
			BaseDelay:   time.Microsecond,
			MaxDelay:    10 * time.Microsecond,
			// Real (tiny) sleeps so the abandoned server goroutine gets
			// scheduled and completes between retries.
			Sleep: func(time.Duration) { time.Sleep(200 * time.Microsecond) },
		},
		Seed: 4,
	})
	defer rc.Close()

	if err := rc.Send(Request{Op: OpInsert, P: geom.Point{X: 7, Y: 7}}, "w"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	res, err := rc.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if res.Resp.Status != StatusOK {
		t.Fatalf("status = %d msg %q, want OK via idempotent replay", res.Resp.Status, res.Resp.Msg)
	}
	if !res.Retried {
		t.Fatal("Retried = false, want true after TIMEOUT re-sends")
	}
	if res.Resp.Duplicate {
		t.Fatal("replayed response reports Duplicate — the insert executed more than once")
	}
	st := rc.Stats()
	if st.TimeoutRetries == 0 {
		t.Fatalf("TimeoutRetries = 0, want >0; stats %+v", st)
	}
	if timeouts, replays := m.timeouts.Load(), m.idemReplay.Load(); timeouts == 0 || replays == 0 {
		t.Fatalf("server metrics: timeouts=%d idemReplays=%d, want both >0", timeouts, replays)
	}

	// Reads are not idempotency-wrapped: with every execution timing out
	// they exhaust the budget and surface TIMEOUT (as ErrTimeout via Do).
	rcRead := NewResilient(ts.addr, ResilientOptions{
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond, Sleep: noSleep},
		Seed:  5,
	})
	defer rcRead.Close()
	resp, err := rcRead.Do(Request{Op: OpQuery3, Rect: geom.Rect{XLo: 0, XHi: 10, YLo: 0, YHi: geom.MaxCoord}})
	if err != nil {
		t.Fatalf("Do(query): transport error %v, want TIMEOUT response", err)
	}
	if resp.Status != StatusTimeout {
		t.Fatalf("query status = %d, want StatusTimeout after budget exhaustion", resp.Status)
	}
}

// TestResilientBusyRetry saturates a MaxInFlight=1 server through a slow
// handler and verifies shed requests are retried after the server's
// retry-after hint rather than surfaced.
func TestResilientBusyRetry(t *testing.T) {
	m := &Metrics{}
	ts := newTestServer(t, Config{MaxInFlight: 1, RetryAfterHint: time.Millisecond, Metrics: m})
	defer ts.shutdown(t)

	// Occupy the single admission token with a big batch on a plain
	// connection while the resilient client hammers inserts.
	blocker := ts.dial(t)
	entries := make([]BatchEntry, 2000)
	for i := range entries {
		entries[i] = BatchEntry{Kind: BatchInsert, P: geom.Point{X: int64(i), Y: int64(i)}}
	}
	if err := blocker.Send(Request{Op: OpBatch, Batch: entries}); err != nil {
		t.Fatalf("Send batch: %v", err)
	}
	if err := blocker.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	// The batch holds the token for as long as this machine needs to apply
	// 2000 inserts, so the retry budget is a wall-clock one: each backoff
	// waits for the blocker's response or a millisecond, whichever comes
	// first, and 60 000 attempts bound the wait at a minute. Once the
	// token is free the remaining inserts go through without sleeping.
	released := make(chan struct{})
	var blockerResp Response
	var blockerErr error
	go func() {
		blockerResp, blockerErr = blocker.Recv()
		close(released)
	}()
	// Let the batch take the token first: an insert that won the race
	// would shed the blocker instead of the other way round.
	for m.inflight.Load() == 0 {
		select {
		case <-released:
			t.Fatalf("blocker batch finished before taking the token: %+v / %v", blockerResp, blockerErr)
		default:
			time.Sleep(20 * time.Microsecond)
		}
	}
	var hinted time.Duration
	rc := NewResilient(ts.addr, ResilientOptions{
		Retry: RetryPolicy{
			MaxAttempts: 60000,
			BaseDelay:   time.Microsecond,
			MaxDelay:    10 * time.Microsecond,
			Sleep: func(d time.Duration) {
				hinted += d
				select {
				case <-released:
				case <-time.After(time.Millisecond):
				}
			},
		},
		Seed: 6,
	})
	defer rc.Close()

	for i := 0; i < 20; i++ {
		resp, err := rc.Do(Request{Op: OpInsert, P: geom.Point{X: int64(i), Y: -int64(i)}})
		if err != nil {
			t.Fatalf("Do insert %d: %v", i, err)
		}
		if resp.Status != StatusOK {
			t.Fatalf("insert %d: status %d, want OK after BUSY retries", i, resp.Status)
		}
	}
	<-released
	if blockerErr != nil || blockerResp.Status != StatusOK {
		t.Fatalf("batch Recv: %+v / %v", blockerResp, blockerErr)
	}
	if busy := m.busy.Load(); busy > 0 {
		if rc.Stats().BusyRetries == 0 {
			t.Fatalf("server shed %d requests but client retried none", busy)
		}
		if hinted == 0 {
			t.Fatal("BUSY retries never slept the hinted backoff")
		}
	}
}

// TestResilientRecvEmpty pins the misuse error.
func TestResilientRecvEmpty(t *testing.T) {
	rc := NewResilient("127.0.0.1:1", ResilientOptions{Seed: 8})
	defer rc.Close()
	if _, err := rc.Recv(); !errors.Is(err, ErrProto) {
		t.Fatalf("Recv with empty pipeline: err = %v, want ErrProto", err)
	}
}
