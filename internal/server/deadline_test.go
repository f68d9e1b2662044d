package server

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rangesearch/internal/core"
	"rangesearch/internal/geom"
	"rangesearch/internal/trace"
)

// blockingEngine holds every Apply and Report until the test releases it:
// each call announces itself on entered, then waits for one value on
// release.
type blockingEngine struct {
	core.Engine
	entered chan struct{}
	release chan struct{}
}

func (b *blockingEngine) Apply(ops []core.BatchOp, sp *trace.Span) []core.BatchResult {
	b.entered <- struct{}{}
	<-b.release
	return b.Engine.Apply(ops, sp)
}

func (b *blockingEngine) Report(dst []geom.Point, q geom.Rect, sp *trace.Span) ([]geom.Point, error) {
	b.entered <- struct{}{}
	<-b.release
	return b.Engine.Report(dst, q, sp)
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func recvStatus(t *testing.T, cl *Client, what string, want byte) Response {
	t.Helper()
	resp, err := cl.Recv()
	if err != nil {
		t.Fatalf("%s: Recv: %v", what, err)
	}
	if resp.Status != want {
		t.Fatalf("%s: status %s, want %s", what, statusName(resp.Status), statusName(want))
	}
	return resp
}

var wholeQuery3 = Request{Op: OpQuery3, Rect: geom.Rect{XLo: 0, XHi: 1 << 20, YLo: 0, YHi: geom.MaxCoord}}

// TestRequestDeadlineTakeover drives the takeover step by step on one
// connection, over an engine that holds each request until released:
//
//   - a query stuck past its deadline is answered TIMEOUT, and the PING
//     pipelined behind it is answered while the query is still stuck;
//   - an IDEM insert stuck past its deadline is answered TIMEOUT; once
//     the detached execution finishes, the re-sent insert is answered
//     from the dedup window with the original outcome;
//   - a takeover that wins while Shutdown waits keeps the drain open
//     until it has answered its request and closed the connection, even
//     though the goroutine it took over from exits first;
//   - afterwards no goroutine is left behind.
func TestRequestDeadlineTakeover(t *testing.T) {
	base := runtime.NumGoroutine()
	eng := &blockingEngine{entered: make(chan struct{}, 1), release: make(chan struct{})}
	m := &Metrics{}
	ts := newTestServerWith(t, Config{RequestTimeout: 50 * time.Millisecond, Metrics: m},
		func(e core.Engine) core.Engine { eng.Engine = e; return eng })
	cl := ts.dial(t)

	if err := cl.Send(wholeQuery3); err != nil {
		t.Fatal(err)
	}
	if err := cl.Send(Request{Op: OpPing, Data: []byte("behind")}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	<-eng.entered
	recvStatus(t, cl, "stuck query", StatusTimeout)
	if resp := recvStatus(t, cl, "ping behind the stuck query", StatusOK); string(resp.Data) != "behind" {
		t.Fatalf("ping behind the stuck query echoed %q", resp.Data)
	}
	eng.release <- struct{}{} // the query was stuck until here

	id := IdemID{Client: 0x31, Seq: 1}
	ins := Request{Op: OpInsert, P: geom.Point{X: 3, Y: 4}, Idem: &id}
	if err := cl.Send(ins); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	<-eng.entered
	recvStatus(t, cl, "stuck insert", StatusTimeout)
	eng.release <- struct{}{}
	waitFor(t, "the detached insert's outcome in the dedup window", func() bool {
		_, ok := ts.srv.idem.lookup(id)
		return ok
	})
	if err := cl.Send(ins); err != nil {
		t.Fatal(err)
	}
	if resp := recvStatus(t, cl, "re-sent insert", StatusOK); resp.Duplicate {
		t.Fatal("re-sent insert reports Duplicate: the insert executed twice")
	}
	if got := m.timeouts.Load(); got != 2 {
		t.Fatalf("Metrics timeouts = %d, want 2", got)
	}

	// The hook runs once the takeover has won: it lets the stuck query
	// finish, so the goroutine that ran it detaches and exits, and then
	// watches whether Shutdown returns while the takeover still holds the
	// connection.
	drained := make(chan struct{})
	early := make(chan bool, 1)
	testHookTakeover = func() {
		eng.release <- struct{}{}
		select {
		case <-drained:
			early <- true
		case <-time.After(100 * time.Millisecond):
			early <- false
		}
	}
	defer func() { testHookTakeover = nil }()
	if err := cl.Send(wholeQuery3); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	<-eng.entered
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := ts.srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		close(drained)
	}()
	if <-early {
		t.Fatal("Shutdown returned while a takeover still owned a connection")
	}
	<-drained
	if conns := m.conns.Load(); conns != 0 {
		t.Fatalf("%d connections open after Shutdown returned", conns)
	}
	recvStatus(t, cl, "query stuck across Shutdown", StatusTimeout)
	if err := <-ts.served; err != nil {
		t.Fatalf("Serve returned %v after Shutdown, want nil", err)
	}
	waitFor(t, fmt.Sprintf("the goroutine count to return to %d", base), func() bool {
		return runtime.NumGoroutine() <= base
	})
}

// sleepyEngine delays every Report by a random duration in [around/2,
// 3·around/2), so queries finish before, at and after the deadline.
type sleepyEngine struct {
	core.Engine
	around time.Duration
	mu     sync.Mutex
	rng    *rand.Rand
}

func (e *sleepyEngine) Report(dst []geom.Point, q geom.Rect, sp *trace.Span) ([]geom.Point, error) {
	e.mu.Lock()
	d := e.around/2 + time.Duration(e.rng.Int63n(int64(e.around)))
	e.mu.Unlock()
	time.Sleep(d)
	return e.Engine.Report(dst, q, sp)
}

// TestRequestDeadlineStress races the request timer against requests that
// finish around their deadline: 4 connections each pipeline 500 rounds of
// a query that sleeps about one deadline and a PING. Every request gets
// exactly one response, in order; a query answers OK or TIMEOUT and a
// PING answers OK with its own payload. A timer firing late for the query
// is what would expire the PING behind it. Run under -race.
func TestRequestDeadlineStress(t *testing.T) {
	const (
		conns    = 4
		rounds   = 500
		deadline = 2 * time.Millisecond
	)
	ts := newTestServerWith(t, Config{RequestTimeout: deadline}, func(e core.Engine) core.Engine {
		return &sleepyEngine{Engine: e, around: deadline, rng: rand.New(rand.NewSource(31))}
	})
	var (
		wg       sync.WaitGroup
		timeouts atomic.Int64
	)
	for ci := 0; ci < conns; ci++ {
		cl := ts.dial(t)
		wg.Add(1)
		go func(ci int, cl *Client) {
			defer wg.Done()
			// One round past the last checks that no extra response is
			// left on the connection.
			for r := 0; r <= rounds; r++ {
				payload := fmt.Sprintf("conn %d round %d", ci, r)
				if r < rounds {
					if err := cl.Send(wholeQuery3); err != nil {
						t.Errorf("%s: Send: %v", payload, err)
						return
					}
				}
				if err := cl.Send(Request{Op: OpPing, Data: []byte(payload)}); err != nil {
					t.Errorf("%s: Send: %v", payload, err)
					return
				}
				if r < rounds {
					resp, err := cl.Recv()
					if err != nil {
						t.Errorf("%s: query Recv: %v", payload, err)
						return
					}
					switch resp.Status {
					case StatusOK:
					case StatusTimeout:
						timeouts.Add(1)
					default:
						t.Errorf("%s: query answered %s", payload, statusName(resp.Status))
						return
					}
				}
				resp, err := cl.Recv()
				if err != nil || resp.Status != StatusOK || string(resp.Data) != payload {
					t.Errorf("%s: ping answered %s %q (err %v)", payload, statusName(resp.Status), resp.Data, err)
					return
				}
			}
		}(ci, cl)
	}
	wg.Wait()
	t.Logf("%d of %d queries timed out", timeouts.Load(), conns*rounds)
	ts.shutdown(t)
}
