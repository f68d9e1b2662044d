package netfault

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// startEcho runs a TCP echo server and returns its address.
func startEcho(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				_, _ = io.Copy(c, c)
			}(conn)
		}
	}()
	return ln.Addr().String()
}

func startProxy(t *testing.T, upstream string, opts Options) *Proxy {
	t.Helper()
	p, err := New(upstream, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func dialT(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// roundTrip writes msg and reads len(msg) bytes back through the echo.
func roundTrip(t *testing.T, conn net.Conn, msg []byte) []byte {
	t.Helper()
	if _, err := conn.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(msg))
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	return got
}

func TestProxyForwardsFaithfully(t *testing.T) {
	p := startProxy(t, startEcho(t), Options{})
	conn := dialT(t, p.Addr())

	msg := bytes.Repeat([]byte("abcdefgh"), 300) // spans multiple chunks
	if got := roundTrip(t, conn, msg); !bytes.Equal(got, msg) {
		t.Fatal("zero-fault proxy altered the stream")
	}
	st := p.Stats()
	if st.Accepted != 1 || st.BytesUp != uint64(len(msg)) || st.BytesDown != uint64(len(msg)) {
		t.Fatalf("stats = %+v, want 1 accepted, %d bytes each way", st, len(msg))
	}
	if st.Cuts != 0 {
		t.Fatalf("stats = %+v, want no injected faults", st)
	}
}

func TestProxyLatency(t *testing.T) {
	p := startProxy(t, startEcho(t), Options{})
	p.SetLatency(30*time.Millisecond, 0)
	conn := dialT(t, p.Addr())

	start := time.Now()
	roundTrip(t, conn, []byte("ping"))
	// Both directions are delayed, so the round trip costs ≥ 2×30ms.
	if rtt := time.Since(start); rtt < 60*time.Millisecond {
		t.Fatalf("round trip took %v, want ≥ 60ms with 30ms per-direction latency", rtt)
	}
}

// TestProxyCutAll pins that an injected reset reaches the client and that
// a peer that has seen the reset also sees it counted: Stats is read only
// after the client's read failed, with no settling delay.
func TestProxyCutAll(t *testing.T) {
	p := startProxy(t, startEcho(t), Options{})
	conn := dialT(t, p.Addr())
	roundTrip(t, conn, []byte("warm")) // ensure the pipe is established

	p.CutAll()

	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("read after CutAll succeeded, want connection reset")
	}
	if st := p.Stats(); st.Cuts != 1 {
		t.Fatalf("Cuts = %d, want 1", st.Cuts)
	}
}

// TestProxyUpstreamDeathPropagates pins the reset-propagation rule: when
// the upstream dies hard (RST, as a SIGKILLed server's conns do), a
// client blocked on a read through the proxy must see an error promptly —
// not sit half-alive until its own read deadline. Dying-on-its-own is not
// an injected fault, so it must NOT count toward Stats.Cuts.
func TestProxyUpstreamDeathPropagates(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	upConns := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		upConns <- conn
	}()

	p := startProxy(t, ln.Addr().String(), Options{})
	client := dialT(t, p.Addr())
	if _, err := client.Write([]byte("hello")); err != nil {
		t.Fatalf("write: %v", err)
	}

	var up net.Conn
	select {
	case up = <-upConns:
	case <-time.After(2 * time.Second):
		t.Fatal("proxy never dialed upstream")
	}
	// Drain the forwarded bytes, then die with RST mid-conversation.
	buf := make([]byte, 16)
	_ = up.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := up.Read(buf); err != nil {
		t.Fatalf("upstream read: %v", err)
	}
	up.(*net.TCPConn).SetLinger(0)
	up.Close()

	// The client is blocked waiting for a response; it must unblock with
	// an error well before this generous deadline.
	start := time.Now()
	_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Read(buf); err == nil {
		t.Fatal("client read succeeded after upstream death")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("client read hit its own deadline: upstream death was not propagated")
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("propagation took %v", waited)
	}
	if cuts := p.Stats().Cuts; cuts != 0 {
		t.Fatalf("Cuts = %d after a natural death, want 0 (not an injected fault)", cuts)
	}
}
