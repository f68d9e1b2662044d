// Package netfault is a fault-injecting TCP proxy for exercising the
// serving stack's failure paths: it sits between a client and a server
// and degrades the byte streams flowing through it on demand — added
// latency and jitter, bandwidth caps, random byte corruption,
// mid-stream connection resets, and blackholes (accepted but unanswered
// traffic). Every random decision flows from a caller-supplied seed, so
// a failing chaos run replays.
//
// The proxy shapes both directions independently: each accepted client
// connection gets an upstream dial and two pump goroutines
// (client→upstream, upstream→client), each pump owning a seeded RNG and
// reading the shared, runtime-mutable fault knobs before every chunk.
// Faults therefore land mid-frame, which is exactly the hard case for a
// length-prefixed protocol: a reset after the length word but before the
// body, a stall halfway through a pipelined burst.
//
// Knobs can be driven programmatically (SetLatency, CutAll, ...) or by a
// compact script DSL (ParseScript/RunScript) of timed directives, e.g.
//
//	500ms:latency=20ms;2s:cut;3s:blackhole=on;4s:blackhole=off
package netfault

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Proxy. The zero value forwards faithfully: no
// faults until a knob is turned.
type Options struct {
	// Listen is the address to accept clients on ("127.0.0.1:0" for an
	// ephemeral port; the default).
	Listen string
	// Seed seeds every per-pump RNG (deterministically derived, one
	// stream per pump). Zero selects 1.
	Seed int64
	// Latency delays each forwarded chunk (both directions).
	Latency time.Duration
	// Jitter widens Latency uniformly to [Latency, Latency+Jitter).
	Jitter time.Duration
	// BandwidthBPS caps forwarded bytes per second per direction
	// (0 = unlimited).
	BandwidthBPS int
	// CorruptProb flips one random bit in a forwarded chunk with this
	// probability per chunk [0,1). Corruption is invisible to the framing
	// layer — the length prefix still parses — so it exercises the
	// payload decoders.
	CorruptProb float64
	// CutAfterBytes hard-resets each connection (RST, not FIN) after
	// roughly this many bytes have crossed it in either direction
	// (0 = never). The cut lands mid-frame more often than not.
	CutAfterBytes int64
	// Logf, when non-nil, receives one line per proxy event. Nil discards.
	Logf func(format string, args ...interface{})
}

// faults is the shared, mutable knob block; pumps read it before every
// chunk under the lock.
type faults struct {
	latency      time.Duration
	jitter       time.Duration
	bandwidthBPS int
	corruptProb  float64
	cutAfter     int64
	blackhole    bool
}

// Stats counts the proxy's traffic and injected faults.
type Stats struct {
	Accepted    uint64 `json:"accepted"`
	Active      int64  `json:"active"`
	BytesUp     uint64 `json:"bytes_up"`   // client → upstream
	BytesDown   uint64 `json:"bytes_down"` // upstream → client
	Cuts        uint64 `json:"cuts"`       // RST resets injected
	Corruptions uint64 `json:"corruptions"`
	DialErrors  uint64 `json:"dial_errors"`
}

// Proxy is one listener forwarding to one upstream address with
// injectable faults. Safe for concurrent use; knobs may be turned while
// connections are live.
type Proxy struct {
	upstream string
	opts     Options
	ln       net.Listener
	seed     int64

	mu     sync.Mutex
	flt    faults
	conns  map[*proxyConn]struct{}
	closed bool
	pumpID int64

	accepted    atomic.Uint64
	active      atomic.Int64
	bytesUp     atomic.Uint64
	bytesDown   atomic.Uint64
	cuts        atomic.Uint64
	corruptions atomic.Uint64
	dialErrs    atomic.Uint64

	wg sync.WaitGroup
}

// proxyConn is one client connection and its upstream pair.
type proxyConn struct {
	client   net.Conn
	upstream net.Conn
	moved    atomic.Int64 // bytes across either direction, for cutAfter
	cut      atomic.Bool
}

// New starts a proxy forwarding Listen → upstream. It accepts in the
// background until Close.
func New(upstream string, opts Options) (*Proxy, error) {
	if opts.Listen == "" {
		opts.Listen = "127.0.0.1:0"
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		upstream: upstream,
		opts:     opts,
		ln:       ln,
		seed:     seed,
		flt: faults{
			latency:      opts.Latency,
			jitter:       opts.Jitter,
			bandwidthBPS: opts.BandwidthBPS,
			corruptProb:  opts.CorruptProb,
			cutAfter:     opts.CutAfterBytes,
		},
		conns: map[*proxyConn]struct{}{},
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the address clients should dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Close stops accepting, resets every live connection, and waits for the
// pumps to drain.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.CutAll()
	p.wg.Wait()
	return err
}

// Stats returns a snapshot of the traffic counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Accepted:    p.accepted.Load(),
		Active:      p.active.Load(),
		BytesUp:     p.bytesUp.Load(),
		BytesDown:   p.bytesDown.Load(),
		Cuts:        p.cuts.Load(),
		Corruptions: p.corruptions.Load(),
		DialErrors:  p.dialErrs.Load(),
	}
}

// SetLatency changes the per-chunk delay (and jitter) for future chunks.
func (p *Proxy) SetLatency(base, jitter time.Duration) {
	p.mu.Lock()
	p.flt.latency, p.flt.jitter = base, jitter
	p.mu.Unlock()
}

// SetBandwidth changes the per-direction byte-rate cap (0 = unlimited).
func (p *Proxy) SetBandwidth(bps int) {
	p.mu.Lock()
	p.flt.bandwidthBPS = bps
	p.mu.Unlock()
}

// SetCorrupt changes the per-chunk bit-flip probability.
func (p *Proxy) SetCorrupt(prob float64) {
	p.mu.Lock()
	p.flt.corruptProb = prob
	p.mu.Unlock()
}

// SetCutAfter arms (or, with 0, disarms) the byte-count reset trigger
// for current and future connections.
func (p *Proxy) SetCutAfter(n int64) {
	p.mu.Lock()
	p.flt.cutAfter = n
	p.mu.Unlock()
}

// SetBlackhole, when on, stalls all forwarding without closing anything:
// connections stay established, bytes stop moving — the failure mode
// deadlines exist for.
func (p *Proxy) SetBlackhole(on bool) {
	p.mu.Lock()
	p.flt.blackhole = on
	p.mu.Unlock()
}

// CutAll hard-resets every live connection (SO_LINGER 0 → RST). New
// connections are still accepted; pair with SetBlackhole to simulate a
// dead network.
func (p *Proxy) CutAll() {
	p.mu.Lock()
	conns := make([]*proxyConn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		p.cutConn(c)
	}
}

func (p *Proxy) logf(format string, args ...interface{}) {
	if p.opts.Logf != nil {
		p.opts.Logf(format, args...)
	}
}

// reset closes both halves of c with RST (SetLinger(0) discards
// untransmitted data and sends a reset on Close), so each peer sees
// ECONNRESET mid-frame rather than a clean EOF. Only the first reset of a
// connection acts; it bumps count (when non-nil) before closing anything,
// so a peer that has seen the reset also sees it counted.
func (c *proxyConn) reset(count *atomic.Uint64) {
	if !c.cut.CompareAndSwap(false, true) {
		return
	}
	if count != nil {
		count.Add(1)
	}
	for _, conn := range []net.Conn{c.client, c.upstream} {
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetLinger(0)
		}
		conn.Close()
	}
}

// cutConn is a fault-injected reset: it counts toward Stats.Cuts, unlike
// the reset propagation the pumps do when one side dies on its own.
func (p *Proxy) cutConn(c *proxyConn) { c.reset(&p.cuts) }

func (p *Proxy) snapshotFaults() faults {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flt
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		closed := p.closed
		p.mu.Unlock()
		if closed {
			client.Close()
			return
		}
		p.accepted.Add(1)
		p.wg.Add(1)
		go p.handle(client)
	}
}

func (p *Proxy) handle(client net.Conn) {
	defer p.wg.Done()
	up, err := net.DialTimeout("tcp", p.upstream, 5*time.Second)
	if err != nil {
		p.dialErrs.Add(1)
		p.logf("netfault: dial upstream %s: %v", p.upstream, err)
		client.Close()
		return
	}
	for _, conn := range []net.Conn{client, up} {
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true)
		}
	}
	c := &proxyConn{client: client, upstream: up}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		client.Close()
		up.Close()
		return
	}
	p.conns[c] = struct{}{}
	id1 := p.pumpID
	p.pumpID += 2
	p.mu.Unlock()
	p.active.Add(1)

	var pumps sync.WaitGroup
	pumps.Add(2)
	go p.pump(&pumps, c, client, up, &p.bytesUp, id1)
	go p.pump(&pumps, c, up, client, &p.bytesDown, id1+1)
	pumps.Wait()

	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
	p.active.Add(-1)
	client.Close()
	up.Close()
}

// chunkSize is the shaping granularity: small enough that latency and
// cuts land inside multi-hundred-byte frames, large enough to move bulk
// traffic.
const chunkSize = 512

// pump forwards src → dst one chunk at a time, consulting the fault
// knobs before each chunk. Each pump derives its own RNG from the proxy
// seed and pump id, so runs replay regardless of goroutine interleaving.
func (p *Proxy) pump(wg *sync.WaitGroup, c *proxyConn, src, dst net.Conn, counter *atomic.Uint64, id int64) {
	defer wg.Done()
	rng := rand.New(rand.NewSource(p.seed ^ (id+1)*0x5851f42d4c957f2d))
	buf := make([]byte, chunkSize)
	for {
		_ = src.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		n, err := src.Read(buf)
		if n > 0 {
			f := p.snapshotFaults()
			for f.blackhole && !c.cut.Load() {
				// Hold the bytes: the connection looks alive but nothing
				// moves. Re-check every few ms so un-blackholing resumes.
				time.Sleep(5 * time.Millisecond)
				f = p.snapshotFaults()
			}
			if c.cut.Load() {
				return
			}
			if f.latency > 0 || f.jitter > 0 {
				d := f.latency
				if f.jitter > 0 {
					d += time.Duration(rng.Int63n(int64(f.jitter)))
				}
				time.Sleep(d)
			}
			if f.bandwidthBPS > 0 {
				time.Sleep(time.Duration(int64(n) * int64(time.Second) / int64(f.bandwidthBPS)))
			}
			if f.corruptProb > 0 && rng.Float64() < f.corruptProb {
				bit := rng.Intn(n * 8)
				buf[bit/8] ^= 1 << (bit % 8)
				p.corruptions.Add(1)
			}
			// Count before the write, like a cut: once dst has the bytes the
			// far side can answer, and a client reading Stats after the
			// answer must see them counted.
			counter.Add(uint64(n))
			if _, werr := dst.Write(buf[:n]); werr != nil {
				counter.Add(^uint64(n - 1)) // not forwarded after all
				return
			}
			if moved := c.moved.Add(int64(n)); f.cutAfter > 0 && moved >= f.cutAfter {
				p.logf("netfault: cutting connection after %d bytes", moved)
				p.cutConn(c)
				return
			}
		}
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue // idle poll tick; lets blackhole/cut take effect promptly
			}
			if err != io.EOF {
				// A hard error — e.g. the upstream RSTing after a kill —
				// ends the whole connection. Propagate it as a reset so
				// the peer learns immediately; leaving the other half
				// alive would strand a blocked client on its own read
				// deadline (tens of seconds) instead.
				c.reset(nil)
				return
			}
			// Half-close: propagate EOF downstream, stop this pump.
			if tc, ok := dst.(*net.TCPConn); ok {
				_ = tc.CloseWrite()
			}
			return
		}
	}
}

// String describes the proxy for logs.
func (p *Proxy) String() string {
	return fmt.Sprintf("netfault proxy %s → %s", p.Addr(), p.upstream)
}
