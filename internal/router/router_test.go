package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"rangesearch/internal/core"
	"rangesearch/internal/core/modeltest"
	"rangesearch/internal/eio"
	"rangesearch/internal/epst"
	"rangesearch/internal/geom"
	"rangesearch/internal/server"
)

// testNode is one in-process rsserve shard: a ThreeSided EPST under
// core.Concurrent on a loopback listener. With dir != "" the stack is
// file-backed and durable (WAL under TxStore), so write acks carry real
// LSNs and the barrier-translation path is exercised end to end.
type testNode struct {
	srv    *server.Server
	addr   string
	served chan error
}

func launchNode(dir string) (*testNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var base eio.Store
	var tx *eio.TxStore
	if dir != "" {
		fs, err := eio.CreateFileStore(filepath.Join(dir, "shard.db"), 4096)
		if err != nil {
			ln.Close()
			return nil, err
		}
		tx, err = eio.NewTxStore(fs, eio.TxOptions{})
		if err != nil {
			ln.Close()
			return nil, err
		}
		base = tx
	} else {
		base = eio.NewMemStore(4096)
	}
	snap := eio.NewSnapStore(base, 0)
	idx, err := core.NewThreeSided(snap, epst.Options{})
	if err != nil {
		ln.Close()
		return nil, err
	}
	hdr := idx.HeaderID()
	if _, err := snap.Commit(); err != nil {
		ln.Close()
		return nil, err
	}
	var writer core.Index = idx
	if tx != nil {
		writer = core.NewDurable(idx, tx)
	}
	conc, err := core.NewConcurrent(writer, snap,
		func(s eio.Store) (core.Index, error) { return core.OpenThreeSided(s, hdr) },
		core.ConcurrentOptions{})
	if err != nil {
		ln.Close()
		return nil, err
	}
	srv := server.New(conc, server.Config{})
	n := &testNode{srv: srv, addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { n.served <- srv.Serve(ln) }()
	return n, nil
}

func (n *testNode) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx)
	<-n.served
}

// testFleet is a complete sharded deployment: N in-process shards behind
// one Router on a loopback listener.
type testFleet struct {
	rt      *Router
	addr    string
	metrics *Metrics
	nodes   []*testNode
	served  chan error
}

// launchFleet starts one shard per interval of the partition that bounds
// describes ("x<b" per bound, plus the final "rest" shard). dirFor, when
// non-nil, makes shard i durable in dirFor(i).
func launchFleet(bounds []int64, dirFor func(i int) string) (*testFleet, error) {
	f := &testFleet{served: make(chan error, 1)}
	fail := func(err error) (*testFleet, error) {
		f.stop()
		return nil, err
	}
	var spec []string
	for i := 0; i <= len(bounds); i++ {
		dir := ""
		if dirFor != nil {
			dir = dirFor(i)
		}
		n, err := launchNode(dir)
		if err != nil {
			return fail(err)
		}
		f.nodes = append(f.nodes, n)
		if i < len(bounds) {
			spec = append(spec, "x<"+strconv.FormatInt(bounds[i], 10)+"@"+n.addr)
		} else {
			spec = append(spec, "rest@"+n.addr)
		}
	}
	m, err := ParseShards(strings.Join(spec, ","))
	if err != nil {
		return fail(err)
	}
	f.metrics = NewMetrics(len(m.Shards))
	f.rt, err = New(m, Options{Metrics: f.metrics, Seed: 1})
	if err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	f.addr = ln.Addr().String()
	go func() { f.served <- f.rt.Serve(ln) }()
	return f, nil
}

func (f *testFleet) stop() {
	if f.rt != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = f.rt.Shutdown(ctx)
		cancel()
		<-f.served
	}
	for _, n := range f.nodes {
		n.stop()
	}
}

// clientIndex adapts a wire client to core.Index, so the modeltest
// harness can replay the same op stream against a network endpoint —
// a single server or a router, interchangeably — that it replays against
// in-process structures. Rects with an open top go through QUERY3, the
// rest through QUERY4, exercising both scatter paths.
type clientIndex struct{ cl *server.Client }

func (ci *clientIndex) Insert(p geom.Point) error {
	dup, err := ci.cl.Insert(p)
	if err != nil {
		return err
	}
	if dup {
		return core.ErrDuplicate
	}
	return nil
}

func (ci *clientIndex) Delete(p geom.Point) (bool, error) { return ci.cl.Delete(p) }

func (ci *clientIndex) Query(dst []geom.Point, q geom.Rect) ([]geom.Point, error) {
	var pts []geom.Point
	var err error
	if q.YHi == geom.MaxCoord {
		pts, err = ci.cl.Query3(q.XLo, q.XHi, q.YLo)
	} else {
		pts, err = ci.cl.Query4(q)
	}
	if err != nil {
		return dst, err
	}
	return append(dst, pts...), nil
}

func (ci *clientIndex) Len() (int, error) {
	raw, err := ci.cl.Stats()
	if err != nil {
		return 0, err
	}
	var st struct {
		Len int `json:"len"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return 0, err
	}
	return st.Len, nil
}

func (ci *clientIndex) Destroy() error { return nil }

// TestDifferentialRouterVsSingle replays the same seeded op streams
// against an unsharded in-process rsserve and a 3-shard router fleet via
// the modeltest harness: both must agree with the reference model on
// every query result (sorted), duplicate/found flag, and length — which
// makes them agree with each other. A divergence is ddmin-shrunk to a
// minimal sequence and persisted as a replayable artifact.
func TestDifferentialRouterVsSingle(t *testing.T) {
	const (
		nOps       = 2500
		coordRange = 4096
	)
	bounds := []int64{coordRange / 3, 2 * coordRange / 3}

	single := modeltest.Config{Name: "router-diff-single", New: func() (core.Index, func(), error) {
		n, err := launchNode("")
		if err != nil {
			return nil, nil, err
		}
		cl, err := server.Dial(n.addr, server.ClientOptions{})
		if err != nil {
			n.stop()
			return nil, nil, err
		}
		return &clientIndex{cl}, func() { cl.Close(); n.stop() }, nil
	}}
	sharded := modeltest.Config{Name: "router-diff-sharded3", New: func() (core.Index, func(), error) {
		f, err := launchFleet(bounds, nil)
		if err != nil {
			return nil, nil, err
		}
		cl, err := server.Dial(f.addr, server.ClientOptions{})
		if err != nil {
			f.stop()
			return nil, nil, err
		}
		return &clientIndex{cl}, func() { cl.Close(); f.stop() }, nil
	}}

	for _, seed := range []int64{1, 2} {
		ops := modeltest.Generate(seed, nOps, coordRange)
		for _, cfg := range []modeltest.Config{single, sharded} {
			err := modeltest.Replay(cfg.New, ops)
			var d *modeltest.Divergence
			if errors.As(err, &d) {
				shrunk := modeltest.Shrink(cfg.New, ops)
				path, werr := modeltest.WriteArtifact(cfg.Name, seed, d.Detail, shrunk)
				t.Fatalf("%s seed %d diverged: %v\nshrunk to %d ops (artifact %q, write err %v)",
					cfg.Name, seed, d, len(shrunk), path, werr)
			}
			if err != nil {
				t.Fatalf("%s seed %d: infrastructure: %v", cfg.Name, seed, err)
			}
		}
	}
}

// TestScatterContactsOnlyOverlappingShards pins the routing guarantee at
// the network level: a query whose x-interval misses a shard's range
// never produces a sub-read on that shard (checked through the per-shard
// routing counters), while the results remain exactly what one server
// would return.
func TestScatterContactsOnlyOverlappingShards(t *testing.T) {
	f, err := launchFleet([]int64{100, 200}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	cl, err := server.Dial(f.addr, server.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Two points per shard.
	for _, p := range []geom.Point{{X: 10, Y: 1}, {X: 99, Y: 2}, {X: 100, Y: 3}, {X: 150, Y: 4}, {X: 200, Y: 5}, {X: 777, Y: 6}} {
		if _, err := cl.Insert(p); err != nil {
			t.Fatalf("insert %v: %v", p, err)
		}
	}
	queries := func() [3]uint64 {
		sh := f.metrics.shards
		return [3]uint64{sh[0].queries.Load(), sh[1].queries.Load(), sh[2].queries.Load()}
	}

	cases := []struct {
		name      string
		xlo, xhi  int64
		contacted [3]bool
		want      []geom.Point
	}{
		{"inside-middle", 120, 180, [3]bool{false, true, false}, []geom.Point{{X: 150, Y: 4}}},
		{"spans-first-two", 50, 150, [3]bool{true, true, false}, []geom.Point{{X: 99, Y: 2}, {X: 100, Y: 3}, {X: 150, Y: 4}}},
		{"last-only", 300, 1000, [3]bool{false, false, true}, []geom.Point{{X: 777, Y: 6}}},
		{"all", 0, 1000, [3]bool{true, true, true}, []geom.Point{{X: 10, Y: 1}, {X: 99, Y: 2}, {X: 100, Y: 3}, {X: 150, Y: 4}, {X: 200, Y: 5}, {X: 777, Y: 6}}},
	}
	for _, tc := range cases {
		before := queries()
		got, err := cl.Query3(tc.xlo, tc.xhi, geom.MinCoord+1)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		after := queries()
		for i := range after {
			contacted := after[i] > before[i]
			if contacted != tc.contacted[i] {
				t.Errorf("%s: shard %d contacted=%v, want %v", tc.name, i, contacted, tc.contacted[i])
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRouterMetricsThroughStats reads the routing metric set back through
// the router's STATS "router" section: the per-shard list renders as an
// array in map order, and its counters match what was routed.
func TestRouterMetricsThroughStats(t *testing.T) {
	f, err := launchFleet([]int64{100, 200}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	cl, err := server.Dial(f.addr, server.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, p := range []geom.Point{{X: 10, Y: 1}, {X: 150, Y: 4}, {X: 160, Y: 5}} {
		if _, err := cl.Insert(p); err != nil {
			t.Fatalf("insert %v: %v", p, err)
		}
	}
	if _, err := cl.Query3(0, 1000, geom.MinCoord+1); err != nil {
		t.Fatal(err)
	}
	raw, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var st StatsSnapshot
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("STATS: %v\n%s", err, raw)
	}
	var rm struct {
		Scatters uint64 `json:"scatters"`
		Shards   []struct {
			Points  uint64 `json:"points"`
			Queries uint64 `json:"queries"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(st.Router, &rm); err != nil {
		t.Fatalf("STATS router section: %v\n%s", err, st.Router)
	}
	if rm.Scatters != 1 || len(rm.Shards) != 3 || rm.Shards[0].Points != 1 || rm.Shards[1].Points != 2 ||
		rm.Shards[2].Points != 0 || rm.Shards[2].Queries != 1 {
		t.Fatalf("STATS router section: %s", st.Router)
	}
}

// TestBarrierReadYourWrites drives the full barrier translation against
// durable shards: write acks through the router carry virtual positions,
// and a read stamped with the last ack's position must be answered OK
// with the write visible — the router re-stamps the sub-reads with each
// shard's real (term, LSN) vector entry, which the shards then verify.
func TestBarrierReadYourWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("durable fleet in -short")
	}
	dir := t.TempDir()
	f, err := launchFleet([]int64{500}, func(i int) string {
		d := filepath.Join(dir, fmt.Sprintf("shard%d", i))
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		return d
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	cl, err := server.Dial(f.addr, server.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var lastAck uint64
	for _, p := range []geom.Point{{X: 1, Y: 1}, {X: 1000, Y: 2}, {X: 2, Y: 3}} {
		resp, err := cl.Do(server.Request{Op: server.OpInsert, P: p})
		if err != nil {
			t.Fatalf("insert %v: %v", p, err)
		}
		if resp.Status != server.StatusOK {
			t.Fatalf("insert %v: status %d %q", p, resp.Status, resp.Msg)
		}
		if resp.Term != 0 {
			t.Fatalf("insert %v: ack term %d, want virtual term 0", p, resp.Term)
		}
		if resp.LSN <= lastAck {
			t.Fatalf("insert %v: virtual ack %d not above previous %d", p, resp.LSN, lastAck)
		}
		lastAck = resp.LSN
	}

	// The durable shards acked real LSNs; the vector must have them.
	if got := f.rt.barrierFor(0); got.lsn == 0 {
		t.Fatal("shard 0 vector entry still zero after durable write acks")
	}

	resp, err := cl.Do(server.Request{
		Op:     server.OpQuery3,
		Rect:   geom.Rect{XLo: 0, XHi: 2000, YLo: 0, YHi: geom.MaxCoord},
		MinLSN: lastAck,
	})
	if err != nil {
		t.Fatalf("barrier query: %v", err)
	}
	if resp.Status != server.StatusOK {
		t.Fatalf("barrier query: status %d %q", resp.Status, resp.Msg)
	}
	want := []geom.Point{{X: 1, Y: 1}, {X: 2, Y: 3}, {X: 1000, Y: 2}}
	if fmt.Sprint(resp.Points) != fmt.Sprint(want) {
		t.Fatalf("barrier query: got %v, want %v", resp.Points, want)
	}
}

// TestVirtualBarrierVector unit-tests the translation state machine:
// noteAck folds the lexicographic max per shard and issues strictly
// increasing virtual positions; barrierFor returns the folded entry.
func TestVirtualBarrierVector(t *testing.T) {
	m, err := ParseShards("x<10@a:1,rest@b:1")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := rt.noteAck(0, pos{1, 5}); v != 1 {
		t.Fatalf("first virtual pos %d, want 1", v)
	}
	if v := rt.noteAck(1, pos{1, 3}); v != 2 {
		t.Fatalf("second virtual pos %d, want 2", v)
	}
	// An older position must not regress the vector...
	rt.noteAck(0, pos{1, 4})
	if got := rt.barrierFor(0); got != (pos{1, 5}) {
		t.Fatalf("vector[0] = %+v, want {1 5}", got)
	}
	// ...but a newer term beats a larger LSN (lexicographic order).
	rt.noteAck(0, pos{2, 1})
	if got := rt.barrierFor(0); got != (pos{2, 1}) {
		t.Fatalf("vector[0] = %+v, want {2 1}", got)
	}
	if got := rt.barrierFor(1); got != (pos{1, 3}) {
		t.Fatalf("vector[1] = %+v, want {1 3}", got)
	}
}

// TestTopologyThroughWire pins the TOPOLOGY frame end to end: a router
// serves its shard map canonically; a standalone server answers ERR.
func TestTopologyThroughWire(t *testing.T) {
	f, err := launchFleet([]int64{42}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	cl, err := server.Dial(f.addr, server.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	raw, err := cl.Topology()
	if err != nil {
		t.Fatalf("router TOPOLOGY: %v", err)
	}
	m, err := DecodeTopology(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if m.Spec() != f.rt.Map().Spec() {
		t.Fatalf("topology spec %q, want %q", m.Spec(), f.rt.Map().Spec())
	}

	// Point-blank at a shard, the same frame must be refused, not crash.
	scl, err := server.Dial(f.nodes[0].addr, server.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer scl.Close()
	if _, err := scl.Topology(); err == nil {
		t.Fatal("standalone server answered TOPOLOGY with OK, want ERR")
	}
}
