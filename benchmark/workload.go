//go:build linux

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"time"

	"rangesearch/internal/geom"
)

// Coordinates are uniform in [0, domain)²; connection c owns the x-stripe
// [c·domain/conns, (c+1)·domain/conns) and only ever writes inside it, so
// each connection's expected answers are known when its stream is made.
const (
	domain = int64(1) << 20
	conns  = 2 // = nproc of the calibration sandbox; see README "Measurement rules"
	// verifyEvery: every n-th query of a connection is checked point for
	// point against the model; all other ops are checked by status and flag.
	verifyEvery = 16
	zipfKeys    = 1 << 16
	zipfTheta   = 0.99
)

type writeMix uint8

const (
	noWrites writeMix = iota
	uniform           // half inserts of fresh uniform points, half deletes of own live points
	zipfX             // the same split; an insert's x is a Zipf(0.99) key of the stripe, its y fresh
)

type stackKind uint8

const (
	stackMem      stackKind = iota // SnapStore(MemStore)
	stackPool                      // SnapStore(ShardedPool(FileStore)), no WAL
	stackDurable                   // SnapStore(TxStore(FileStore)), WAL
	stackBuffered                  // stackDurable under wbuf.Buffered
)

// spec is one workload. The measured phase lasts -seconds and is cut into
// windows of a fixed operation count, the same on every commit. (A run of
// fixed length is safe because the write mix keeps the structure the size
// it was preloaded to: faster code completes more windows, it does not
// grow a bigger tree and slow itself.) The streams hold half as many ops
// again as the reference commit gets through in that time; a run that
// uses them up ends there.
type spec struct {
	name string

	stack        stackKind
	serverArgs   []string // rsserve flags besides -addr and -store/-mem
	preload      int
	preloadBatch int
	setups       int // boot+preload repetitions; setup_s is the fastest

	window    int // ops per measurement window, over both connections (1-2 s of work)
	windows   int // windows the reference commit completes at -seconds 40
	warm      int // unmeasured ops before the first window, over both connections
	mirrorOps int // ops per sub-pass of the traced mirror
	queryPct  int // share of queries, percent
	q4Pct     int // share of queries that are QUERY4, percent
	xSpan     int64
	writes    writeMix
}

const refSeconds = 40

const walFlag = "1024" // a 64-op group commit dirties more pages than the default 64-page WAL holds

// Why each workload exists, and which layers it does and does not load, is
// in README.md ("Workloads"); BENCHMARK.json lists the two the acceptance
// driver has time for.
var specs = []spec{
	{
		name:  "read_small_mem",
		stack: stackMem, serverArgs: []string{"-mem"},
		preload: 65536, preloadBatch: 4096, setups: 1,
		window: 12000, windows: 32, warm: 12000,
		mirrorOps: 5000, queryPct: 100, q4Pct: 50, xSpan: 256,
	},
	{
		name:  "scan_large_pool",
		stack: stackPool, serverArgs: []string{"-durable=false", "-pool", "32"},
		preload: 32768, preloadBatch: 4096, setups: 1,
		window: 5000, windows: 32, warm: 5000,
		mirrorOps: 2000, queryPct: 95, q4Pct: 0, xSpan: 16384, writes: uniform,
	},
	{
		name:  "write_durable",
		stack: stackDurable, serverArgs: []string{"-wal", walFlag},
		preload: 16384, preloadBatch: 128, setups: 2,
		window: 1600, windows: 32, warm: 1600,
		mirrorOps: 1000, queryPct: 0, writes: uniform,
	},
	{
		// The buffer flushes every 4096 staged points and stalls both
		// connections while it does, so a window has to hold whole flush
		// cycles or the fast windows are simply the ones without a flush:
		// at 50 % writes 16384 ops are about two cycles.
		name:  "mixed_buffered",
		stack: stackBuffered, serverArgs: []string{"-wal", walFlag, "-write-buffer", "-write-buffer-age", "0"},
		preload: 16384, preloadBatch: 128, setups: 2,
		window: 16384, windows: 8, warm: 8192,
		mirrorOps: 16000, queryPct: 50, q4Pct: 50, xSpan: 1024, writes: zipfX,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// plan is a run's size: per connection, warm unmeasured ops and then at
// most windows × window / conns measured ones, fewer if length runs out.
type plan struct {
	window  int // ops per window over all connections
	windows int // windows the streams hold
	warm    int // per connection
	length  time.Duration
}

func (p plan) measured() int { return p.windows * p.window / conns }

// planFor sizes a run of the given length. -quick shrinks the windows to
// 1/20 and keeps the reference count of them (at least four, so the
// quantiles exist), so a quick run ends by count within a second or two.
func planFor(s spec, seconds, divisor int) plan {
	p := plan{
		window:  max(s.window/divisor, 20*conns),
		windows: max(s.windows*seconds/refSeconds, 4),
		warm:    max(s.warm/divisor/conns, 10),
		length:  time.Duration(seconds) * time.Second,
	}
	if divisor == 1 {
		p.windows += p.windows / 2
	}
	p.window -= p.window % conns
	return p
}

// --- deterministic random numbers --------------------------------------

// rng is splitmix64: tiny, seedable, and owned by the benchmark so the
// inputs cannot change when the program's own samplers do.
type rng struct{ s uint64 }

func newRNG(seed uint64, workload string, stream uint64) *rng {
	h := seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9
	for _, c := range []byte(workload) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	r := &rng{s: h}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipfCDF is the cumulative distribution of Zipf(theta) over n ranks.
func zipfCDF(n int, theta float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// --- operations ---------------------------------------------------------

type opKind uint8

const (
	kQuery3 opKind = iota
	kQuery4
	kInsert
	kDelete
)

func (k opKind) isQuery() bool { return k <= kQuery4 }

// op is one pre-generated request. The generator only inserts points that
// are absent and only deletes points that are live, so every insert must
// come back not-Duplicate and every delete Found.
type op struct {
	kind opKind
	p    geom.Point // insert / delete
	r    geom.Rect  // query
	// verify ≥ 0 indexes stream.expected: this query's exact answer.
	verify int32
}

// stream is one connection's request sequence.
type stream struct {
	conn     int
	owned    []geom.Point // preloaded as this connection's own: live when the clock starts
	ops      []op
	expected [][]geom.Point      // model answers of the verified queries
	inserted map[geom.Point]bool // every point this stripe ever held: preloaded as its own, or inserted
}

// workload is everything a run sends, fully determined by (spec, seed,
// op count).
type workload struct {
	spec    spec
	seed    uint64
	preload []geom.Point // everything sent before the clock starts, in insertion order
	sorted  []geom.Point // the static half of it by (x, y), for the model
	static  map[geom.Point]bool
	streams []*stream
}

func stripeOf(x int64) int { return int(x / (domain / conns)) }

// model is the naive reference one connection's answers are checked
// against: the static preload plus the connection's own live points
// (the ones preloaded as its own and the ones it inserted since).
type model struct {
	w      *workload
	live   []geom.Point
	at     map[geom.Point]int // index into live
	bucket map[int64][]geom.Point
}

const bucketShift = 10

func newModel(w *workload) *model {
	return &model{w: w, at: map[geom.Point]int{}, bucket: map[int64][]geom.Point{}}
}

func (m *model) has(p geom.Point) bool { _, ok := m.at[p]; return ok }

func (m *model) insert(p geom.Point) {
	m.at[p] = len(m.live)
	m.live = append(m.live, p)
	b := p.X >> bucketShift
	m.bucket[b] = append(m.bucket[b], p)
}

func (m *model) remove(p geom.Point) {
	i := m.at[p]
	last := m.live[len(m.live)-1]
	m.live[i] = last
	m.at[last] = i
	m.live = m.live[:len(m.live)-1]
	delete(m.at, p)
	b := p.X >> bucketShift
	pts := m.bucket[b]
	for j, q := range pts {
		if q == p {
			pts[j] = pts[len(pts)-1]
			m.bucket[b] = pts[:len(pts)-1]
			break
		}
	}
}

// query answers r over preload ∪ own live points, in (x, y) order.
func (m *model) query(r geom.Rect) []geom.Point {
	var out []geom.Point
	pre := m.w.sorted
	for i := sort.Search(len(pre), func(i int) bool { return pre[i].X >= r.XLo }); i < len(pre) && pre[i].X <= r.XHi; i++ {
		if pre[i].Y >= r.YLo && pre[i].Y <= r.YHi {
			out = append(out, pre[i])
		}
	}
	for b := r.XLo >> bucketShift; b <= r.XHi>>bucketShift; b++ {
		for _, p := range m.bucket[b] {
			if r.Contains(p) {
				out = append(out, p)
			}
		}
	}
	geom.SortByX(out)
	return out
}

// generate builds the preload and every connection's stream. opsPerConn
// counts measured ops; warm extra ops precede them on each connection.
//
// Half of the preload is static: nobody deletes it. The other half is
// split between the connections as the points they own when the clock
// starts, so that a delete picks among thousands of points, not among the
// last few inserts, and half inserts, half deletes keep the structure the
// size it was preloaded to: the cost of an op is then the same in every
// window of the run.
func generate(s spec, seed uint64, opsPerConn, warm int) *workload {
	w := &workload{spec: s, seed: seed, static: make(map[geom.Point]bool, s.preload)}
	pr := newRNG(seed, s.name, 0)
	static := s.preload
	if s.writes != noWrites {
		static = s.preload / 2
	}
	for len(w.preload) < static {
		p := geom.Point{X: pr.intn(domain), Y: pr.intn(domain)}
		if !w.static[p] {
			w.static[p] = true
			w.preload = append(w.preload, p)
		}
	}
	w.sorted = append([]geom.Point(nil), w.preload...)
	geom.SortByX(w.sorted)
	width := domain / conns
	owned := make([][]geom.Point, conns)
	taken := map[geom.Point]bool{}
	for i := 0; len(w.preload) < s.preload; i++ {
		c := i % conns
		p := geom.Point{X: int64(c)*width + pr.intn(width), Y: pr.intn(domain)}
		if !w.static[p] && !taken[p] {
			taken[p] = true
			owned[c] = append(owned[c], p)
			w.preload = append(w.preload, p)
		}
	}
	var cdf []float64
	if s.writes == zipfX {
		cdf = zipfCDF(zipfKeys, zipfTheta)
	}
	for c := 0; c < conns; c++ {
		w.streams = append(w.streams, w.genStream(c, opsPerConn+warm, owned[c], cdf))
	}
	return w
}

func (w *workload) genStream(c, n int, owned []geom.Point, cdf []float64) *stream {
	s := w.spec
	r := newRNG(w.seed, s.name, uint64(c)+1)
	st := &stream{conn: c, owned: owned, ops: make([]op, 0, n), inserted: map[geom.Point]bool{}}
	m := newModel(w)
	for _, p := range owned {
		m.insert(p)
		st.inserted[p] = true
	}
	width := domain / conns
	lo := int64(c) * width
	queries := 0
	for len(st.ops) < n {
		if int(r.intn(100)) < s.queryPct {
			o := op{kind: kQuery3, verify: -1}
			xlo := r.intn(domain - s.xSpan)
			o.r = geom.Rect{XLo: xlo, XHi: xlo + s.xSpan - 1}
			if int(r.intn(100)) < s.q4Pct {
				o.kind = kQuery4
				o.r.YLo = r.intn(domain / 2)
				o.r.YHi = o.r.YLo + domain/2 - 1
			} else {
				o.r.YLo = domain/4 + r.intn(domain/2)
				o.r.YHi = geom.MaxCoord
			}
			if queries%verifyEvery == 0 {
				o.verify = int32(len(st.expected))
				st.expected = append(st.expected, m.query(o.r))
			}
			queries++
			st.ops = append(st.ops, o)
			continue
		}
		if s.writes == noWrites {
			panic("benchmark: workload " + s.name + " draws a write but defines no write mix")
		}
		if len(m.live) > 0 && r.intn(100) < 50 {
			p := m.live[r.intn(int64(len(m.live)))]
			m.remove(p)
			st.ops = append(st.ops, op{kind: kDelete, p: p, verify: -1})
			continue
		}
		// A fresh point of the own stripe. Under zipfX its x is a
		// Zipf-ranked key scattered over the stripe, so hot columns fill
		// while every (x, y) stays distinct and the buffer's flush period
		// stays one flush per 4096 staged writes.
		var p geom.Point
		for {
			x := r.intn(width)
			if s.writes == zipfX {
				k := uint64(sort.SearchFloat64s(cdf, r.float()))
				x = int64(k * 0x9e3779b1 % uint64(width))
			}
			p = geom.Point{X: lo + x, Y: r.intn(domain)}
			if !w.static[p] && !m.has(p) {
				break
			}
		}
		m.insert(p)
		st.inserted[p] = true
		st.ops = append(st.ops, op{kind: kInsert, p: p, verify: -1})
	}
	return st
}

// hash fingerprints the whole workload (preload and every op), so "same seed, same inputs" is one string comparison.
func (w *workload) hash() string {
	h := sha256.New()
	var b [41]byte
	put := func(k byte, v ...int64) {
		b[0] = k
		for i, x := range v {
			binary.LittleEndian.PutUint64(b[1+8*i:], uint64(x))
		}
		h.Write(b[:1+8*len(v)])
	}
	for _, p := range w.preload {
		put('p', p.X, p.Y)
	}
	for _, st := range w.streams {
		for _, o := range st.ops {
			if o.kind.isQuery() {
				put(byte(o.kind), o.r.XLo, o.r.XHi, o.r.YLo, o.r.YHi, int64(o.verify))
			} else {
				put(byte(o.kind), o.p.X, o.p.Y)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// checkAnswer verifies one sampled query answer from connection st.conn:
// the part the model knows (preload, own stripe) must match exactly, and
// every other point must be one its owning stripe inserted at some time.
// It returns "" or a description of the first mismatch.
func (w *workload) checkAnswer(st *stream, o op, got []geom.Point) string {
	want := st.expected[o.verify]
	known := make([]geom.Point, 0, len(got))
	for _, p := range got {
		if !o.r.Contains(p) {
			return "point outside the query rectangle"
		}
		if w.static[p] || stripeOf(p.X) == st.conn {
			known = append(known, p)
			continue
		}
		if !w.streams[stripeOf(p.X)].inserted[p] {
			return "point nobody inserted"
		}
	}
	geom.SortByX(known)
	if len(known) != len(want) {
		return "wrong number of points"
	}
	for i := range known {
		if known[i] != want[i] {
			return "wrong point"
		}
	}
	return ""
}
