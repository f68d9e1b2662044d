package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"rangesearch/internal/eio"
)

// Counter is a monotonic count. The zero value is ready to use and safe
// for concurrent use.
type Counter struct{ n atomic.Uint64 }

// Add adds d to the count.
func (c *Counter) Add(d uint64) { c.n.Add(d) }

// Load returns the count.
func (c *Counter) Load() uint64 { return c.n.Load() }

// Gauge is a level that rises and falls. The zero value is ready to use
// and safe for concurrent use.
type Gauge struct{ n atomic.Int64 }

// Add moves the level by d.
func (g *Gauge) Add(d int64) { g.n.Add(d) }

// Set sets the level.
func (g *Gauge) Set(v int64) { g.n.Store(v) }

// Load returns the level.
func (g *Gauge) Load() int64 { return g.n.Load() }

// A Set is one layer's metrics. Emit names each of them once, with its
// kind, and is the only declaration /debug/vars, /metrics and STATS render.
type Set interface {
	Emit(Sink)
}

// SetFunc adapts a function to a Set.
type SetFunc func(Sink)

// Emit calls f(s).
func (f SetFunc) Emit(s Sink) { f(s) }

// Sink receives a Set's metrics. The renderers (JSON, Prometheus, Value)
// implement it.
type Sink interface {
	Counter(name string, v uint64)
	Gauge(name string, v float64)
	Histogram(name string, h *Histogram)
	// Group nests the metrics emit declares under name.
	Group(name string, emit func(Sink))
	// List nests n groups under name, one per element: an array in JSON,
	// name_<i>_ in Prometheus.
	List(name string, n int, emit func(i int, s Sink))
}

// expvar.Publish panics on duplicate names and offers no unpublish, so the
// package keeps one published indirection per name and repoints it — a
// promoted replica republishes its new stack's sets under the same names.
var (
	setsMu sync.Mutex
	sets   = map[string]Set{}
)

// Publish exports set under name on /debug/vars (as JSON) and /metrics.
// Unlike expvar.Publish it may be called repeatedly with the same name,
// each call repointing the variable; a nil set withdraws it.
func Publish(name string, set Set) {
	setsMu.Lock()
	_, existed := sets[name]
	sets[name] = set
	setsMu.Unlock()
	if !existed {
		expvar.Publish(name, expvar.Func(func() interface{} {
			setsMu.Lock()
			set := sets[name]
			setsMu.Unlock()
			if set == nil {
				return nil
			}
			return JSON(set)
		}))
	}
}

// walk emits every published set into s, each as a group under its
// published name, in name order.
func walk(s Sink) {
	setsMu.Lock()
	names := make([]string, 0, len(sets))
	for name, set := range sets {
		if set != nil {
			names = append(names, name)
		}
	}
	published := make([]Set, len(names))
	sort.Strings(names)
	for i, name := range names {
		published[i] = sets[name]
	}
	setsMu.Unlock()
	for i, name := range names {
		s.Group(name, published[i].Emit)
	}
}

// PublishPool exports the buffer-pool counters (hits, misses, evictions,
// dirty write-backs) and levels (capacity, residency, dirty frames) as
// "rangesearch.pool.<name>".
func PublishPool(name string, p *eio.Pool) {
	Publish("rangesearch.pool."+name, SetFunc(func(s Sink) {
		ps := p.PoolStats()
		s.Counter("hits", ps.Hits)
		s.Counter("misses", ps.Misses)
		s.Counter("evictions", ps.Evictions)
		s.Counter("writeback", ps.Writeback)
		s.Gauge("cap", float64(p.Cap()))
		s.Gauge("resident", float64(p.Resident()))
		s.Gauge("dirty", float64(p.Dirty()))
	}))
}

// JSON renders set as one JSON object: a counter or gauge is a number, a
// histogram its HistogramSnapshot, a group an object, a list an array.
func JSON(set Set) json.RawMessage {
	j := &jsonSink{b: []byte{'{'}}
	set.Emit(j)
	return append(j.b, '}')
}

type jsonSink struct{ b []byte }

func (j *jsonSink) key(name string) {
	if last := j.b[len(j.b)-1]; last != '{' && last != '[' {
		j.b = append(j.b, ',')
	}
	j.b = append(strconv.AppendQuote(j.b, name), ':')
}

func (j *jsonSink) Counter(name string, v uint64) {
	j.key(name)
	j.b = strconv.AppendUint(j.b, v, 10)
}

func (j *jsonSink) Gauge(name string, v float64) {
	j.key(name)
	j.b = append(j.b, formatFloat(v)...)
}

func (j *jsonSink) Histogram(name string, h *Histogram) {
	j.key(name)
	raw, _ := json.Marshal(h.Snapshot()) // plain integers and finite floats: cannot fail
	j.b = append(j.b, raw...)
}

func (j *jsonSink) Group(name string, emit func(Sink)) {
	j.key(name)
	j.b = append(j.b, '{')
	emit(j)
	j.b = append(j.b, '}')
}

func (j *jsonSink) List(name string, n int, emit func(int, Sink)) {
	j.key(name)
	j.b = append(j.b, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			j.b = append(j.b, ',')
		}
		j.b = append(j.b, '{')
		emit(i, j)
		j.b = append(j.b, '}')
	}
	j.b = append(j.b, ']')
}

// Value returns the counter or gauge at path in set — group names, list
// indices and the metric's name joined by "." — or a histogram's count.
// Every caller names a metric by a constant path, so a path the set does
// not declare is a programming error and Value panics: a renamed metric
// fails loudly instead of reading as 0.
func Value(set Set, path string) float64 {
	r := &valueSink{want: path}
	set.Emit(r)
	if !r.ok {
		panic(fmt.Sprintf("obs.Value: no metric %q", path))
	}
	return r.v
}

type valueSink struct {
	prefix, want string
	v            float64
	ok           bool
}

func (r *valueSink) hit(name string) bool { return r.prefix+name == r.want }

func (r *valueSink) Counter(name string, v uint64) {
	if r.hit(name) {
		r.v, r.ok = float64(v), true
	}
}

func (r *valueSink) Gauge(name string, v float64) {
	if r.hit(name) {
		r.v, r.ok = v, true
	}
}

func (r *valueSink) Histogram(name string, h *Histogram) {
	if r.hit(name) {
		r.v, r.ok = float64(h.Count()), true
	}
}

func (r *valueSink) Group(name string, emit func(Sink)) {
	if p := r.prefix + name + "."; strings.HasPrefix(r.want, p) {
		outer := r.prefix
		r.prefix = p
		emit(r)
		r.prefix = outer
	}
}

func (r *valueSink) List(name string, n int, emit func(int, Sink)) {
	for i := 0; i < n; i++ {
		r.Group(name+"."+strconv.Itoa(i), func(s Sink) { emit(i, s) })
	}
}

// MetricsServer is a running diagnostics HTTP server: expvar at
// /debug/vars, pprof under /debug/pprof/, the Prometheus text
// exposition at /metrics, and the sampled-span flight recorder at
// /spans (JSONL, once a SpanRing is attached via SetSpanRing).
type MetricsServer struct {
	srv *http.Server
	ln  net.Listener
}

// ServeMetrics starts the diagnostics server on addr (e.g. ":6060" or
// "127.0.0.1:0"). It returns once the listener is bound; serving happens
// in a background goroutine.
func ServeMetrics(addr string) (*MetricsServer, error) {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w)
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		ring := spanRing.Load()
		if ring == nil {
			http.Error(w, "no span ring attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = ring.WriteTo(w)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "rangesearch metrics: /debug/vars (expvar), /debug/pprof/ (pprof), /metrics (Prometheus), /spans (sampled spans, JSONL)")
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ms := &MetricsServer{srv: &http.Server{Handler: mux}, ln: ln}
	go func() { _ = ms.srv.Serve(ln) }()
	return ms, nil
}

// Addr returns the bound listen address (useful with port 0).
func (m *MetricsServer) Addr() string { return m.ln.Addr().String() }

// Close shuts the server down immediately.
func (m *MetricsServer) Close() error { return m.srv.Close() }
