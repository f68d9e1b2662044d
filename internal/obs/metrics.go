package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"rangesearch/internal/eio"
)

// expvar.Publish panics on duplicate names and offers no unpublish, so the
// package keeps one published indirection per name and repoints it — a
// promoted replica republishes its new stack's producers under the same
// names.
var (
	varMu  sync.Mutex
	varFns = map[string]func() interface{}{}
)

// Publish exports fn() under name on the package's repointable expvar
// surface: unlike expvar.Publish it may be called repeatedly with the same
// name, each call repointing the variable at the new producer. It is the
// hook other layers (e.g. internal/server) use to join the /debug/vars and
// /metrics surface.
func Publish(name string, fn func() interface{}) {
	varMu.Lock()
	_, existed := varFns[name]
	varFns[name] = fn
	varMu.Unlock()
	if !existed {
		expvar.Publish(name, expvar.Func(func() interface{} {
			varMu.Lock()
			f := varFns[name]
			varMu.Unlock()
			if f == nil {
				return nil
			}
			return f()
		}))
	}
}

// PublishPool exports the buffer-pool counters (hits, misses, evictions,
// dirty write-backs, residency) as "rangesearch.pool.<name>".
func PublishPool(name string, p *eio.Pool) {
	Publish("rangesearch.pool."+name, func() interface{} {
		ps := p.PoolStats()
		return map[string]interface{}{
			"hits":      ps.Hits,
			"misses":    ps.Misses,
			"evictions": ps.Evictions,
			"writeback": ps.Writeback,
			"cap":       p.Cap(),
			"resident":  p.Resident(),
			"dirty":     p.Dirty(),
		}
	})
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
