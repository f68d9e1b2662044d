//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rangesearch/internal/geom"
	"rangesearch/internal/server"
)

// The end-to-end run drives the real rsserve binary and knows it only by
// its command line and wire protocol: flags, server.Dial and
// Client.Send/Flush/Recv. Nothing here reaches into the program.

// e2eResult is what one end-to-end run measured.
type e2eResult struct {
	Attempted    int
	Failed       int
	FirstFailure string
	SetupS       []float64          // every boot+preload of the run
	Metrics      map[string]float64 // the six end-to-end metrics
	Layers       map[string]float64 // per-layer metrics seen from outside (runEnv.layers)
	Windows      windowSeries       // what the four timing metrics are taken from
	Disturbed    bool
	CalibMs      [2]float64 // the host kernel before and after
}

// windowSeries holds one value per completed window, in run order.
type windowSeries struct {
	StartUnixMs int64     `json:"start_unix_ms"` // when the first window began
	EndS        []float64 `json:"end_s"`         // each window's end, seconds after that
	OpsPerS     []float64 `json:"ops_per_s"`
	P50Us       []float64 `json:"p50_us"`
	P95Us       []float64 `json:"p95_us"`
	CPUUsPerOp  []float64 `json:"cpu_us_per_op"`
}

type runEnv struct {
	bin     string // rsserve binary
	dir     string // scratch directory owned by this run
	divisor int    // 1, or 20 in -quick mode
	layers  bool   // also collect the per-layer numbers taken from outside
}

func toRequest(o op) server.Request {
	switch o.kind {
	case kQuery3:
		return server.Request{Op: server.OpQuery3, Rect: o.r}
	case kQuery4:
		return server.Request{Op: server.OpQuery4, Rect: o.r}
	case kInsert:
		return server.Request{Op: server.OpInsert, P: o.p}
	default:
		return server.Request{Op: server.OpDelete, P: o.p}
	}
}

// opFailure explains why resp is not the answer o must get ("" if it is).
// Sampled query answers are checked point by point later, off the clock.
func opFailure(o op, resp server.Response) string {
	if resp.Status != server.StatusOK {
		return fmt.Sprintf("status 0x%02x %s", resp.Status, resp.Msg)
	}
	switch o.kind {
	case kInsert:
		if resp.Duplicate {
			return fmt.Sprintf("insert %v: reported as a duplicate", o.p)
		}
	case kDelete:
		if !resp.Found {
			return fmt.Sprintf("delete %v: reported as absent", o.p)
		}
	}
	return ""
}

// connRun is one connection's share of a phase.
type connRun struct {
	latUs    []float64 // one per op sent, in stream order
	order    []int64   // with a windowClock: the op's global completion number, from 1
	points   int       // points returned by queries
	failed   int
	failure  string
	sampled  []sampledAnswer
	attempts int
	// firstLSN and lastLSN are the durable positions the first and last
	// write acknowledgements carried (0 on stacks without a WAL).
	firstLSN, lastLSN uint64
}

type sampledAnswer struct {
	o   op
	got []geom.Point
}

// mark is what a windowClock reads when a window ends.
type mark struct {
	at    time.Time
	cpuUs float64 // rsserve CPU time so far
}

// windowClock cuts the measured phase into windows of equal operation
// count, counted over all connections in completion order. The connection
// whose op completes a window reads the wall clock and the server's CPU
// time there, between two of its own ops, so every window has its own
// throughput, latency distribution and CPU cost per op. The first window
// to end after the deadline is the last: the run's length is a time, the
// windows' is a count.
type windowClock struct {
	pid      int
	size     int64
	deadline time.Time
	done     atomic.Int64
	stop     atomic.Bool
	marks    []mark // marks[k] ends window k-1 and starts window k; each is written once
}

func newWindowClock(pid int, size, windows int, length time.Duration) *windowClock {
	wc := &windowClock{pid: pid, size: int64(size), marks: make([]mark, windows+1)}
	wc.marks[0] = wc.read()
	wc.deadline = wc.marks[0].at.Add(length)
	return wc
}

func (wc *windowClock) read() mark {
	m := mark{at: time.Now()}
	m.cpuUs, _ = readCPUUs(wc.pid)
	return m
}

// tick counts one completed op and returns its global number.
func (wc *windowClock) tick() int64 {
	n := wc.done.Add(1)
	if k := n / wc.size; n%wc.size == 0 && int(k) < len(wc.marks) {
		wc.marks[k] = wc.read()
		if !wc.marks[k].at.Before(wc.deadline) {
			wc.stop.Store(true)
		}
	}
	return n
}

// drive sends ops one at a time (depth 1) and times each round trip; wc
// is nil outside the measured phase.
func drive(cl *server.Client, ops []op, wc *windowClock) connRun {
	r := connRun{latUs: make([]float64, 0, len(ops))}
	fail := func(msg string) {
		r.failed++
		if r.failure == "" {
			r.failure = msg
		}
	}
	for i, o := range ops {
		if wc != nil && wc.stop.Load() {
			break
		}
		r.attempts++
		start := time.Now()
		err := cl.Send(toRequest(o))
		if err == nil {
			err = cl.Flush()
		}
		var resp server.Response
		if err == nil {
			resp, err = cl.Recv()
		}
		r.latUs = append(r.latUs, float64(time.Since(start))/1e3)
		if wc != nil {
			r.order = append(r.order, wc.tick())
		}
		if err != nil {
			// The connection is no longer trustworthy: the rest of the
			// stream counts as attempted and failed.
			fail(fmt.Sprintf("op %d: transport: %v", i, err))
			rest := len(ops) - i - 1
			r.attempts += rest
			r.failed += rest
			return r
		}
		if msg := opFailure(o, resp); msg != "" {
			fail(fmt.Sprintf("op %d: %s", i, msg))
			continue
		}
		if o.kind.isQuery() {
			r.points += len(resp.Points)
			if o.verify >= 0 {
				r.sampled = append(r.sampled, sampledAnswer{o, resp.Points})
			}
		} else {
			if r.firstLSN == 0 {
				r.firstLSN = resp.LSN
			}
			r.lastLSN = resp.LSN
		}
	}
	return r
}

// driveAll runs one phase on every connection at once.
func driveAll(cls []*server.Client, w *workload, from, to int, wc *windowClock) []connRun {
	out := make([]connRun, len(cls))
	var wg sync.WaitGroup
	for c := range cls {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c] = drive(cls[c], w.streams[c].ops[from:to], wc)
		}(c)
	}
	wg.Wait()
	return out
}

// preload bulk-inserts the static set over the wire. Any entry that is not
// a fresh insert, and above all a WAL overflow, is a broken setup and
// fails the run instead of being counted as load.
func preload(cl *server.Client, w *workload) error {
	pts := w.preload
	for len(pts) > 0 {
		n := min(len(pts), w.spec.preloadBatch)
		entries := make([]server.BatchEntry, n)
		for i, p := range pts[:n] {
			entries[i] = server.BatchEntry{Kind: server.BatchInsert, P: p}
		}
		pts = pts[n:]
		if err := cl.Send(server.Request{Op: server.OpBatch, Batch: entries}); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		resp, err := cl.Recv()
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		if resp.Status != server.StatusOK {
			if strings.Contains(resp.Msg, "WAL capacity") {
				return fmt.Errorf("preload: BATCH of %d overflows the WAL (ErrTxOverflow): %s", n, resp.Msg)
			}
			return fmt.Errorf("preload: status 0x%02x %s", resp.Status, resp.Msg)
		}
		for _, code := range resp.Results {
			if code != server.BatchOK {
				return fmt.Errorf("preload: entry outcome 0x%02x, want a fresh insert", code)
			}
		}
	}
	return nil
}

// node is one booted and preloaded rsserve.
type node struct {
	srv   *child
	cl    *server.Client // the connection the preload went over
	store string         // "" on the memory stack
}

// boot starts rsserve for the workload on a fresh store and preloads it,
// returning the time from exec to the last preload acknowledgement.
func boot(env runEnv, w *workload, extra []string) (*node, float64, error) {
	n := &node{}
	args := append([]string(nil), w.spec.serverArgs...)
	if w.spec.stack != stackMem {
		n.store = filepath.Join(env.dir, fmt.Sprintf("store-%d.db", time.Now().UnixNano()))
		args = append(args, "-store", n.store)
	}
	args = append(args, extra...)
	start := time.Now()
	var err error
	if n.srv, n.cl, err = startServer(env.bin, env.dir, args); err != nil {
		return nil, 0, err
	}
	if err := preload(n.cl, w); err != nil {
		tail := n.srv.logTail()
		n.stop()
		return nil, 0, fmt.Errorf("%w\nrsserve log: %s", err, tail)
	}
	return n, time.Since(start).Seconds(), nil
}

// stop kills the server and removes what it left in the data directory.
func (n *node) stop() {
	n.cl.Close()
	n.srv.kill()
	if n.store != "" {
		for _, suffix := range []string{"", ".manifest.json", ".wbuf"} {
			_ = os.Remove(n.store + suffix)
		}
	}
}

// jsonPath walks nested JSON objects; ok is false when any key is missing,
// so a renamed STATS or expvar field drops one metric, never the run.
func jsonPath(doc map[string]any, path ...string) (float64, bool) {
	var cur any = doc
	for _, k := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0, false
		}
		if cur, ok = m[k]; !ok {
			return 0, false
		}
	}
	v, ok := cur.(float64)
	return v, ok
}

// jsonDoc decodes a JSON object; nil when there is none to decode.
func jsonDoc(raw []byte, err error) map[string]any {
	var doc map[string]any
	if err != nil || json.Unmarshal(raw, &doc) != nil {
		return nil
	}
	return doc
}

func fetchStats(cl *server.Client) map[string]any { return jsonDoc(cl.Stats()) }

func fetchVars(addr string) map[string]any {
	hc := http.Client{Timeout: 2 * time.Second}
	resp, err := hc.Get("http://" + addr + "/debug/vars")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	return jsonDoc(io.ReadAll(resp.Body))
}

// delta is after−before of one JSON counter, when both readings have it.
func delta(before, after map[string]any, path ...string) (float64, bool) {
	b, ok1 := jsonPath(before, path...)
	a, ok2 := jsonPath(after, path...)
	return a - b, ok1 && ok2
}

// runE2E boots, preloads, warms, measures and verifies one workload; w
// holds pl.warm+pl.measured() ops per connection.
func runE2E(env runEnv, w *workload, pl plan) (*e2eResult, error) {
	warm, measured := pl.warm, pl.measured()
	res := &e2eResult{Metrics: map[string]float64{}}
	calibBefore := calibrate()

	var extra []string
	varsAddr := ""
	if env.layers {
		var err error
		if varsAddr, err = freeAddr(); err != nil {
			return nil, err
		}
		extra = []string{"-metrics", varsAddr}
	}

	// Set-up, repeated: setup_s is the fastest, the last server is kept.
	var nd *node
	for i := 0; i < w.spec.setups; i++ {
		if nd != nil {
			nd.stop()
		}
		var (
			s   float64
			err error
		)
		if nd, s, err = boot(env, w, extra); err != nil {
			return nil, err
		}
		res.SetupS = append(res.SetupS, s)
	}
	defer nd.stop()
	res.Metrics["setup_s"] = slices.Min(res.SetupS)

	cls := []*server.Client{nd.cl}
	for len(cls) < conns {
		cl, err := server.Dial(nd.srv.addr, server.ClientOptions{})
		if err != nil {
			return nil, fmt.Errorf("dial connection %d: %w", len(cls), err)
		}
		defer cl.Close()
		cls = append(cls, cl)
	}

	// Warm-up: the first ops of every stream run unmeasured so lazy set-up
	// (epoch views, pool fill, heap growth) is not billed to the run.
	warmRuns := driveAll(cls, w, 0, warm, nil)

	pid := nd.srv.pid()
	// STATS calls Len, which opens a snapshot view; with no later read to
	// move it, that view pins its epoch and rsserve retains every page
	// version written since (twice the CPU per write, RSS past 1 GiB in
	// 40k writes). A write-only stream therefore gets no STATS before it.
	var statsBefore map[string]any
	if env.layers && w.spec.queryPct > 0 {
		statsBefore = fetchStats(cls[0])
	}
	varsBefore := map[string]any(nil)
	if varsAddr != "" {
		varsBefore = fetchVars(varsAddr)
	}
	stealBefore := stealMs()
	selfBefore := selfCPUUs()
	procBefore, err := readProcTimes(pid)
	if err != nil {
		return nil, err
	}

	// rss_mb is the median of 100 ms samples: the peak (VmHWM) doubles from
	// run to run with GC timing, the median does not.
	var rss []float64
	stopRSS := make(chan struct{})
	rssDone := make(chan struct{})
	go func() {
		defer close(rssDone)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if kb, ok := readStatusKB(pid, "VmRSS"); ok {
				rss = append(rss, kb/1024)
			}
			select {
			case <-stopRSS:
				return
			case <-tick.C:
			}
		}
	}()

	wc := newWindowClock(pid, pl.window, pl.windows, pl.length)
	runs := driveAll(cls, w, warm, warm+measured, wc)

	procAfter, err := readProcTimes(pid)
	close(stopRSS)
	<-rssDone
	if err != nil {
		return nil, err
	}
	selfAfter := selfCPUUs()
	stealAfter := stealMs()

	// Everything below is off the clock.
	for c, r := range append(warmRuns, runs...) {
		res.Attempted += r.attempts
		res.Failed += r.failed
		if res.FirstFailure == "" && r.failure != "" {
			res.FirstFailure = fmt.Sprintf("conn %d: %s", c%conns, r.failure)
		}
		st := w.streams[c%conns]
		for _, sa := range r.sampled {
			if msg := w.checkAnswer(st, sa.o, sa.got); msg != "" {
				res.Failed++
				if res.FirstFailure == "" {
					res.FirstFailure = fmt.Sprintf("conn %d: query %+v: %s", st.conn, sa.o.r, msg)
				}
			}
		}
	}

	// Latencies by window: all ops, queries, writes.
	all, qs, wrs := make([][]float64, pl.windows), make([][]float64, pl.windows), make([][]float64, pl.windows)
	points := 0
	for c, r := range runs {
		for i, n := range r.order {
			k := int((n - 1) / wc.size)
			us := r.latUs[i]
			all[k] = append(all[k], us)
			if w.streams[c].ops[warm+i].kind.isQuery() {
				qs[k] = append(qs[k], us)
			} else {
				wrs[k] = append(wrs[k], us)
			}
		}
		points += r.points
	}
	// A window counts only if the run got to its end: the clock stops the
	// run at a window's end, and the op the other connection had in flight
	// then belongs to a window nobody finished.
	win := windowSeries{StartUnixMs: wc.marks[0].at.UnixMilli()}
	for k := 0; k < pl.windows; k++ {
		from, to := wc.marks[k], wc.marks[k+1]
		if to.at.IsZero() {
			break
		}
		win.EndS = append(win.EndS, to.at.Sub(wc.marks[0].at).Seconds())
		win.OpsPerS = append(win.OpsPerS, float64(wc.size)/to.at.Sub(from.at).Seconds())
		win.CPUUsPerOp = append(win.CPUUsPerOp, (to.cpuUs-from.cpuUs)/float64(wc.size))
		sorted := sortedCopy(all[k])
		win.P50Us = append(win.P50Us, percentile(sorted, 0.50))
		win.P95Us = append(win.P95Us, percentile(sorted, 0.95))
	}
	done := len(win.OpsPerS)
	if done == 0 {
		return nil, fmt.Errorf("no window completed: %s", res.FirstFailure)
	}
	res.Windows = win
	all, qs, wrs = all[:done], qs[:done], wrs[:done]
	sorted := sortedCopy(flatten(all))
	ops := float64(len(sorted))
	queries, writes := len(flatten(qs)), len(flatten(wrs))

	m := res.Metrics
	m["ops_per_s"] = fastSixteenth(win.OpsPerS, true)
	m["p50_us"] = fastSixteenth(win.P50Us, false)
	m["p95_us"] = fastSixteenth(win.P95Us, false)
	m["cpu_us_per_op"] = fastSixteenth(win.CPUUsPerOp, false)
	m["rss_mb"] = median(rss)

	calibAfter := calibrate()
	res.CalibMs = [2]float64{calibBefore, calibAfter}
	res.Disturbed = calibAfter > calibBefore*1.15 || calibBefore > calibAfter*1.15

	if !env.layers {
		return res, nil
	}
	statsAfter := fetchStats(cls[0])
	l := map[string]float64{}
	res.Layers = l
	l["client.query_p50_us"] = fastSixteenth(windowQuantiles(qs, 0.50), false)
	l["client.query_p95_us"] = fastSixteenth(windowQuantiles(qs, 0.95), false)
	l["client.write_p50_us"] = fastSixteenth(windowQuantiles(wrs, 0.50), false)
	l["client.write_p95_us"] = fastSixteenth(windowQuantiles(wrs, 0.95), false)
	l["client.p99_us"] = percentile(sorted, 0.99)
	l["client.max_us"] = sorted[len(sorted)-1]
	if queries > 0 {
		l["client.points_per_query"] = float64(points) / float64(queries)
	}
	l["client.self_cpu_us_per_op"] = (selfAfter - selfBefore) / ops
	l["proc.user_us_per_op"] = (procAfter.userUs - procBefore.userUs) / ops
	l["proc.sys_us_per_op"] = (procAfter.sysUs - procBefore.sysUs) / ops
	l["proc.minflt_per_op"] = (procAfter.minflt - procBefore.minflt) / ops
	if kb, ok := readStatusKB(pid, "VmHWM"); ok {
		l["proc.rss_peak_mb"] = kb / 1024
	}
	if varsAddr != "" {
		varsAfter := fetchVars(varsAddr)
		if d, ok := delta(varsBefore, varsAfter, "memstats", "TotalAlloc"); ok {
			l["proc.alloc_kb_per_op"] = d / 1024 / ops
		}
		if d, ok := delta(varsBefore, varsAfter, "memstats", "NumGC"); ok {
			l["proc.gc_per_kop"] = d * 1000 / ops
		}
	}
	l["host.calib_ms_before"] = calibBefore
	l["host.calib_ms_after"] = calibAfter
	l["host.steal_ms"] = stealAfter - stealBefore

	// Commits: the WAL positions the write acks carried on durable
	// stacks, the epoch counter elsewhere.
	if writes > 0 {
		var first, last uint64
		for _, r := range runs {
			if r.firstLSN != 0 && (first == 0 || r.firstLSN < first) {
				first = r.firstLSN
			}
			last = max(last, r.lastLSN)
		}
		if last > first {
			l["core.ops_per_commit"] = float64(writes) / float64(last-first+1)
		} else if d, ok := delta(statsBefore, statsAfter, "epoch"); ok && d > 0 {
			l["core.ops_per_commit"] = float64(writes) / d
		}
	}
	if w.spec.stack == stackBuffered && writes > 0 {
		wb := func(k string) (float64, bool) { return delta(statsBefore, statsAfter, "write_buffer", k) }
		if f, ok := wb("flushes"); ok {
			l["wbuf.flushes"] = f
			if fo, ok := wb("flushed_ops"); ok && f > 0 {
				l["wbuf.ops_per_flush"] = fo / f
			}
		}
		if v, ok := jsonPath(statsAfter, "write_buffer", "flush_p50_ms"); ok {
			l["wbuf.flush_p50_ms"] = v
		}
		if v, ok := jsonPath(statsAfter, "write_buffer", "flush_max_ms"); ok {
			l["wbuf.flush_max_ms"] = v
		}
		if v, ok := wb("probes"); ok {
			l["wbuf.probes_per_write"] = v / float64(writes)
		}
		if v, ok := wb("journal_syncs"); ok {
			l["wbuf.journal_syncs_per_write"] = v / float64(writes)
		}
		// The journal restarts at every flush, so its size is not a
		// counter: take what it holds now per point buffered now (a point
		// inserted and deleted within one flush period counts once, so
		// this reads a few percent high).
		if b, ok := jsonPath(statsAfter, "write_buffer", "journal_bytes"); ok {
			if d, ok := jsonPath(statsAfter, "write_buffer", "depth"); ok && d > 0 {
				l["wbuf.journal_bytes_per_write"] = b / d
			}
		}
	}
	if nd.store != "" {
		if fi, err := os.Stat(nd.store); err == nil {
			if n, ok := jsonPath(statsAfter, "len"); ok && n > 0 {
				l["eio.store_bytes_per_point"] = float64(fi.Size()) / n
			}
		}
	}
	return res, nil
}
