//go:build linux

package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"rangesearch/internal/geom"
)

// small generates a workload sized for unit tests.
func small(s spec, seed uint64) *workload {
	s.preload /= 16
	return generate(s, seed, 400, 40)
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, s := range specs {
		a, b, c := small(s, 7).hash(), small(s, 7).hash(), small(s, 8).hash()
		if a != b {
			t.Errorf("%s: same seed, different inputs: %s vs %s", s.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 give the same inputs %s", s.name, a)
		}
	}
}

func TestWorkloadShape(t *testing.T) {
	for _, s := range specs {
		w := small(s, 3)
		for _, st := range w.streams {
			queries := 0
			for _, o := range st.ops {
				if o.kind.isQuery() {
					queries++
				} else if stripeOf(o.p.X) != st.conn {
					t.Fatalf("%s: conn %d writes %v outside its stripe", s.name, st.conn, o.p)
				}
			}
			got := 100 * queries / len(st.ops)
			if got < s.queryPct-8 || got > s.queryPct+8 {
				t.Errorf("%s: %d%% queries, want about %d%%", s.name, got, s.queryPct)
			}
			if s.queryPct > 0 && len(st.expected) == 0 {
				t.Errorf("%s: no query is verified", s.name)
			}
		}
	}
}

func TestPercentileArithmetic(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.5: 5, 0.95: 10, 0.1: 1, 0.11: 2, 1: 10} {
		if got := percentile(v, q); got != want {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9], n=4) == [1.0, 3.5, 6.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9})
	if q1 != 1 || q2 != 3.5 || q3 != 6 {
		t.Errorf("quartiles = %v %v %v, want 1 3.5 6", q1, q2, q3)
	}
}

func TestFastSixteenthIgnoresDisturbedWindows(t *testing.T) {
	// 24 windows of a time that is 100 ± 2 when the machine is left alone.
	calm := make([]float64, 24)
	for i := range calm {
		calm[i] = 98 + float64(i*7%5)
	}
	disturbed := append([]float64(nil), calm...)
	for i := range disturbed {
		if i%6 != 0 { // a neighbour slows five windows in six
			disturbed[i] *= 1.4
		}
	}
	want := fastSixteenth(calm, false)
	if got := fastSixteenth(disturbed, false); math.Abs(got-want) > 0.02*want {
		t.Errorf("a time: five sixths of the windows disturbed moved the fast sixteenth from %v to %v", want, got)
	}
	if median(disturbed) < 1.3*median(calm) {
		t.Error("the median should have moved; the test would prove nothing")
	}
	// statistics.quantiles(range(10, 42), n=16) == [11.0625, 13.125, ..., 39.9375]
	rate := make([]float64, 32)
	for i := range rate {
		rate[i] = float64(10 + i)
	}
	if got := fastSixteenth(rate, true); got != 39.9375 {
		t.Errorf("a rate: fast sixteenth %v, want the last of the 15 cut points, 39.9375", got)
	}
	if got := fastSixteenth(rate, false); got != 11.0625 {
		t.Errorf("a time: fast sixteenth %v, want the first of the 15 cut points, 11.0625", got)
	}
	per := windowQuantiles([][]float64{{3, 1, 2}, nil, {10, 30, 20}}, 0.5)
	if len(per) != 2 || per[0] != 2 || per[1] != 20 {
		t.Errorf("windowQuantiles = %v, want [2 20]", per)
	}
}

func TestPlanScalesWindowsNotTheirSize(t *testing.T) {
	for _, s := range specs {
		ref, half, quick := planFor(s, refSeconds, 1), planFor(s, refSeconds/2, 1), planFor(s, refSeconds, 20)
		if ref.window != s.window || ref.windows != s.windows+s.windows/2 || ref.length != refSeconds*time.Second {
			t.Errorf("%s: reference plan %+v, want %d s and streams for 1.5 x %d windows of %d", s.name, ref, refSeconds, s.windows, s.window)
		}
		if half.window != ref.window || half.windows != ref.windows/2 || half.length != ref.length/2 {
			t.Errorf("%s: half the seconds gives %+v, want half the time and half the %d windows of %d", s.name, half, ref.windows, ref.window)
		}
		if quick.windows != s.windows || quick.window*20 > ref.window {
			t.Errorf("%s: -quick gives %+v", s.name, quick)
		}
		if ref.measured()*conns != ref.windows*ref.window {
			t.Errorf("%s: %d ops per connection do not fill %d windows of %d", s.name, ref.measured(), ref.windows, ref.window)
		}
	}
}

// TestWindowClockStopsAtTheDeadline: windows are counted, the run is timed.
func TestWindowClockStopsAtTheDeadline(t *testing.T) {
	wc := newWindowClock(os.Getpid(), 10, 8, 30*time.Millisecond)
	for i := 0; i < 25; i++ { // two and a half windows before the deadline
		wc.tick()
	}
	if wc.stop.Load() {
		t.Fatal("stopped before the deadline")
	}
	time.Sleep(40 * time.Millisecond)
	for i := 0; i < 4; i++ {
		wc.tick()
	}
	if wc.stop.Load() {
		t.Fatal("stopped inside a window: the deadline must wait for the window to end")
	}
	wc.tick() // op 30 ends the third window, after the deadline
	if !wc.stop.Load() {
		t.Fatal("did not stop at the first window boundary after the deadline")
	}
	if wc.marks[3].at.IsZero() || !wc.marks[4].at.IsZero() {
		t.Errorf("marks after the stop: third %v, fourth %v", wc.marks[3].at, wc.marks[4].at)
	}
	if wc.marks[3].cpuUs <= 0 {
		t.Errorf("CPU time of this process read as %v", wc.marks[3].cpuUs)
	}
}

func TestVerifierCatchesWrongAnswers(t *testing.T) {
	s, _ := specByName("scan_large_pool")
	w := small(s, 5)
	st := w.streams[0]
	var q op
	for _, o := range st.ops {
		if o.verify >= 0 && len(st.expected[o.verify]) > 2 {
			q = o
		}
	}
	if !q.kind.isQuery() {
		t.Fatal("no verified query with an answer")
	}
	want := st.expected[q.verify]
	if msg := w.checkAnswer(st, q, want); msg != "" {
		t.Fatalf("the model's own answer is rejected: %s", msg)
	}
	if msg := w.checkAnswer(st, q, want[1:]); msg == "" {
		t.Error("a missing point is accepted")
	}
	swapped := append([]geom.Point(nil), want...)
	swapped[0].Y++
	if msg := w.checkAnswer(st, q, swapped); msg == "" {
		t.Error("a wrong point is accepted")
	}
	// A point of the other stripe is legitimate only if that stripe ever
	// inserted it.
	wide := q
	wide.r = geom.Rect{XLo: 0, XHi: domain, YLo: 0, YHi: geom.MaxCoord}
	wide.verify = int32(len(st.expected))
	st.expected = append(st.expected, newModelFromStream(w, st).query(wide.r))
	all := st.expected[wide.verify]
	var foreign geom.Point
	for p := range w.streams[1].inserted {
		foreign = p
		break
	}
	if msg := w.checkAnswer(st, wide, append(append([]geom.Point(nil), all...), foreign)); msg != "" {
		t.Errorf("a point the other stripe inserted is rejected: %s", msg)
	}
	bogus := geom.Point{X: domain - 1, Y: 12345}
	for w.static[bogus] || w.streams[1].inserted[bogus] {
		bogus.Y++
	}
	if msg := w.checkAnswer(st, wide, append(append([]geom.Point(nil), all...), bogus)); msg == "" {
		t.Error("a point nobody inserted is accepted")
	}
}

// newModelFromStream replays a stream's writes into a fresh model.
func newModelFromStream(w *workload, st *stream) *model {
	m := newModel(w)
	for _, p := range st.owned {
		m.insert(p)
	}
	for _, o := range st.ops {
		switch o.kind {
		case kInsert:
			m.insert(o.p)
		case kDelete:
			m.remove(o.p)
		}
	}
	return m
}

func TestCompareVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	better := make([]float64, len(parent))
	same := make([]float64, len(parent))
	for i, v := range parent {
		better[i] = v * 0.9
		same[i] = v + float64(i%3-1)
	}
	if v, _, _ := verdict(parent, better, true); v != "better" {
		t.Errorf("10/10 wins beyond the IQR: verdict %q, want better", v)
	}
	if v, _, _ := verdict(parent, better, false); v != "worse" {
		t.Errorf("the same data read as higher-is-better: verdict %q, want worse", v)
	}
	if v, _, _ := verdict(parent, same, true); v != "unresolved" {
		t.Errorf("an A/A pair: verdict %q, want unresolved", v)
	}
	if v, _, _ := verdict(parent[:5], better[:5], true); v != "unresolved" {
		t.Errorf("five pairs are too few: verdict %q, want unresolved", v)
	}
}

func TestBenchmarkJSONListsTheSameMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: code %s/%s, BENCHMARK.json %s/%s", kind, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
	// BENCHMARK.json lists the workloads the acceptance driver has time
	// for; each must be one the code knows.
	if len(doc.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads, the contract wants at least 2", len(doc.Workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := specByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json lists workload %s, which the code does not have", w.Name)
		}
	}
}

// quickEnv builds rsserve once per test binary.
func quickEnv(t *testing.T, layers bool) runEnv {
	t.Helper()
	dir := t.TempDir()
	bin, err := buildServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	return runEnv{bin: bin, dir: dir, divisor: 20, layers: layers}
}

// TestQuickEndToEnd drives all four workloads through a real rsserve at
// 1/20 scale: every op correct, every metric present and positive, and no
// server left behind.
func TestQuickEndToEnd(t *testing.T) {
	env := quickEnv(t, true)
	for _, s := range specs {
		s.preload /= env.divisor
		s.setups = 1
		pl := planFor(s, 5, env.divisor)
		measured, warm := pl.measured(), pl.warm
		w := generate(s, 11, measured, warm)
		res, err := runE2E(env, w, pl)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if res.Failed != 0 || res.Attempted != conns*(measured+warm) {
			t.Errorf("%s: failed %d of %d attempted (want 0 of %d): %s", s.name, res.Failed, res.Attempted, conns*(measured+warm), res.FirstFailure)
		}
		for _, d := range endToEnd {
			if v := res.Metrics[d.name]; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", s.name, d.name, v)
			}
		}
		for name := range res.Layers {
			if !knownLayerMetric(name) {
				t.Errorf("%s: undeclared per-layer metric %s", s.name, name)
			}
		}
		if s.stack == stackBuffered && res.Layers["wbuf.probes_per_write"] == 0 {
			t.Errorf("%s: the STATS write_buffer section was not read", s.name)
		}
	}
	childMu.Lock()
	left := len(children)
	childMu.Unlock()
	if left != 0 {
		t.Errorf("%d rsserve processes still registered after the runs", left)
	}
}

func knownLayerMetric(name string) bool {
	for _, d := range perLayer {
		if d.name == name {
			return true
		}
	}
	return false
}

// TestMirrorCountsRepeat runs the traced mirror twice on one seed: every
// count metric must be identical, and the ladder must sum to the RPC span.
func TestMirrorCountsRepeat(t *testing.T) {
	env := runEnv{dir: t.TempDir(), divisor: 40}
	for _, s := range specs {
		s.preload /= env.divisor
		run := func() map[string]float64 {
			dir, err := os.MkdirTemp(env.dir, "m")
			if err != nil {
				t.Fatal(err)
			}
			e := env
			e.dir = dir
			l, spans, failed, failure, err := runMirror(e, s, 11, 100)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			if failed != 0 {
				t.Fatalf("%s: %d mirror ops failed: %s", s.name, failed, failure)
			}
			if len(spans) == 0 {
				t.Errorf("%s: no spans recorded", s.name)
			}
			return l
		}
		a, b := run(), run()
		for name, v := range a {
			counted := strings.HasPrefix(name, "epst.ios_") || strings.HasPrefix(name, "eio.phys_") ||
				strings.HasPrefix(name, "eio.pool_") || strings.HasSuffix(name, "_bytes_per_op") || name == "eio.fsyncs_per_write"
			if counted && b[name] != v {
				t.Errorf("%s: %s = %v then %v on the same seed", s.name, name, v, b[name])
			}
		}
		sum := a["server.self_us_per_op"] + a["core.self_us_per_op"] + a["epst.self_us_per_op"] +
			a["eio.wrap_us_per_op"] + a["eio.file_us_per_op"] + a["eio.sync_us_per_op"]
		if rpc := a["trace.rpc_us_per_op"]; math.Abs(sum-rpc) > 1e-6*rpc {
			t.Errorf("%s: ladder sums to %v us, the RPC span is %v us", s.name, sum, rpc)
		}
		if a["epst.ios_per_query"]+a["epst.ios_per_write"] == 0 {
			t.Errorf("%s: the top seam saw no I/O", s.name)
		}
	}
}
