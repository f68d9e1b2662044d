package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// This file renders the package's repointable expvar surface in the
// Prometheus text exposition format (version 0.0.4), so the same
// producers that feed /debug/vars also feed a /metrics endpoint any
// Prometheus-compatible scraper understands — no client library, no new
// dependency. Scalar leaves become gauges; values shaped like a
// HistogramSnapshot become native Prometheus histograms with cumulative
// `le` buckets, `_sum` and `_count`.

// WritePrometheus renders every variable registered through this
// package's Publish (and the Publish* helpers) to w in the Prometheus
// text exposition format. Nested maps flatten into metric names joined
// with underscores; name fragments are sanitized to the Prometheus
// alphabet. Strings and other non-numeric leaves are skipped.
func WritePrometheus(w io.Writer) error {
	varMu.Lock()
	names := make([]string, 0, len(varFns))
	for name := range varFns {
		names = append(names, name)
	}
	fns := make(map[string]func() interface{}, len(varFns))
	for name, fn := range varFns {
		fns[name] = fn
	}
	varMu.Unlock()
	sort.Strings(names)

	bw := bufio.NewWriter(w)
	for _, name := range names {
		fn := fns[name]
		if fn == nil {
			continue
		}
		v := fn()
		if v == nil {
			continue
		}
		// Round-trip through JSON so every producer payload (structs,
		// maps, snapshots) walks as the same generic tree.
		raw, err := json.Marshal(v)
		if err != nil {
			continue
		}
		var tree interface{}
		if err := json.Unmarshal(raw, &tree); err != nil {
			continue
		}
		if err := promWalk(bw, sanitizeMetricName(name), tree); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// promWalk emits one flattened subtree rooted at name.
func promWalk(w io.Writer, name string, v interface{}) error {
	switch t := v.(type) {
	case float64:
		return promGauge(w, name, t)
	case bool:
		b := 0.0
		if t {
			b = 1
		}
		return promGauge(w, name, b)
	case map[string]interface{}:
		if h, ok := asHistogram(t); ok {
			return promHistogram(w, name, h)
		}
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := promWalk(w, name+"_"+sanitizeMetricName(k), t[k]); err != nil {
				return err
			}
		}
	}
	// Strings, arrays and null leaves carry no sample value.
	return nil
}

func promGauge(w io.Writer, name string, v float64) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", name); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %s\n", name, promFloat(v))
	return err
}

// promHist is the recognized histogram payload: the JSON shape of
// HistogramSnapshot.
type promHist struct {
	count   float64
	sum     float64
	buckets []promBucket
}

type promBucket struct {
	hi    float64
	count float64
}

// asHistogram detects the HistogramSnapshot JSON shape: count, mean,
// min, max present and numeric, buckets (if present) a list of
// {Lo,Hi,Count} objects.
func asHistogram(m map[string]interface{}) (promHist, bool) {
	var h promHist
	count, ok1 := m["count"].(float64)
	mean, ok2 := m["mean"].(float64)
	_, ok3 := m["min"].(float64)
	_, ok4 := m["max"].(float64)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return h, false
	}
	h.count = count
	h.sum = mean * count
	if bs, ok := m["buckets"].([]interface{}); ok {
		for _, b := range bs {
			bm, ok := b.(map[string]interface{})
			if !ok {
				return h, false
			}
			hi, ok1 := bm["Hi"].(float64)
			c, ok2 := bm["Count"].(float64)
			if !ok1 || !ok2 {
				return h, false
			}
			h.buckets = append(h.buckets, promBucket{hi: hi, count: c})
		}
		sort.Slice(h.buckets, func(i, j int) bool { return h.buckets[i].hi < h.buckets[j].hi })
	}
	return h, true
}

// promHistogram renders h as a native Prometheus histogram: cumulative
// le buckets (upper bounds are the log₂ bucket Hi edges), a +Inf bucket,
// _sum and _count.
func promHistogram(w io.Writer, name string, h promHist) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	cum := 0.0
	for _, b := range h.buckets {
		cum += b.count
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %s\n",
			name, promFloat(b.hi), promFloat(cum)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %s\n", name, promFloat(h.count)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, promFloat(h.sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %s\n", name, promFloat(h.count))
	return err
}

// promFloat renders a sample value: integral values without an exponent
// (histogram counts stay exact), everything else in shortest form.
func promFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sanitizeMetricName maps an arbitrary fragment into the Prometheus
// metric-name alphabet [a-zA-Z0-9_:], collapsing runs of other bytes
// into single underscores.
func sanitizeMetricName(s string) string {
	var b strings.Builder
	lastUnder := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9')
		if ok {
			b.WriteByte(c)
			lastUnder = c == '_'
			continue
		}
		if !lastUnder && b.Len() > 0 {
			b.WriteByte('_')
			lastUnder = true
		}
	}
	out := strings.TrimSuffix(b.String(), "_")
	if out == "" {
		return "unnamed"
	}
	if out[0] >= '0' && out[0] <= '9' {
		out = "_" + out
	}
	return out
}

var (
	promSampleRe = regexp.MustCompile(
		`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*,?\})? [^ ]+( [0-9]+)?$`)
	promTypeRe = regexp.MustCompile(
		`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped)$`)
)

// CheckExposition validates a Prometheus text exposition read from r:
// every line must be blank, a well-formed comment (# HELP / # TYPE /
// free comment), or a sample with a valid metric name, optional label
// set and parseable value. It returns the number of samples. The chaos
// harness (internal/server/chaos) runs it against a live /metrics scrape
// of every process it starts, and `rsinspect prom` against any scrape.
func CheckExposition(r io.Reader) (samples int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if strings.HasPrefix(line, "# TYPE ") && !promTypeRe.MatchString(line) {
				return samples, fmt.Errorf("obs: exposition line %d: malformed TYPE comment %q", lineNo, line)
			}
			continue
		}
		if !promSampleRe.MatchString(line) {
			return samples, fmt.Errorf("obs: exposition line %d: malformed sample %q", lineNo, line)
		}
		// The value field must parse as a float (Inf/NaN included).
		// Split after the label set, not on every space: label values
		// may contain spaces.
		rest := line
		if i := strings.Index(line, "}"); i >= 0 {
			rest = line[i+1:]
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			rest = line[i+1:]
		}
		if fields := strings.Fields(rest); len(fields) > 0 {
			val := fields[0]
			if _, ferr := strconv.ParseFloat(strings.TrimPrefix(val, "+"), 64); ferr != nil {
				return samples, fmt.Errorf("obs: exposition line %d: bad value %q", lineNo, val)
			}
		}
		samples++
	}
	if serr := sc.Err(); serr != nil {
		return samples, serr
	}
	return samples, nil
}
