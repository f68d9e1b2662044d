package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
)

// This file renders the published sets in the Prometheus text exposition
// format (version 0.0.4), so the sets that feed /debug/vars also feed a
// /metrics endpoint any Prometheus-compatible scraper understands — no
// client library, no new dependency. Each metric keeps the kind its Set
// declared: counter, gauge, or a native histogram with cumulative `le`
// buckets, `_sum` and `_count`.

// WritePrometheus renders every set registered through Publish to w in
// the Prometheus text exposition format. Group and list names join the
// metric names with underscores; name fragments are sanitized to the
// Prometheus alphabet.
func WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	walk(&promSink{w: bw})
	return bw.Flush() // a bufio.Writer keeps the first write error
}

type promSink struct {
	w      *bufio.Writer
	prefix string // the enclosing groups' names, each followed by "_"
}

func (p *promSink) sample(name, kind, value string) {
	name = p.prefix + sanitizeMetricName(name)
	fmt.Fprintf(p.w, "# TYPE %s %s\n%s %s\n", name, kind, name, value)
}

func (p *promSink) Counter(name string, v uint64) {
	p.sample(name, "counter", strconv.FormatUint(v, 10))
}

func (p *promSink) Gauge(name string, v float64) { p.sample(name, "gauge", formatFloat(v)) }

// Histogram renders h as a native Prometheus histogram: cumulative le
// buckets (upper bounds are the log₂ bucket Hi edges), a +Inf bucket,
// _sum and _count.
func (p *promSink) Histogram(name string, h *Histogram) {
	name = p.prefix + sanitizeMetricName(name)
	snap := h.Snapshot()
	fmt.Fprintf(p.w, "# TYPE %s histogram\n", name)
	var cum uint64
	for _, b := range snap.Buckets {
		cum += b.Count
		fmt.Fprintf(p.w, "%s_bucket{le=\"%d\"} %d\n", name, b.Hi, cum)
	}
	fmt.Fprintf(p.w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
		name, snap.Count, name, formatFloat(snap.Mean*float64(snap.Count)), name, snap.Count)
}

func (p *promSink) Group(name string, emit func(Sink)) {
	emit(&promSink{w: p.w, prefix: p.prefix + sanitizeMetricName(name) + "_"})
}

func (p *promSink) List(name string, n int, emit func(int, Sink)) {
	for i := 0; i < n; i++ {
		emit(i, &promSink{w: p.w, prefix: p.prefix + sanitizeMetricName(name) + "_" + strconv.Itoa(i) + "_"})
	}
}

// formatFloat renders a sample value: integral values without an exponent
// (counts stay exact), everything else in shortest form.
func formatFloat(v float64) string {
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
