package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestWritePrometheusGaugesAndHistograms(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(uint64(i) * 1000)
	}
	Publish("prom test.set", SetFunc(func(s Sink) {
		s.Counter("reads", 42)
		s.Gauge("ratio", 0.25)
		s.Group("nested", func(s Sink) { s.Gauge("level", 3) })
		s.List("shards", 2, func(i int, s Sink) { s.Counter("points", uint64(i)) })
	}))
	Publish("prom-test-hist", SetFunc(func(s Sink) { s.Histogram("lat", &h) }))
	// expvar keeps a published name for the life of the process, so the
	// names are withdrawn (WritePrometheus skips nil sets) rather than
	// deleted: a rerun (-count=N) republishes them as repoints.
	defer func() {
		for _, name := range []string{"prom test.set", "prom-test-hist"} {
			Publish(name, nil)
		}
	}()

	var buf bytes.Buffer
	if err := WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()

	// Each scalar keeps its declared kind under a sanitized name; groups
	// and list elements join the name with underscores.
	for _, want := range []string{
		"# TYPE prom_test_set_reads counter\nprom_test_set_reads 42\n",
		"# TYPE prom_test_set_ratio gauge\nprom_test_set_ratio 0.25\n",
		"# TYPE prom_test_set_nested_level gauge\nprom_test_set_nested_level 3\n",
		"# TYPE prom_test_set_shards_1_points counter\nprom_test_set_shards_1_points 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// The histogram became a cumulative-bucket series with sum and count.
	for _, want := range []string{
		"# TYPE prom_test_hist_lat histogram",
		`prom_test_hist_lat_bucket{le="+Inf"} 1000`,
		"prom_test_hist_lat_count 1000",
		"prom_test_hist_lat_sum 499500000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Bucket counts are cumulative: each le count >= the previous.
	var prev int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "prom_test_hist_lat_bucket") {
			continue
		}
		var n int64
		if _, err := fmt.Sscanf(line[strings.Index(line, "} ")+2:], "%d", &n); err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if n < prev {
			t.Fatalf("bucket counts not cumulative at %q (prev %d)", line, prev)
		}
		prev = n
	}

	// And the whole thing passes the validator the chaos harness runs on
	// every process's /metrics scrape.
	n, err := CheckExposition(strings.NewReader(out))
	if err != nil {
		t.Fatalf("CheckExposition rejected our own output: %v\n%s", err, out)
	}
	if n == 0 {
		t.Fatal("CheckExposition counted zero samples")
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"store.file":       "store_file",
		"a b\tc":           "a_b_c",
		"trailing..":       "trailing",
		"99bottles":        "_99bottles",
		"ok:colons_kept":   "ok:colons_kept",
		"weird/$%symbols!": "weird_symbols",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCheckExpositionRejectsGarbage(t *testing.T) {
	bad := []string{
		"no_value_here\n",
		"name{unclosed 3\n",
		"ok 1\nnot a metric line at all\n",
		"val NaNish\n",
	}
	for _, in := range bad {
		if _, err := CheckExposition(strings.NewReader(in)); err == nil {
			t.Errorf("CheckExposition accepted %q", in)
		}
	}
	// Labels with spaces inside quoted values are legal.
	good := "# TYPE foo gauge\nfoo{msg=\"two words\"} 7\n"
	if n, err := CheckExposition(strings.NewReader(good)); err != nil || n != 1 {
		t.Errorf("CheckExposition(%q) = %d, %v; want 1, nil", good, n, err)
	}
}
