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
	Publish("prom test.gauge", func() interface{} {
		return map[string]interface{}{"reads": 42, "ratio": 0.25, "ok": true}
	})
	Publish("prom-test-hist", func() interface{} {
		return map[string]interface{}{"lat": h.Snapshot()}
	})
	// expvar keeps a published name for the life of the process, so the
	// names are repointed at nothing (WritePrometheus skips nil values)
	// rather than deleted: a rerun (-count=N) republishes them as repoints.
	defer func() {
		for _, name := range []string{"prom test.gauge", "prom-test-hist"} {
			Publish(name, func() interface{} { return nil })
		}
	}()

	var buf bytes.Buffer
	if err := WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()

	// Scalars became gauges under sanitized names.
	for _, want := range []string{
		"prom_test_gauge_reads 42",
		"prom_test_gauge_ratio 0.25",
		"prom_test_gauge_ok 1",
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
		"prom_test_hist_lat_sum ",
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
