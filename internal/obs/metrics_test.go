package obs

import (
	"encoding/json"
	"testing"
)

// TestMetricsJSONAndValue pins the JSON rendering of a Set — numbers,
// nested objects, arrays, histograms with their p50/p99 — and reads the
// same declaration back through Value.
func TestMetricsJSONAndValue(t *testing.T) {
	var c Counter
	var g Gauge
	var h Histogram
	c.Add(7)
	g.Add(5)
	g.Add(-2)
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	set := SetFunc(func(s Sink) {
		s.Counter("count", c.Load())
		s.Gauge("level", float64(g.Load()))
		s.Gauge("ratio", 0.5)
		s.Group("g", func(s Sink) { s.Histogram("lat", &h) })
		s.List("shards", 2, func(i int, s Sink) { s.Counter("n", uint64(10+i)) })
		s.List("none", 0, func(int, Sink) {})
	})

	raw := JSON(set)
	var doc struct {
		Count  uint64
		Level  float64
		Ratio  float64
		G      struct{ Lat HistogramSnapshot }
		Shards []struct{ N uint64 }
		None   []struct{}
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("JSON %s: %v", raw, err)
	}
	if doc.Count != 7 || doc.Level != 3 || doc.Ratio != 0.5 || len(doc.Shards) != 2 || doc.Shards[1].N != 11 || doc.None == nil {
		t.Fatalf("JSON rendering: %s", raw)
	}
	if lat := doc.G.Lat; lat.Count != 100 || lat.P50 != h.Quantile(0.5) || lat.P99 != h.Quantile(0.99) || len(lat.Buckets) == 0 {
		t.Fatalf("histogram rendering: %+v", lat)
	}

	for path, want := range map[string]float64{"count": 7, "level": 3, "g.lat": 100, "shards.1.n": 11} {
		if v := Value(set, path); v != want {
			t.Errorf("Value(%q) = %v; want %v", path, v, want)
		}
	}
	for _, path := range []string{"missing", "g", "g.lat.count", "shards.2.n"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Value(%q) did not panic on a metric the set does not declare", path)
				}
			}()
			Value(set, path)
		}()
	}
}
