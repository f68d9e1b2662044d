package obs

import (
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"rangesearch/internal/core"
	"rangesearch/internal/eio"
	"rangesearch/internal/epst"
	"rangesearch/internal/geom"
)

// buildInstrumented builds a small ThreeSided and churns it through
// inserts, deletes and queries.
func buildInstrumented(t *testing.T) (*Instrumented, *Collector, int) {
	t.Helper()
	mem := eio.NewMemStore(1024)
	idx, err := core.NewThreeSided(mem, epst.Options{})
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	in, err := Instrument(idx, mem, col)
	if err != nil {
		t.Fatal(err)
	}
	b := eio.BlockCapacity(1024)
	const n = 500
	for i := 0; i < n; i++ {
		if err := in.Insert(geom.Point{X: int64(i * 7 % 2003), Y: int64(i * 13 % 2003)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := in.Delete(geom.Point{X: int64(i * 7 % 2003), Y: int64(i * 13 % 2003)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		lo := int64(i * 60 % 1800)
		if _, err := in.Query(nil, geom.Rect{XLo: lo, XHi: lo + 200, YLo: 0, YHi: geom.MaxCoord}); err != nil {
			t.Fatal(err)
		}
	}
	return in, col, b
}

func TestInstrumentedRecordsExactCosts(t *testing.T) {
	in, col, _ := buildInstrumented(t)
	recs := col.Records()
	var nIns, nDel, nQ int
	for _, r := range recs {
		switch r.Kind {
		case OpInsert:
			nIns++
			if r.IOs() == 0 {
				t.Fatal("insert with zero I/Os")
			}
		case OpDelete:
			nDel++
		case OpQuery:
			nQ++
			if r.Reads == 0 {
				t.Fatal("query with zero reads")
			}
			if r.Writes != 0 {
				t.Fatalf("query performed %d writes", r.Writes)
			}
		}
		if r.Err {
			t.Fatalf("unexpected errored record %+v", r)
		}
	}
	if nIns != 500 || nDel != 50 || nQ != 30 {
		t.Fatalf("records %d/%d/%d, want 500/50/30", nIns, nDel, nQ)
	}
	// Size bookkeeping: N recorded on the last insert is 499 (size before
	// the op), and Len agrees with inserts minus successful deletes.
	n, err := in.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != 450 {
		t.Fatalf("Len = %d, want 450", n)
	}
}

func TestCheckBoundsAndExceeds(t *testing.T) {
	_, col, b := buildInstrumented(t)
	rep := CheckBounds("ThreeSided", col.Records(), b)
	if rep.Query.Count != 30 || rep.Insert.Count != 500 || rep.Delete.Count != 50 {
		t.Fatalf("report counts %+v", rep)
	}
	if rep.Query.P95 <= 0 || rep.Insert.P95 <= 0 {
		t.Fatalf("degenerate overheads %+v", rep)
	}
	// The structures really do meet the theorems with small constants on
	// this workload; a generous limit must pass and a sub-1 limit must
	// fail.
	if err := rep.Exceeds(64, 64); err != nil {
		t.Fatalf("generous limit violated: %v", err)
	}
	if err := rep.Exceeds(0.01, 0.01); err == nil {
		t.Fatal("absurdly tight limit passed")
	}
	if err := rep.Exceeds(0.01, math.Inf(1)); err == nil {
		t.Fatal("tight query limit skipped")
	}
	if !strings.Contains(rep.String(), "query") {
		t.Fatalf("report string %q", rep.String())
	}
}

func TestCheckBoundsSkipsErroredRecords(t *testing.T) {
	recs := []OpRecord{
		{Kind: OpQuery, Reads: 5, N: 100, T: 3},
		{Kind: OpQuery, Reads: 500, N: 100, Err: true},
	}
	rep := CheckBounds("x", recs, 64)
	if rep.Query.Count != 1 || rep.Skipped != 1 {
		t.Fatalf("report %+v", rep)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	return string(body)
}

func TestPublishAndServeMetrics(t *testing.T) {
	pool := eio.NewPool(eio.NewMemStore(128), 4)
	defer pool.Close()
	PublishPool("test", pool)
	Publish("rangesearch.test", SetFunc(func(s Sink) { s.Counter("n", 1) }))
	// Republishing under the same name must not panic (expvar would).
	PublishPool("test", pool)

	ms, err := ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	body := httpGet(t, "http://"+ms.Addr()+"/debug/vars")
	for _, want := range []string{"rangesearch.pool.test", "rangesearch.test"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/debug/vars missing %q", want)
		}
	}
	if idx := httpGet(t, "http://"+ms.Addr()+"/debug/pprof/"); !strings.Contains(idx, "profile") {
		t.Fatal("pprof index not served")
	}
}
