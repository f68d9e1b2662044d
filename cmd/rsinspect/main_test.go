package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rangesearch/internal/core"
	"rangesearch/internal/geom"
	"rangesearch/internal/node"
	"rangesearch/internal/obs"
	"rangesearch/internal/router"
	"rangesearch/internal/trace"
	"rangesearch/internal/wbuf"
)

// buildBin compiles rsinspect into a temp dir, so the tests below drive
// the real command line: flags, output and exit codes.
func buildBin(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rsinspect")
	if out, err := exec.Command("go", "build", "-o", bin, "rangesearch/cmd/rsinspect").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// expect runs bin with args, requires exit code code and returns stdout.
func expect(t *testing.T, bin string, code int, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	got := 0
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("rsinspect %s: %v", strings.Join(args, " "), err)
		}
		got = ee.ExitCode()
	}
	if got != code {
		t.Fatalf("rsinspect %s: exit %d, want %d\nstdout:\n%s\nstderr:\n%s",
			strings.Join(args, " "), got, code, stdout.Bytes(), stderr.Bytes())
	}
	return stdout.Bytes()
}

func decode(t *testing.T, raw []byte, v interface{}) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
}

// drainedStore builds the durable stack rsserve's flag defaults give
// -store, writes and deletes through it, drains it, and records the
// manifest a promoted replica leaves (role primary, term 3). It returns
// the store's path, manifest and point count.
func drainedStore(t *testing.T) (string, *node.Manifest, int) {
	t.Helper()
	store := filepath.Join(t.TempDir(), "points.db")
	st, err := node.Build(node.Config{Store: store, PageSize: 4096, Durable: true,
		WALPages: node.DefaultWALPages, WriteBufferOps: wbuf.DefaultMaxOps})
	if err != nil {
		t.Fatalf("node.Build: %v", err)
	}
	pt := func(k int) geom.Point { return geom.Point{X: int64(k * 7919 % 100003), Y: int64(k)} }
	for b := 0; b < 20; b++ {
		var ops []core.BatchOp
		for i := 0; i < 50; i++ {
			k := b*50 + i
			ops = append(ops, core.BatchOp{P: pt(k)})
			if i%5 == 0 && b > 0 {
				ops = append(ops, core.BatchOp{Delete: true, P: pt(k - 50)})
			}
		}
		for _, r := range st.Conc.Apply(ops, nil) {
			if r.Err != nil {
				t.Fatalf("apply: %v", r.Err)
			}
		}
	}
	n, err := st.Conc.Len()
	if err != nil {
		t.Fatalf("len: %v", err)
	}
	if leaked, err := st.Drain(); err != nil || leaked != 0 {
		t.Fatalf("drain: leaked=%d err=%v", leaked, err)
	}
	m, err := node.ReadManifest(store)
	if err != nil {
		t.Fatal(err)
	}
	m.Role, m.Term = "primary", 3
	if err := (node.Config{Store: store}).SetRole(m.Role, m.Term); err != nil {
		t.Fatal(err)
	}
	return store, m, n
}

func TestStoreSubcommands(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the rsinspect binary; skipped in -short")
	}
	bin := buildBin(t)
	store, m, n := drainedStore(t)

	expect(t, bin, 0, "verify", "-store", store)
	var vr struct {
		Damaged bool `json:"damaged"`
	}
	decode(t, expect(t, bin, 0, "verify", "-store", store, "-json"), &vr)
	if vr.Damaged {
		t.Fatal("verify -json reports a clean store damaged")
	}

	var sr struct {
		Reachable int     `json:"reachable"`
		Leaked    []int64 `json:"leaked"`
	}
	decode(t, expect(t, bin, 0, "scrub", "-store", store, "-kind", "epst",
		"-hdr", fmt.Sprint(m.Hdr), "-anchor", fmt.Sprint(m.Anchor), "-dry", "-json"), &sr)
	if sr.Reachable == 0 || len(sr.Leaked) != 0 {
		t.Fatalf("scrub -dry: reachable=%d leaked=%v, want pages and no leaks", sr.Reachable, sr.Leaked)
	}

	var wr struct {
		Role    string `json:"role"`
		Term    uint64 `json:"term"`
		Healthy bool   `json:"healthy"`
	}
	decode(t, expect(t, bin, 0, "wal", "-store", store, "-json"), &wr)
	if wr.Role != "primary" || wr.Term != 3 || !wr.Healthy {
		t.Fatalf("wal -json: role=%q term=%d healthy=%v, want primary/3/true", wr.Role, wr.Term, wr.Healthy)
	}

	var pr struct {
		Points int    `json:"points"`
		Spec   string `json:"spec"`
	}
	decode(t, expect(t, bin, 0, "splitplan", "-store", store, "-n", "2", "-json"), &pr)
	if pr.Points != n {
		t.Fatalf("splitplan counts %d points, the stack held %d", pr.Points, n)
	}
	if bm, err := router.ParseBounds(pr.Spec); err != nil || len(bm.Shards) != 2 {
		t.Fatalf("splitplan spec %q: %v", pr.Spec, err)
	}

	// Damage one data page: both verify forms must now exit 2.
	f, err := os.OpenFile(store, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	const off = 128 + 100 // page 1's data; see eio's v2 file layout
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	expect(t, bin, 2, "verify", "-store", store)
	decode(t, expect(t, bin, 2, "verify", "-store", store, "-json"), &vr)
	if !vr.Damaged {
		t.Fatal("verify -json reports a flipped page clean")
	}
}

func TestTelemetrySubcommands(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the rsinspect binary; skipped in -short")
	}
	bin := buildBin(t)
	dir := t.TempDir()

	spool := filepath.Join(dir, "spans.jsonl")
	sw, err := obs.CreateSpanFile(spool)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		sw.RecordSpan(trace.Record{TraceID: fmt.Sprint(i), Op: "query3", Start: time.Now(),
			WallNs: int64(i+1) * 1000, Phases: map[string]int64{"execute": 500}, IOs: 4})
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if out := expect(t, bin, 0, "spans", "-f", spool); !bytes.HasPrefix(out, []byte("3 spans")) {
		t.Fatalf("spans -f:\n%s", out)
	}

	var h obs.Histogram
	h.Observe(7)
	obs.Publish("rsinspect.test", obs.SetFunc(func(s obs.Sink) {
		s.Counter("n", 1)
		s.Gauge("level", 0.5)
		s.Histogram("lat", &h)
	}))
	var dump bytes.Buffer
	if err := obs.WritePrometheus(&dump); err != nil {
		t.Fatal(err)
	}
	good, bad := filepath.Join(dir, "good.prom"), filepath.Join(dir, "bad.prom")
	if err := os.WriteFile(good, dump.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, append(dump.Bytes(), "not a metric line\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	expect(t, bin, 0, "prom", "-f", good)
	expect(t, bin, 2, "prom", "-f", bad)
}
