package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rangesearch/internal/node"
	"rangesearch/internal/router"
	"rangesearch/internal/server"
	"rangesearch/internal/wbuf"
)

// buildBin compiles rsload into a temp dir, so the tests below drive the
// real command line: flags, report and exit codes.
func buildBin(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rsload")
	if out, err := exec.Command("go", "build", "-o", bin, "rangesearch/cmd/rsload").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// expect runs bin with args and requires exit code code.
func expect(t *testing.T, bin string, code int, args ...string) {
	t.Helper()
	var out bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &out
	got := 0
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("rsload %s: %v", strings.Join(args, " "), err)
		}
		got = ee.ExitCode()
	}
	if got != code {
		t.Fatalf("rsload %s: exit %d, want %d\n%s", strings.Join(args, " "), got, code, out.Bytes())
	}
}

// serve runs a server over a -mem node stack in process until the test
// ends and returns its address.
func serve(t *testing.T) string {
	t.Helper()
	st, err := node.Build(node.Config{Mem: true, PageSize: 4096, WriteBufferOps: wbuf.DefaultMaxOps})
	if err != nil {
		t.Fatalf("node.Build: %v", err)
	}
	srv := server.New(st.Engine(), server.Config{})
	return listen(t, srv.Serve, srv.Shutdown, func() {
		if leaked, err := st.Drain(); err != nil || leaked != 0 {
			t.Errorf("drain: leaked=%d err=%v", leaked, err)
		}
	})
}

// listen serves on a loopback port and, when the test ends, shuts down
// and then runs after.
func listen(t *testing.T, serve func(net.Listener) error, shutdown func(context.Context) error, after func()) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = shutdown(ctx)
		<-done
		after()
	})
	return ln.Addr().String()
}

func report(t *testing.T, path string) server.LoadReport {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep server.LoadReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
	return rep
}

func TestCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the rsload binary; skipped in -short")
	}
	bin := buildBin(t)
	dir := t.TempDir()
	a := serve(t)

	out := filepath.Join(dir, "load.json")
	expect(t, bin, 0, "-addr", a, "-verify", "-json", out, "-duration", "500ms",
		"-batch-every", "50", "-trace-sample", "0.05", "-pipeline", "8")
	if rep := report(t, out); rep.Ops == 0 || rep.TracedOps == 0 {
		t.Fatalf("verified traced run: ops=%d traced_ops=%d, want both > 0", rep.Ops, rep.TracedOps)
	}

	// Fresh shards: a verified run's per-worker models start empty.
	m, err := router.ParseShards("x<524288@" + serve(t) + ",rest@" + serve(t))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := router.New(m, router.Options{})
	if err != nil {
		t.Fatal(err)
	}
	addr := listen(t, rt.Serve, rt.Shutdown, func() {})
	out = filepath.Join(dir, "cluster.json")
	expect(t, bin, 0, "-addr", addr, "-cluster", "-verify", "-json", out, "-duration", "300ms")
	if rep := report(t, out); rep.Cluster == nil || rep.Cluster.Shards != 2 {
		t.Fatalf("-cluster report carries %+v, want 2 shards", rep.Cluster)
	}

	expect(t, bin, 1, "-addr", a, "-read-addrs", a, "-duration", "100ms")
}
