package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"rangesearch/internal/core"
	"rangesearch/internal/eio"
	"rangesearch/internal/netfault"
	"rangesearch/internal/node"
	"rangesearch/internal/obs"
	"rangesearch/internal/repl"
	"rangesearch/internal/server"
)

// harness owns the moving parts of one run.
type harness struct {
	cfg    Config
	rep    *Report
	nodes  []*proc // the rsserve processes n0, n1, ...
	router *proc   // sharded topology only
	proxy  *netfault.Proxy
}

// proc is one supervised child process: an rsserve node or the rsrouter.
type proc struct {
	name     string
	bin      string
	args     []string // every start's flags; start appends per-start ones
	addr     string   // client protocol: the readiness Ping goes here
	metrics  string   // -metrics: the /metrics endpoint scrape reads
	replAddr string   // replication protocol (replicated topology only)
	store    string   // "" for the router
	replica  bool     // drained first, never leak-checked
	out      *logBuffer
	cmd      *exec.Cmd // nil while the process is not running
}

func (h *harness) logf(format string, args ...interface{}) {
	if h.cfg.Logf != nil {
		h.cfg.Logf(format, args...)
	}
}

// logBuffer captures a child process's output while forwarding it to the
// harness log line by line.
type logBuffer struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	logf func(format string, args ...interface{})
	tag  string
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	b.buf.Write(p)
	b.mu.Unlock()
	if b.logf != nil {
		for _, line := range strings.Split(strings.TrimRight(string(p), "\n"), "\n") {
			if line != "" {
				b.logf("%s: %s", b.tag, line)
			}
		}
	}
	return len(p), nil
}

func (b *logBuffer) count(substr string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Count(b.buf.String(), substr)
}

// freePort reserves an ephemeral port and releases it for the child to
// bind. The tiny race is acceptable for a test harness.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// newProc declares a child process serving on a fresh port with its
// /metrics endpoint on another; it is not started.
func (h *harness) newProc(name, bin string) (*proc, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	metrics, err := freePort()
	if err != nil {
		return nil, err
	}
	return &proc{name: name, bin: bin, addr: addr, metrics: metrics,
		args: []string{"-addr", addr, "-metrics", metrics},
		out:  &logBuffer{logf: h.cfg.Logf, tag: name}}, nil
}

// newNode declares the next rsserve node with the flags every topology
// gives it; it is not started.
func (h *harness) newNode() (*proc, error) {
	n, err := h.newProc(fmt.Sprintf("n%d", len(h.nodes)), h.cfg.ServerBin)
	if err != nil {
		return nil, err
	}
	n.store = filepath.Join(h.cfg.Dir, n.name+".db")
	n.args = append(n.args, "-store", n.store, "-request-timeout", requestTimeout.String())
	if h.cfg.TraceSample > 0 {
		n.args = append(n.args, "-trace-sample", fmt.Sprintf("%g", h.cfg.TraceSample),
			"-spans", spoolPath(n.store))
	}
	if h.cfg.WriteBuffer {
		n.args = append(n.args, "-write-buffer",
			"-write-buffer-ops", fmt.Sprint(writeBufferOps),
			"-write-buffer-age", writeBufferAge.String())
	}
	h.nodes = append(h.nodes, n)
	return n, nil
}

// start spawns p with its flags plus extra and waits until it answers a
// Ping; a process that never does is killed before start returns.
func (h *harness) start(p *proc, extra ...string) error {
	cmd := exec.Command(p.bin, append(append([]string(nil), p.args...), extra...)...)
	cmd.Stdout = p.out
	cmd.Stderr = p.out
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("chaos: start %s: %w", p.name, err)
	}
	p.cmd = cmd
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		cl, err := server.Dial(p.addr, server.ClientOptions{DialTimeout: 200 * time.Millisecond})
		if err == nil {
			err = cl.Ping([]byte("chaos"))
			cl.Close()
			if err == nil {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	p.kill()
	return fmt.Errorf("chaos: %s on %s never became ready", p.name, p.addr)
}

// sigkill is a fault step: SIGKILL p mid-traffic — no drain, no WAL flush
// beyond what group commit already synced.
func (h *harness) sigkill(p *proc, cycle int) {
	h.logf("chaos: cycle %d/%d: SIGKILL %s", cycle, h.cfg.Cycles, p.name)
	p.kill()
	h.rep.Kills++
}

// restart brings a killed p back on its own store.
func (h *harness) restart(p *proc, extra ...string) error {
	if err := h.start(p, extra...); err != nil {
		return err
	}
	h.rep.Restarts++
	return nil
}

// kill SIGKILLs p and reaps it; a no-op when p is not running.
func (p *proc) kill() {
	if p.cmd == nil {
		return
	}
	_ = p.cmd.Process.Kill() // fails only if it already exited; Wait reaps either way
	_ = p.cmd.Wait()         // exit status is meaningless after SIGKILL
	p.cmd = nil
}

// stop SIGTERMs p and returns its exit code (0 = a clean drain, which for
// rsserve includes its own leak check); p is reaped on every path.
func (p *proc) stop() (int, error) {
	if p.cmd == nil {
		return 0, nil
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return -1, fmt.Errorf("chaos: SIGTERM %s: %w", p.name, err)
	}
	cmd := p.cmd
	p.cmd = nil
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return ee.ExitCode(), nil
		}
		if err != nil {
			return -1, err
		}
		return 0, nil
	case <-time.After(drainTimeout):
		_ = cmd.Process.Kill()
		<-done
		return -1, fmt.Errorf("chaos: %s drain timed out", p.name)
	}
}

// killAll kills and reaps every child still running and closes the
// proxy; Run defers it, so no return path leaves a process behind.
func (h *harness) killAll() {
	for _, n := range h.nodes {
		n.kill()
	}
	if h.router != nil {
		h.router.kill()
	}
	h.closeProxy()
}

// reproxy fronts upstream with a fresh netfault proxy, retiring the
// previous one (closing its listener cuts every stream still on it).
func (h *harness) reproxy(upstream string) error {
	h.closeProxy()
	p, err := netfault.New(upstream, netfault.Options{Seed: h.cfg.Seed, Logf: h.cfg.Logf})
	if err != nil {
		return err
	}
	h.proxy = p
	return nil
}

// closeProxy folds the proxy's counters into the report and closes it.
func (h *harness) closeProxy() {
	if h.proxy == nil {
		return
	}
	st := h.proxy.Stats()
	h.rep.Proxy.Accepted += st.Accepted
	h.rep.Proxy.BytesUp += st.BytesUp
	h.rep.Proxy.BytesDown += st.BytesDown
	h.rep.Proxy.Cuts += st.Cuts
	h.rep.Proxy.DialErrors += st.DialErrors
	h.proxy.Close()
	h.proxy = nil
}

// stats fetches one process's STATS snapshot; a router's decodes into the
// same shape ("len" is its fleet total).
func stats(addr string) (*server.StatsSnapshot, error) {
	cl, err := server.Dial(addr, server.ClientOptions{DialTimeout: time.Second})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	raw, err := cl.Stats()
	if err != nil {
		return nil, err
	}
	var st server.StatsSnapshot
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// scrape reads every process's /metrics while the fleet is still up: the
// exposition must validate, and it must carry the families that process
// publishes — the server's counters on every rsserve, the durable stack's
// page cache on every non-replica one, the write buffer's with
// WriteBuffer, and the router's counters on the router.
func (h *harness) scrape() {
	cl := http.Client{Timeout: requestTimeout}
	for _, p := range append([]*proc{h.router}, h.nodes...) {
		if p == nil {
			continue
		}
		want := []string{"rangesearch_router_main"}
		if p != h.router {
			want = []string{"rangesearch_server_main"}
			if !p.replica {
				want = append(want, "rangesearch_pool_tx")
			}
			if h.cfg.WriteBuffer {
				want = append(want, "rangesearch_wbuf_serve")
			}
		}
		resp, err := cl.Get("http://" + p.metrics + "/metrics")
		if err != nil {
			h.rep.failf("%s /metrics: %v", p.name, err)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			_, err = obs.CheckExposition(bytes.NewReader(body))
		}
		if err != nil {
			h.rep.failf("%s /metrics: %v", p.name, err)
			continue
		}
		lines := "\n" + string(body)
		for _, family := range want {
			if !strings.Contains(lines, "\n"+family) {
				h.rep.failf("%s /metrics carries no %s samples", p.name, family)
			}
		}
	}
}

// spoolPath is where a traced node spools its sampled spans (-spans).
func spoolPath(store string) string { return store + ".spans.jsonl" }

// drain stops the fleet — router first (it holds client-side state only),
// then the replicas, then the primary or shards — recording every exit.
func (h *harness) drain() {
	var order []*proc
	if h.router != nil {
		order = append(order, h.router)
	}
	for _, replicas := range []bool{true, false} {
		for _, n := range h.nodes {
			if n.replica == replicas {
				order = append(order, n)
			}
		}
	}
	for _, p := range order {
		code, err := p.stop()
		h.rep.DrainExits[p.name] = code
		if err != nil {
			h.rep.failf("drain %s: %v", p.name, err)
		}
	}
}

// postMortem re-verifies every drained store in-process and checks the
// stores against the fleet's reported total and against each other, the
// final primary's manifest against the promotions, and every span spool
// for parseable lines; it also sums the nodes' boot-scrub and
// journal-replay log lines.
func (h *harness) postMortem() {
	spans := 0
	for _, n := range h.nodes {
		if h.cfg.TraceSample > 0 {
			spans += h.readSpool(n)
		}
		if h.cfg.Replicas > 0 && !n.replica {
			if m, err := node.ReadManifest(n.store); err != nil {
				h.rep.failf("%s manifest: %v", n.name, err)
			} else if m.Role != repl.RolePrimary || m.Term != h.rep.FinalTerm {
				h.rep.failf("%s manifest reads role %q term %d, want primary at term %d", n.name, m.Role, m.Term, h.rep.FinalTerm)
			}
		}
		h.rep.BootScrubs += n.out.count("boot scrub: reclaimed")
		h.rep.JournalReplays += n.out.count("write buffer: replayed")
		// A clean drain folds the buffer into the base and truncates the
		// journal; bytes left behind would mean acked writes the tree
		// never absorbed.
		if fi, err := os.Stat(node.JournalPath(n.store)); err == nil && fi.Size() > 0 {
			h.rep.failf("%s: write-buffer journal still holds %d bytes after drain", n.name, fi.Size())
		}
		sr, err := inspect(n.store, !n.replica)
		if err != nil {
			h.rep.failf("post-mortem %s: %v", n.name, err)
			continue
		}
		h.rep.Stores[n.name] = sr
		if !n.replica {
			h.rep.Points += sr.Points
		}
	}
	if h.rep.Points != h.rep.Len {
		h.rep.failf("stores hold %d points, the fleet reported %d", h.rep.Points, h.rep.Len)
	}
	if h.cfg.TraceSample > 0 {
		h.logf("chaos: span spools hold %d spans", spans)
		if spans == 0 {
			h.rep.failf("tracing was on, but no node spooled a span")
		}
	}
	for _, n := range h.nodes {
		if sr, ok := h.rep.Stores[n.name]; ok && n.replica && sr.Points != h.rep.Points {
			h.rep.failf("%s holds %d points, primary holds %d", n.name, sr.Points, h.rep.Points)
		}
	}
}

// readSpool parses n's span spool, which its last process flushed on its
// clean drain, and returns how many spans it holds.
func (h *harness) readSpool(n *proc) int {
	f, err := os.Open(spoolPath(n.store))
	if err != nil {
		h.rep.failf("%s span spool: %v", n.name, err)
		return 0
	}
	defer f.Close()
	recs, err := obs.ReadSpans(f)
	if err != nil {
		h.rep.failf("%s span spool: %v", n.name, err)
	}
	return len(recs)
}

// inspect reopens a drained store in-process and re-verifies what
// rsserve's exit code already claimed: WAL recovery is a no-op, the file's
// checksums are clean and — when leakCheck is set — the tree plus the
// transactional metadata reach every allocated page.
func inspect(store string, leakCheck bool) (StoreReport, error) {
	var sr StoreReport
	m, err := node.ReadManifest(store)
	if err != nil {
		return sr, err
	}
	if !m.Durable {
		return sr, errors.New("store is not durable")
	}
	fs, err := eio.OpenFileStore(store)
	if err != nil {
		return sr, err
	}
	defer fs.Close()
	tx, err := eio.OpenTxStore(fs, m.Anchor)
	if err != nil {
		return sr, fmt.Errorf("WAL recovery: %w", err)
	}
	idx, err := core.OpenThreeSided(tx, m.Hdr)
	if err != nil {
		return sr, fmt.Errorf("open tree: %w", err)
	}
	if sr.Points, err = idx.Len(); err != nil {
		return sr, fmt.Errorf("len: %w", err)
	}
	if leakCheck {
		if sr.Leaked, err = node.Leaks(tx, m.Hdr, tx, false); err != nil {
			return sr, err
		}
	}
	vrep, err := eio.VerifyFile(store)
	if err != nil {
		return sr, fmt.Errorf("verify: %w", err)
	}
	sr.Pages = int(vrep.NPages)
	if vrep.Damaged() {
		return sr, fmt.Errorf("file damaged: %d bad pages", len(vrep.BadPages))
	}
	return sr, nil
}
