package chaos

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"rangesearch/internal/server"
)

// buildBin compiles a real command (rangesearch/cmd/...) into a temp dir
// so the harness kills an actual process, not a test double.
func buildBin(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func failedRun(t *testing.T, rep *Report) {
	t.Helper()
	t.Fatalf("chaos run failed: failures=%v drain_exits=%v stores=%v load: proto=%d consistency=%d transport=%d first=%s",
		rep.Failures, rep.DrainExits, rep.Stores,
		rep.Load.ProtoErrors, rep.Load.ConsistencyErrors, rep.Load.TransportErrors, rep.Load.FirstError)
}

// TestChaosKillRecover is the end-to-end kill-and-recover gate in
// miniature: a few SIGKILL/restart cycles under verified load must lose
// nothing, duplicate nothing, and leave a scrub-clean durable store.
// `make chaos` runs the full ≥10-cycle version via cmd/rschaos.
func TestChaosKillRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real server binary; skipped in -short")
	}
	rep, err := Run(Config{
		ServerBin: buildBin(t, "rangesearch/cmd/rsserve"),
		Dir:       t.TempDir(),
		Cycles:    3,
		Period:    500 * time.Millisecond,
		Seed:      42,
		// Tracing stays live through every kill and recovery: sampled
		// spans must never compromise the exactly-once story.
		TraceSample: 0.05,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatalf("chaos.Run: %v", err)
	}
	t.Logf("chaos: kills=%d restarts=%d ops=%d reconnects=%d resent=%d unknown=%d boot_scrubs=%d points=%d pages=%d",
		rep.Kills, rep.Restarts, rep.Load.Ops, rep.Load.Reconnects, rep.Load.Resent,
		rep.Load.UnknownWrites, rep.BootScrubs, rep.Points, rep.Stores["n0"].Pages)

	if rep.Failed() {
		failedRun(t, rep)
	}
	if rep.Kills != 3 || rep.Restarts != 3 {
		t.Fatalf("kills=%d restarts=%d, want 3/3", rep.Kills, rep.Restarts)
	}
	if rep.Load.Ops == 0 || rep.Load.Writes == 0 {
		t.Fatalf("chaos load did no work: %+v", rep.Load)
	}
	// Kills sever every proxied connection, so each worker reconnects at
	// least once per kill it survives.
	if rep.Load.Reconnects == 0 {
		t.Fatal("no reconnects recorded; the kills exercised nothing")
	}
	// Tracing was on for the whole run: stamped requests survived the
	// kills (possibly via retry) and came back traced.
	if rep.Load.TracedOps == 0 {
		t.Fatal("tracing was enabled but no traced ops completed")
	}
}

// TestChaosWriteBuffered reruns the kill-and-recover gate with rsserve
// in write-optimized mode (-write-buffer): acknowledged writes live in
// the delta buffer plus the sidecar journal until a flush, so every
// SIGKILL lands on state the WAL has never seen and the restart must
// recover it by journal replay. The verified load's history check makes
// it end to end: a buffered write that was acked and then lost (or
// replayed out of order) leaves a point's history with no linearization.
func TestChaosWriteBuffered(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real server binary; skipped in -short")
	}
	rep, err := Run(Config{
		ServerBin:   buildBin(t, "rangesearch/cmd/rsserve"),
		Dir:         t.TempDir(),
		Cycles:      3,
		Period:      500 * time.Millisecond,
		Seed:        43,
		WriteBuffer: true,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatalf("chaos.Run: %v", err)
	}
	t.Logf("chaos-wbuf: kills=%d restarts=%d replays=%d ops=%d writes=%d reconnects=%d resent=%d boot_scrubs=%d points=%d",
		rep.Kills, rep.Restarts, rep.JournalReplays, rep.Load.Ops, rep.Load.Writes,
		rep.Load.Reconnects, rep.Load.Resent, rep.BootScrubs, rep.Points)

	if rep.Failed() {
		failedRun(t, rep)
	}
	if rep.Kills != 3 || rep.Restarts != 3 {
		t.Fatalf("kills=%d restarts=%d, want 3/3", rep.Kills, rep.Restarts)
	}
	if rep.Load.Ops == 0 || rep.Load.Writes == 0 {
		t.Fatalf("chaos load did no work: %+v", rep.Load)
	}
	// The point of the buffered variant: at least one restart must have
	// recovered acked writes from the journal, or the kills only ever hit
	// an empty buffer and the replay path went untested.
	if rep.JournalReplays == 0 {
		t.Fatal("no journal replays recorded; kills never landed on buffered state")
	}
}

// TestChaosReplFailover is the replicated kill-and-recover gate in
// miniature: a primary plus two semi-sync replicas under verified load,
// with each cycle killing a replica, degrading the replication link, and
// killing the primary with a promotion. Nothing acked may be lost or
// duplicated, the fencing term must track the promotion count, and the
// fleet must converge and drain clean. `make chaos-repl` runs the full
// ≥5-promotion version via cmd/rschaos.
func TestChaosReplFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real server fleet; skipped in -short")
	}
	rep, err := Run(Config{
		ServerBin: buildBin(t, "rangesearch/cmd/rsserve"),
		Dir:       t.TempDir(),
		Replicas:  2,
		Cycles:    2,
		Period:    500 * time.Millisecond,
		Seed:      42,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatalf("chaos.Run: %v", err)
	}
	t.Logf("chaos: promotions=%d term=%d kills=%d link_faults=%d ops=%d failovers=%d replica_reads=%d stale_fallbacks=%d converge=%.2fs points=%d",
		rep.Promotions, rep.FinalTerm, rep.Kills, rep.LinkFaults,
		rep.Load.Ops, rep.Load.Failovers, rep.Load.ReplicaReads,
		rep.Load.StaleFallbacks, rep.ConvergeS, rep.Points)

	if rep.Failed() {
		failedRun(t, rep)
	}
	// Every cycle kills one replica and the primary, and every primary
	// kill is followed by a promotion: 2 cycles = 2 promotions, 2 primary
	// kills and 2 replica kills.
	if rep.Promotions != 2 || rep.Kills != 4 || rep.Restarts != 4 {
		t.Fatalf("promotions=%d kills=%d restarts=%d, want 2/4/4", rep.Promotions, rep.Kills, rep.Restarts)
	}
	if rep.Load.Ops == 0 || rep.Load.Writes == 0 {
		t.Fatalf("repl chaos load did no work: %+v", rep.Load)
	}
	// Reads fanned out across the fleet the whole time.
	if rep.Load.ReplicaReads == 0 {
		t.Fatal("no replica reads recorded; the read pool exercised nothing")
	}
	// Each primary kill severs the writers, who must reconnect along the
	// failover ring to the promoted node. Which signal routes them there
	// varies by timing — a refused dial, NOTPRIMARY from a live replica,
	// or STALE from a mis-aimed barrier read — so the invariant is that
	// recovery work happened at all, not which path it took.
	if rep.Load.Reconnects == 0 && rep.Load.Failovers == 0 {
		t.Fatal("no reconnects or failovers recorded; the promotions exercised nothing")
	}
}

// TestChaosSharded is the sharded kill-and-recover gate in miniature: a
// 3-shard fleet behind a real rsrouter, verified load aimed at the
// router, one shard SIGKILLed and restarted per cycle. Nothing acked may
// be lost or duplicated, the fleet must drain clean, and the shard
// stores must account for the router's fleet total exactly. `make
// chaos-shard` runs a longer version via cmd/rschaos.
func TestChaosSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real server and router binaries; skipped in -short")
	}
	rep, err := Run(Config{
		ServerBin: buildBin(t, "rangesearch/cmd/rsserve"),
		RouterBin: buildBin(t, "rangesearch/cmd/rsrouter"),
		Dir:       t.TempDir(),
		Shards:    3,
		Cycles:    2,
		Period:    400 * time.Millisecond,
		Seed:      42,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatalf("chaos.Run: %v", err)
	}
	t.Logf("sharded chaos: kills=%d ops=%d busy=%d timeout_retries=%d resent=%d unknown=%d router_len=%d stores=%v",
		rep.Kills, rep.Load.Ops, rep.Load.Busy, rep.Load.TimeoutRetries,
		rep.Load.Resent, rep.Load.UnknownWrites, rep.Len, rep.Stores)

	if rep.Failed() {
		failedRun(t, rep)
	}
	if rep.Kills != 2 {
		t.Fatalf("kills=%d, want 2", rep.Kills)
	}
	if rep.Load.Ops == 0 || rep.Load.Writes == 0 {
		t.Fatalf("sharded load did no work: %+v", rep.Load)
	}
	// Every shard holds some of the evenly-spread keyspace, so after a
	// verified run each store should be non-degenerately populated.
	if len(rep.Stores) != 3 {
		t.Fatalf("post-mortem covered %d shard stores, want 3", len(rep.Stores))
	}
}

// TestChaosReapsChildrenOnEarlyReturn forces a failure return once the
// node is up — a LoadGrace so short the stopped load is declared hung —
// and requires that no rsserve the run spawned outlives it, running or
// unreaped.
func TestChaosReapsChildrenOnEarlyReturn(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real server binary; skipped in -short")
	}
	bin := buildBin(t, "rangesearch/cmd/rsserve")
	_, err := Run(Config{
		ServerBin: bin,
		Dir:       t.TempDir(),
		Cycles:    1,
		Period:    100 * time.Millisecond,
		LoadGrace: time.Nanosecond,
		Logf:      t.Logf,
	})
	if err == nil || !strings.Contains(err.Error(), "hung") {
		t.Fatalf("Run = %v, want the load declared hung", err)
	}
	ents, err := os.ReadDir("/proc")
	if err != nil {
		t.Skipf("no /proc to scan: %v", err)
	}
	self := strconv.Itoa(os.Getpid())
	for _, e := range ents {
		cmdline, _ := os.ReadFile(filepath.Join("/proc", e.Name(), "cmdline"))
		if bytes.HasPrefix(cmdline, []byte(bin+"\x00")) {
			t.Errorf("pid %s (%s) outlived Run", e.Name(), bin)
		}
		// A killed but unreaped child is a zombie with an empty cmdline;
		// it still names this process as its parent.
		stat, _ := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if i := bytes.LastIndexByte(stat, ')'); i >= 0 {
			if f := strings.Fields(string(stat[i+1:])); len(f) > 1 && f[1] == self {
				t.Errorf("pid %s is a child Run left behind: %s", e.Name(), stat)
			}
		}
	}
}

// TestConfigValidation pins that unsupported topologies are refused
// before anything starts: Run creates no working directory for them.
func TestConfigValidation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fleet")
	for name, cfg := range map[string]Config{
		"no server":         {Dir: dir},
		"no dir":            {ServerBin: "rsserve"},
		"negative replicas": {ServerBin: "rsserve", Dir: dir, Replicas: -1},
		"replicated shards": {ServerBin: "rsserve", Dir: dir, Replicas: 2, Shards: 3, RouterBin: "rsrouter"},
		"replicated wbuf":   {ServerBin: "rsserve", Dir: dir, Replicas: 2, WriteBuffer: true},
		"shards, no router": {ServerBin: "rsserve", Dir: dir, Shards: 3},
	} {
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted %+v", name, cfg)
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("Run created %s before rejecting a config", dir)
	}
	for _, cfg := range []Config{
		{ServerBin: "rsserve", Dir: "d"},
		{ServerBin: "rsserve", Dir: "d", WriteBuffer: true, Shards: 3, RouterBin: "rsrouter"},
		{ServerBin: "rsserve", Dir: "d", Replicas: 2},
	} {
		if err := cfg.validate(); err != nil {
			t.Errorf("validate(%+v) = %v, want nil", cfg, err)
		}
	}
}

// TestReportFailed pins each acceptance clause of Report.Failed.
func TestReportFailed(t *testing.T) {
	pass := func() *Report {
		return &Report{
			Load:       &server.LoadReport{Ops: 1},
			DrainExits: map[string]int{"router": 0, "n0": 0},
			Stores:     map[string]StoreReport{"n0": {Points: 1, Pages: 8}},
		}
	}
	if rep := pass(); rep.Failed() {
		t.Fatalf("clean report %+v reads as failed", rep)
	}
	for name, spoil := range map[string]func(*Report){
		"nil load":        func(r *Report) { r.Load = nil },
		"proto error":     func(r *Report) { r.Load.ProtoErrors = 1 },
		"consistency":     func(r *Report) { r.Load.ConsistencyErrors = 1 },
		"transport error": func(r *Report) { r.Load.TransportErrors = 1 },
		"drain exit":      func(r *Report) { r.DrainExits["n0"] = 1 },
		"router drain":    func(r *Report) { r.DrainExits["router"] = -1 },
		"leaked pages":    func(r *Report) { r.Stores["n0"] = StoreReport{Points: 1, Pages: 8, Leaked: 2} },
		"failure entry":   func(r *Report) { r.failf("final term %d != %d promotions", 1, 2) },
	} {
		rep := pass()
		spoil(rep)
		if !rep.Failed() {
			t.Errorf("%s: Failed() = false for %+v", name, rep)
		}
	}
}
