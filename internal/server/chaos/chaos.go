// Package chaos is the kill-and-recover harness for the serving stack: it
// boots a real fleet of rsserve processes on durable stores, drives
// verified resilient load at it, and SIGKILLs and restarts fleet members
// over and over while the traffic keeps flowing.
//
// The topology comes from Config.Replicas/Shards, and each one adds only
// how it boots, what one fault cycle does to it and its own cross-node
// invariants:
//
//   - one node (0/0): rsserve behind a netfault proxy that delays the
//     client link by clientLatency; a cycle SIGKILLs it mid-traffic,
//     cuts every proxied connection and restarts it on the same store
//     (WAL crash recovery, the boot scrub and, with WriteBuffer, journal
//     replay);
//   - replicated (N/0): a primary plus N semi-sync replicas whose
//     replication links run through the proxy, with the load's reads
//     fanned out across the fleet and its writes following the primary;
//     a cycle SIGKILLs and restarts a replica, cuts the replication
//     streams and degrades the link to linkFaultLatency for a period,
//     then SIGKILLs the primary, promotes a survivor and rejoins the dead
//     ex-primary to the new lineage. The final term must equal the
//     promotions, and the replicas must converge to the primary within
//     stalenessMax;
//   - sharded (0/N): N x-range shards behind a real rsrouter that the
//     load talks to; a cycle SIGKILLs a rotating shard and restarts it a
//     period later.
//
// Everything else is the same for every topology. The load's per-worker
// stripe models verify read-your-writes across every kill (an acked write
// must never disappear, a deleted point never resurrect) and idempotency
// IDs keep retried writes exactly-once-applied. After the schedule the
// fleet drains on SIGTERM (router, replicas, then the primary or shards),
// every exit must be 0, and every store is reopened in-process: WAL
// recovery, clean checksums, zero leaked pages (replicas excepted), an
// empty write-buffer journal, and exactly the points the fleet reported
// over STATS before it drained (replica stores: the primary's points).
//
// cmd/rschaos wraps this package for the command line; scripts/chaos.sh
// runs it for `make chaos`, `chaos-repl`, `chaos-shard` and
// `chaos-writeopt`.
package chaos

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rangesearch/internal/netfault"
	"rangesearch/internal/node"
	"rangesearch/internal/server"
)

// Fixed parameters of every run.
const (
	loadWorkers  = 4
	loadPipeline = 4
	// loadDomain is the coordinate domain [0, loadDomain) the load draws
	// from; shard bounds split it evenly.
	loadDomain = 1 << 16
	// readyTimeout bounds a (re)started process's first Ping, a replica's
	// bootstrap (which may include a snapshot transfer) and the PROMOTE
	// retry loop.
	readyTimeout   = 30 * time.Second
	drainTimeout   = 60 * time.Second
	requestTimeout = 5 * time.Second
	// stalenessMax bounds how long replicas may take to reach the final
	// primary's LSN once writes stop.
	stalenessMax = 15 * time.Second
	// Write-buffer flush thresholds high enough that no size or age flush
	// races a kill: each SIGKILL lands on a non-empty buffer.
	writeBufferOps = 4096
	writeBufferAge = 30 * time.Second
	// A single node's client link — the proxy the load reaches it through —
	// carries this per-chunk delay for the whole run.
	clientLatency = 200 * time.Microsecond
	clientJitter  = 300 * time.Microsecond
	// A link fault degrades the replication link to this for one period
	// while it cuts every stream, so the resume path runs on a slow link.
	linkFaultLatency = 20 * time.Millisecond
	linkFaultJitter  = 10 * time.Millisecond
)

// Config tunes a chaos run. ServerBin and Dir are required, RouterBin too
// when Shards > 0.
type Config struct {
	// ServerBin is the path to an rsserve binary; RouterBin to rsrouter.
	ServerBin string
	RouterBin string
	// Dir is the working directory for the fleet's stores (created).
	Dir string
	// Replicas > 0 runs a primary plus that many replicas; Shards > 0
	// runs that many shards behind rsrouter; neither runs one node.
	Replicas int
	Shards   int
	// Cycles is the number of fault cycles (default 10).
	Cycles int
	// Period is the dwell between fault steps (default 700ms).
	Period time.Duration
	// Seed seeds the workload and fault RNGs (default 1).
	Seed int64
	// TraceSample, when > 0, runs the whole schedule with request tracing
	// live on both sides: the load client-stamps TRACE envelopes at this
	// rate and every rsserve runs with the same -trace-sample, so spans
	// flow through group commit, WAL recovery and reconnect storms.
	TraceSample float64
	// WriteBuffer runs every rsserve write-optimized (-write-buffer):
	// acked writes live in the buffer plus its journal until a flush, so
	// every SIGKILL also exercises journal replay on the next boot.
	// rsserve's mode table refuses it with replication, and Run asks it.
	WriteBuffer bool
	// LoadGrace bounds how long the load may take to finish once the
	// schedule stops it before the run is declared hung (default 2m).
	LoadGrace time.Duration
	// Logf, when non-nil, receives progress lines. Nil discards.
	Logf func(format string, args ...interface{})
}

func (c Config) withDefaults() Config {
	if c.Cycles <= 0 {
		c.Cycles = 10
	}
	if c.Period <= 0 {
		c.Period = 700 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.LoadGrace <= 0 {
		c.LoadGrace = 2 * time.Minute
	}
	return c
}

// validate rejects what no topology can run, before anything starts.
func (c Config) validate() error {
	switch {
	case c.ServerBin == "" || c.Dir == "":
		return errors.New("chaos: ServerBin and Dir are required")
	case c.Replicas < 0 || c.Shards < 0:
		return errors.New("chaos: Replicas and Shards must not be negative")
	case c.Replicas > 0 && c.Shards > 0:
		return errors.New("chaos: Replicas and Shards are exclusive (no replicated shards)")
	case c.Shards > 0 && c.RouterBin == "":
		return errors.New("chaos: RouterBin is required with Shards")
	}
	// Every node boots with the flags newNode gives it; rsserve's mode
	// table must accept them.
	nc := node.Config{Store: filepath.Join(c.Dir, "n0.db"), Durable: true,
		WriteBuffer: c.WriteBuffer, WriteBufferOps: writeBufferOps}
	if c.Replicas > 0 {
		nc.Role = node.Primary
	}
	if err := nc.Validate(); err != nil {
		return fmt.Errorf("chaos: rsserve would refuse the fleet's nodes: %w", err)
	}
	return nil
}

// Report is the JSON result of a chaos run.
type Report struct {
	Cycles int `json:"cycles"`
	// Kills counts SIGKILLs of any node; Restarts the killed nodes that
	// came back (a replicated cycle kills and restarts two).
	Kills    int `json:"kills"`
	Restarts int `json:"restarts"`
	// Promotions, LinkFaults and FinalTerm come from a replicated
	// schedule; FinalTerm must equal Promotions. ConvergeS is how long the
	// replicas took to reach the final primary's LSN after writes stopped.
	Promotions int     `json:"promotions,omitempty"`
	LinkFaults int     `json:"link_faults,omitempty"`
	FinalTerm  uint64  `json:"final_term,omitempty"`
	ConvergeS  float64 `json:"converge_s,omitempty"`
	// BootScrubs counts restarts that reclaimed crash-leaked pages and
	// JournalReplays restarts that recovered acked writes from the
	// write-buffer journal, summed over every node's log.
	BootScrubs     int `json:"boot_scrubs"`
	JournalReplays int `json:"journal_replays,omitempty"`
	// Spec is a sharded fleet's shard map.
	Spec string `json:"spec,omitempty"`

	Load  *server.LoadReport `json:"load"`
	Proxy netfault.Stats     `json:"proxy"`

	// Len is the point count the fleet's entry node (router, primary or
	// the single node) reported over STATS once the load stopped; Points
	// is what the drained non-replica stores hold, and must equal it.
	Len    int `json:"len"`
	Points int `json:"points"`
	// Stores is each drained store's post-mortem, by node name.
	Stores map[string]StoreReport `json:"stores"`
	// DrainExits maps process name to its SIGTERM exit code; all must be 0.
	DrainExits map[string]int `json:"drain_exits"`

	DurationS float64 `json:"duration_s"`
	// Failures lists every other acceptance violation the harness saw.
	Failures []string `json:"failures,omitempty"`
}

// StoreReport is the post-mortem of one drained store.
type StoreReport struct {
	Points int `json:"points"`
	Pages  int `json:"pages"`
	// Leaked must be 0; it is not checked on replicas, which keep pages
	// their primary freed (frees are never shipped).
	Leaked int `json:"leaked"`
}

// Failed reports whether the run violated any acceptance criterion.
func (r *Report) Failed() bool {
	if r.Load == nil || r.Load.Failed() || len(r.Failures) > 0 {
		return true
	}
	for _, code := range r.DrainExits {
		if code != 0 {
			return true
		}
	}
	for _, s := range r.Stores {
		if s.Leaked != 0 {
			return true
		}
	}
	return false
}

func (r *Report) failf(format string, args ...interface{}) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// A topology is what differs between runs.
type topology interface {
	// boot starts the fleet and returns the load's entry points.
	boot(h *harness) (server.LoadConfig, error)
	// cycle delivers fault cycle n (1-based).
	cycle(h *harness, n int) error
	// settle checks the topology's live invariants once the load has
	// stopped, with the fleet still up.
	settle(h *harness)
}

// Run executes one full chaos run and returns its report. A non-nil error
// means the harness itself broke (bad config, a process that would not
// start, a hung load); acceptance violations are reported via
// Report.Failed so the caller can still inspect the full report. Every
// child process is killed and reaped before Run returns.
func Run(cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	var topo topology = single{}
	switch {
	case cfg.Replicas > 0:
		topo = &replicated{}
	case cfg.Shards > 0:
		topo = sharded{}
	}
	h := &harness{cfg: cfg, rep: &Report{
		Cycles:     cfg.Cycles,
		Stores:     map[string]StoreReport{},
		DrainExits: map[string]int{},
	}}
	defer h.killAll()

	// Echo the effective parameters — above all the seed, so a failing
	// run's exact kill/fault schedule can be replayed from its log alone.
	h.logf("chaos: run: replicas=%d shards=%d cycles=%d period=%v seed=%d write_buffer=%v",
		cfg.Replicas, cfg.Shards, cfg.Cycles, cfg.Period, cfg.Seed, cfg.WriteBuffer)
	lc, err := topo.boot(h)
	if err != nil {
		return nil, err
	}

	// The verified load runs for the whole fault schedule; the schedule,
	// not a guessed duration, ends it.
	stop := make(chan struct{})
	lc.Workers = loadWorkers
	lc.Pipeline = loadPipeline
	lc.Duration = time.Hour // backstop; Stop ends the run
	lc.Stop = stop
	lc.Domain = loadDomain
	lc.Seed = cfg.Seed
	lc.Verify = true
	lc.Resilient = true
	lc.TraceSample = cfg.TraceSample
	lc.Retry = server.RetryPolicy{
		MaxAttempts: 120,
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    250 * time.Millisecond,
	}
	lc.Client = server.ClientOptions{DialTimeout: time.Second, IOTimeout: 10 * time.Second}
	loadDone := make(chan struct{})
	var loadRep *server.LoadReport
	var loadErr error
	start := time.Now()
	go func() {
		defer close(loadDone)
		loadRep, loadErr = server.RunLoad(lc)
	}()

	var schedErr error
	for n := 1; n <= cfg.Cycles && schedErr == nil; n++ {
		time.Sleep(cfg.Period)
		if err := topo.cycle(h, n); err != nil {
			schedErr = fmt.Errorf("chaos: cycle %d: %w", n, err)
		}
	}
	time.Sleep(cfg.Period) // settle: let retries land before stopping

	close(stop)
	select {
	case <-loadDone:
	case <-time.After(cfg.LoadGrace):
		// The load goroutine is left to notice the killed fleet and exit.
		return nil, fmt.Errorf("chaos: load generator hung after stop")
	}
	if schedErr != nil {
		return nil, schedErr
	}
	if loadErr != nil {
		return nil, fmt.Errorf("chaos: load: %w", loadErr)
	}
	h.rep.Load = loadRep

	topo.settle(h)
	// The fleet's own total, before anything drains: the drained stores
	// must account for it exactly.
	entry := h.router
	for _, n := range h.nodes {
		if entry == nil && !n.replica {
			entry = n
		}
	}
	if st, err := stats(entry.addr); err != nil {
		h.rep.failf("%s stats: %v", entry.name, err)
	} else {
		h.rep.Len = st.Len
	}
	h.drain()
	h.postMortem()
	h.closeProxy()
	h.rep.DurationS = time.Since(start).Seconds()
	h.logf("chaos: done: kills=%d restarts=%d promotions=%d ops=%d reconnects=%d resent=%d failovers=%d boot_scrubs=%d replays=%d points=%d failures=%d",
		h.rep.Kills, h.rep.Restarts, h.rep.Promotions, loadRep.Ops, loadRep.Reconnects, loadRep.Resent,
		loadRep.Failovers, h.rep.BootScrubs, h.rep.JournalReplays, h.rep.Points, len(h.rep.Failures))
	return h.rep, nil
}
