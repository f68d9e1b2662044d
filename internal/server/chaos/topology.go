package chaos

import (
	"fmt"
	"strings"
	"syscall"
	"time"

	"rangesearch/internal/repl"
	"rangesearch/internal/server"
)

// single is one rsserve behind the proxy.
type single struct{}

func (single) boot(h *harness) (server.LoadConfig, error) {
	n, err := h.newNode()
	if err != nil {
		return server.LoadConfig{}, err
	}
	if err := h.start(n); err != nil {
		return server.LoadConfig{}, err
	}
	if err := h.reproxy(n.addr); err != nil {
		return server.LoadConfig{}, err
	}
	h.proxy.SetLatency(clientLatency, clientJitter)
	h.logf("chaos: %s up on %s, proxied at %s", n.name, n.addr, h.proxy.Addr())
	return server.LoadConfig{Addr: h.proxy.Addr()}, nil
}

// cycle kills the node, resets every proxied connection so clients notice
// at once, and restarts it on the same store.
func (single) cycle(h *harness, n int) error {
	h.sigkill(h.nodes[0], n)
	h.proxy.CutAll()
	return h.restart(h.nodes[0])
}

func (single) settle(*harness) {}

// sharded is Shards x-range shards behind rsrouter. A killed shard's
// sub-requests exhaust the router's shard-client retries and surface as
// BUSY/TIMEOUT to the load, whose idempotent retries re-route onto the
// recovered shard and deduplicate there — so "zero lost or duplicated
// acked writes" holds across the extra hop.
type sharded struct{}

func (sharded) boot(h *harness) (server.LoadConfig, error) {
	// Even x-split of the load's domain: shard i ends at
	// loadDomain·(i+1)/Shards, the last covers the rest.
	var spec []string
	for i := 0; i < h.cfg.Shards; i++ {
		n, err := h.newNode()
		if err != nil {
			return server.LoadConfig{}, err
		}
		if i < h.cfg.Shards-1 {
			spec = append(spec, fmt.Sprintf("x<%d@%s", loadDomain*int64(i+1)/int64(h.cfg.Shards), n.addr))
		} else {
			spec = append(spec, "rest@"+n.addr)
		}
		if err := h.start(n); err != nil {
			return server.LoadConfig{}, err
		}
	}
	h.rep.Spec = strings.Join(spec, ",")
	r, err := h.newProc("router", h.cfg.RouterBin)
	if err != nil {
		return server.LoadConfig{}, err
	}
	// A killed shard stays down for a full period; give the shard clients
	// enough retry budget to bridge it so most sub-requests land after the
	// restart instead of surfacing TIMEOUT.
	r.args = append(r.args, "-shards", h.rep.Spec, "-shard-attempts", "60")
	h.router = r
	if err := h.start(r); err != nil {
		return server.LoadConfig{}, err
	}
	h.logf("chaos: router %s fronting %d shards (%s)", r.addr, h.cfg.Shards, h.rep.Spec)
	return server.LoadConfig{Addr: r.addr}, nil
}

// cycle kills the next shard round-robin and restarts it a period later,
// while traffic to the other shards keeps flowing.
func (sharded) cycle(h *harness, n int) error {
	victim := h.nodes[(n-1)%len(h.nodes)]
	h.sigkill(victim, n)
	time.Sleep(h.cfg.Period)
	return h.restart(victim)
}

func (sharded) settle(*harness) {}

// replicated is a primary plus Replicas replicas. Every node listens for
// replication so any can be promoted; replicas follow the primary through
// the proxy. Every (potential) primary gates each write's OK on ALL
// replicas' acks: that is what makes "zero lost acked writes across a
// primary kill" a theorem rather than a race — any promoted successor has
// every acked write.
type replicated struct {
	primary int // index into h.nodes
}

func (t *replicated) boot(h *harness) (server.LoadConfig, error) {
	var addrs []string
	for i := 0; i <= h.cfg.Replicas; i++ {
		n, err := h.newNode()
		if err != nil {
			return server.LoadConfig{}, err
		}
		if n.replAddr, err = freePort(); err != nil {
			return server.LoadConfig{}, err
		}
		n.args = append(n.args, "-repl-listen", n.replAddr, "-repl-sync", fmt.Sprint(h.cfg.Replicas))
		n.replica = i > 0
		addrs = append(addrs, n.addr)
	}
	if err := h.start(h.nodes[0]); err != nil {
		return server.LoadConfig{}, err
	}
	if err := h.reproxy(h.nodes[0].replAddr); err != nil {
		return server.LoadConfig{}, err
	}
	for _, n := range h.nodes[1:] {
		if err := h.start(n, follow(h)...); err != nil {
			return server.LoadConfig{}, err
		}
	}
	h.logf("chaos: primary %s, %d replicas via repl proxy %s", h.nodes[0].addr, h.cfg.Replicas, h.proxy.Addr())
	// Reads fan out across every node (session barriers keep
	// read-your-writes sound on replicas); writes follow the primary
	// through each promotion via the failover rotation.
	return server.LoadConfig{Addr: addrs[0], ReadAddrs: addrs, FailoverAddrs: addrs}, nil
}

// follow is the flags that start a node as a replica of the current
// primary, through the proxy.
func follow(h *harness) []string {
	return []string{"-replicate-from", h.proxy.Addr(), "-repl-boot-timeout", readyTimeout.String()}
}

// cycle lands all three replication faults: a replica kill (the restart
// must resume from the primary's backlog, or re-clone, before it answers
// a Ping), a link fault, and a primary kill with promotion.
func (t *replicated) cycle(h *harness, n int) error {
	victim := h.nodes[(t.primary+1+n%h.cfg.Replicas)%len(h.nodes)]
	h.sigkill(victim, n)
	time.Sleep(h.cfg.Period)
	if err := h.restart(victim, follow(h)...); err != nil {
		return err
	}

	time.Sleep(h.cfg.Period)
	h.logf("chaos: cycle %d: degrading replication link (%v ± %v) and cutting streams", n, linkFaultLatency, linkFaultJitter)
	h.proxy.SetLatency(linkFaultLatency, linkFaultJitter)
	h.proxy.CutAll()
	h.rep.LinkFaults++
	time.Sleep(h.cfg.Period)
	h.proxy.SetLatency(0, 0)

	time.Sleep(h.cfg.Period)
	return t.killPromote(h, n)
}

// killPromote SIGKILLs the primary, promotes the next node, and repoints
// the rest of the fleet at the new lineage — including the dead
// ex-primary, whose diverged store the handshake must re-clone rather
// than splice. Odd cycles promote with SIGUSR1 and even ones with the
// PROMOTE RPC, so both triggers rsserve wires stay covered.
func (t *replicated) killPromote(h *harness, n int) error {
	h.sigkill(h.nodes[t.primary], n)
	t.primary = (t.primary + 1) % len(h.nodes)
	succ := h.nodes[t.primary]
	how := "PROMOTE"
	if n%2 == 1 {
		how = "SIGUSR1"
		if err := succ.cmd.Process.Signal(syscall.SIGUSR1); err != nil {
			return fmt.Errorf("SIGUSR1 %s: %w", succ.name, err)
		}
	}
	// The successor may still be inside a reconnect backoff toward the
	// dead primary; promotion drains its apply queue first. Retry (or poll)
	// within the ready budget.
	deadline := time.Now().Add(readyTimeout)
	for {
		term, err := promotedTerm(succ, how)
		if err == nil {
			h.rep.FinalTerm = term
			h.logf("chaos: cycle %d: promoted %s to term %d by %s", n, succ.name, term, how)
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("promote %s: %w", succ.name, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	h.rep.Promotions++
	if err := h.reproxy(succ.replAddr); err != nil {
		return err
	}
	for _, p := range h.nodes {
		p.replica = p != succ
		if p == succ {
			continue
		}
		if code, err := p.stop(); err != nil || code != 0 {
			h.logf("chaos: cycle %d: repoint drain of %s: code=%d err=%v", n, p.name, code, err)
		}
		if err := h.start(p, follow(h)...); err != nil {
			return fmt.Errorf("repoint %s: %w", p.name, err)
		}
	}
	h.rep.Restarts++ // the ex-primary is back, as a replica
	return nil
}

// settle checks fencing and bounded staleness: each promotion bumped the
// term exactly once, and with writes stopped every replica reaches the
// primary's LSN within stalenessMax.
func (t *replicated) settle(h *harness) {
	if h.rep.FinalTerm != uint64(h.rep.Promotions) {
		h.rep.failf("final term %d != %d promotions", h.rep.FinalTerm, h.rep.Promotions)
	}
	start := time.Now()
	target, err := appliedLSN(h.nodes[t.primary].addr)
	if err != nil {
		h.rep.failf("primary stats: %v", err)
		return
	}
	for _, n := range h.nodes {
		for n.replica {
			lsn, err := appliedLSN(n.addr)
			if err == nil && lsn >= target {
				break
			}
			if time.Since(start) > stalenessMax {
				h.rep.failf("replicas not converged within %v: %s at lsn %d < %d (%v)", stalenessMax, n.name, lsn, target, err)
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	h.rep.ConvergeS = time.Since(start).Seconds()
	h.logf("chaos: replicas converged to lsn %d in %.2fs", target, h.rep.ConvergeS)
}

// promotedTerm returns succ's term once it is primary: PROMOTE promotes
// it and answers the term; after SIGUSR1 its STATS report it.
func promotedTerm(succ *proc, how string) (uint64, error) {
	if how == "PROMOTE" {
		term, _, err := repl.Promote(succ.replAddr, 5*time.Second)
		return term, err
	}
	st, err := stats(succ.addr)
	if err != nil {
		return 0, err
	}
	if st.Repl == nil || st.Repl.Role != repl.RolePrimary {
		return 0, fmt.Errorf("%s is not primary yet", succ.name)
	}
	return st.Repl.Term, nil
}

// appliedLSN is a node's durable replication position from its STATS.
func appliedLSN(addr string) (uint64, error) {
	st, err := stats(addr)
	if err != nil {
		return 0, err
	}
	if st.Repl == nil {
		return 0, fmt.Errorf("no repl section in STATS from %s", addr)
	}
	return st.Repl.AppliedLSN, nil
}
