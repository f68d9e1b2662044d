// Command rsinspect opens a file-backed store created by this library,
// attaches to a structure by its header id, audits its structural
// invariants, and prints statistics. It demonstrates (and exercises) the
// persistence path: the same structures that run on the RAM simulator run
// against real files.
//
// Usage:
//
//	rsinspect -store points.db -kind epst   -hdr 12
//	rsinspect -store points.db -kind range4 -hdr 7
//	rsinspect -store points.db -kind wbtree -hdr 3
//	rsinspect verify -store points.db [-json]
//	rsinspect recover -store points.db -anchor 1
//	rsinspect scrub -store points.db -kind epst -hdr 12 [-anchor 1] [-dry] [-json]
//	rsinspect wal -store points.db [-anchor 1] [-json]
//	rsinspect splitplan -store points.db -n 3
//
// The verify subcommand checks the file itself without attaching to any
// structure: superblock slots, per-page checksums and the free list. Its
// exit code gates recovery scripts: 0 clean, 2 damaged, 1 usage or I/O
// error. -json emits the machine-readable report instead of prose.
//
// The recover subcommand opens the store's transactional layer (created
// with eio.NewTxStore; -anchor is the id TxStore.Anchor returned) and runs
// WAL crash recovery: a committed-but-unapplied transaction is replayed,
// a torn one is discarded, and torn WAL/anchor pages are repaired.
//
// The scrub subcommand walks a structure's exact page reachability set and
// reclaims allocated-but-unreachable pages — the allocations a crash
// between page allocation and commit strands. With -anchor it runs WAL
// recovery first (scrubbing before recovery would reclaim pages a replay
// is about to use); -dry only reports.
//
// The wal subcommand decodes the transactional layer offline: both
// anchors and every record in the WAL ring with its state (applied /
// committed-unapplied / stale / torn). Without
// -anchor the directory id — plus the node's replication role and term —
// comes from the <store>.manifest.json rsserve maintains. Exit codes
// mirror verify: 0 healthy, 2 torn, 1 usage or I/O error.
//
// The splitplan subcommand reads a store's x-distribution and proposes
// shard boundaries splitting it into N balanced parts, emitted as the
// bounds-only -shards spec rsrouter consumes ("x<100,x<200,rest").
//
// The spans subcommand replays a request-span JSONL spool (rsserve
// -spans, or a dump of the /spans endpoint) and summarizes it: per-op
// wall-time and per-phase quantiles, I/O attribution, and the slowest
// spans in full. The prom subcommand fetches or reads a Prometheus
// text exposition (the /metrics endpoint) and validates it:
//
//	rsinspect spans -f spans.jsonl
//	rsinspect spans -url http://127.0.0.1:6060/spans
//	rsinspect prom -url http://127.0.0.1:6060/metrics [-o metrics.prom]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"rangesearch/internal/eio"
	"rangesearch/internal/epst"
	"rangesearch/internal/interval"
	"rangesearch/internal/range4"
	"rangesearch/internal/smallstruct"
	"rangesearch/internal/wbtree"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "verify":
			verifyMain(os.Args[2:])
			return
		case "recover":
			recoverMain(os.Args[2:])
			return
		case "scrub":
			scrubMain(os.Args[2:])
			return
		case "wal":
			walMain(os.Args[2:])
			return
		case "spans":
			spansMain(os.Args[2:])
			return
		case "prom":
			promMain(os.Args[2:])
			return
		case "splitplan":
			splitplanMain(os.Args[2:])
			return
		}
	}
	var (
		storePath = flag.String("store", "", "path to a file store created with eio.CreateFileStore")
		kind      = flag.String("kind", "epst", "structure kind: epst | range4 | wbtree")
		hdr       = flag.Uint64("hdr", 0, "header record id of the structure")
	)
	flag.Parse()
	if *storePath == "" || *hdr == 0 {
		flag.Usage()
		os.Exit(2)
	}

	store, err := eio.OpenFileStore(*storePath)
	if err != nil {
		fatal(err)
	}
	defer store.Close()
	fmt.Printf("store: %s  page size %d B  (block capacity %d points)  live pages %d\n",
		*storePath, store.PageSize(), eio.BlockCapacity(store.PageSize()), store.Pages())

	id := eio.PageID(*hdr)
	switch *kind {
	case "epst":
		t, err := epst.Open(store, id, 0)
		if err != nil {
			fatal(err)
		}
		n, err := t.Len()
		if err != nil {
			fatal(err)
		}
		h, err := t.Height()
		if err != nil {
			fatal(err)
		}
		a, k := t.Params()
		fmt.Printf("external priority search tree: N=%d height=%d a=%d k=%d B=%d\n", n, h, a, k, t.B())
		if err := t.CheckInvariants(); err != nil {
			fatal(fmt.Errorf("INVARIANT VIOLATION: %w", err))
		}
		fmt.Println("invariants: OK (Y-set sizes, topmost property, weights, key/point bijection)")
		prof, err := t.Profile()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-6s %-7s %-9s %-8s %-9s %-9s %-9s\n",
			"level", "nodes", "keys", "stored", "avgYfill", "Qblocks", "QcatPgs")
		for i := len(prof) - 1; i >= 0; i-- {
			lp := prof[i]
			fmt.Printf("%-6d %-7d %-9d %-8d %-9.2f %-9d %-9d\n",
				lp.Level, lp.Nodes, lp.Keys, lp.Stored, lp.AvgYFill, lp.QBlocks, lp.QCatPages)
		}
	case "range4":
		t, err := range4.Open(store, id)
		if err != nil {
			fatal(err)
		}
		st, err := t.Space()
		if err != nil {
			fatal(err)
		}
		rho, k := t.Params()
		fmt.Printf("4-sided structure: N=%d levels=%d rho=%d k=%d\n", st.Points, st.Levels, rho, k)
		if err := t.CheckInvariants(); err != nil {
			fatal(fmt.Errorf("INVARIANT VIOLATION: %w", err))
		}
		fmt.Println("invariants: OK (weights, per-level replica sets)")
	case "wbtree":
		t, err := wbtree.Open(store, id)
		if err != nil {
			fatal(err)
		}
		n, err := t.Len()
		if err != nil {
			fatal(err)
		}
		h, err := t.Height()
		if err != nil {
			fatal(err)
		}
		a, k := t.Params()
		fmt.Printf("weight-balanced B-tree: N=%d height=%d a=%d k=%d\n", n, h, a, k)
		if err := t.CheckInvariants(false); err != nil {
			fatal(fmt.Errorf("INVARIANT VIOLATION: %w", err))
		}
		fmt.Println("invariants: OK (ordering, weights, leaf caps)")
	default:
		fatal(fmt.Errorf("unknown kind %q", *kind))
	}
}

// verifyMain implements `rsinspect verify -store FILE [-json]`: an offline
// scan of the store file for superblock, checksum and free-list damage.
// Exit codes: 0 clean, 2 damaged, 1 usage or I/O error — distinct codes so
// scripts can tell "the file is corrupt" from "I could not check".
func verifyMain(args []string) {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	storePath := fs.String("store", "", "path to a file store to verify")
	asJSON := fs.Bool("json", false, "emit the machine-readable report")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: rsinspect verify -store points.db [-json]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil || *storePath == "" {
		if err == nil {
			fs.Usage()
		}
		os.Exit(1)
	}
	rep, err := eio.VerifyFile(*storePath)
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		out := struct {
			*eio.VerifyReport
			Damaged bool `json:"damaged"`
		}{rep, rep.Damaged()}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		fmt.Print(rep)
	}
	if rep.Damaged() {
		if !*asJSON {
			fmt.Println("verdict: DAMAGED")
		}
		os.Exit(2)
	}
	if !*asJSON {
		fmt.Println("verdict: OK")
	}
}

// recoverMain implements `rsinspect recover -store FILE -anchor ID`: run
// WAL crash recovery on a transactional store and report what it did.
func recoverMain(args []string) {
	fs := flag.NewFlagSet("recover", flag.ContinueOnError)
	storePath := fs.String("store", "", "path to a file store with a transactional layer")
	anchor := fs.Uint64("anchor", 0, "transaction directory id (eio.TxStore.Anchor)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: rsinspect recover -store points.db -anchor 1")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil || *storePath == "" || *anchor == 0 {
		if err == nil {
			fs.Usage()
		}
		os.Exit(1)
	}
	store, err := eio.OpenFileStore(*storePath)
	if err != nil {
		fatal(err)
	}
	tx, err := eio.OpenTxStore(store, eio.PageID(*anchor))
	if err != nil {
		store.Close()
		fatal(fmt.Errorf("recovery failed: %w", err))
	}
	fmt.Printf("recovery: %s\n", tx.Recovery())
	if err := tx.Close(); err != nil {
		fatal(err)
	}
}

// scrubMain implements `rsinspect scrub`: reclaim allocated pages no
// structure can reach. With -anchor it runs WAL recovery first — scrubbing
// a store with a pending redo record would reclaim pages the replay needs.
func scrubMain(args []string) {
	fs := flag.NewFlagSet("scrub", flag.ContinueOnError)
	storePath := fs.String("store", "", "path to a file store")
	kind := fs.String("kind", "epst", "structure kind: epst | range4 | wbtree | interval | smallstruct")
	hdr := fs.Uint64("hdr", 0, "header record id of the structure")
	anchor := fs.Uint64("anchor", 0, "transaction directory id; 0 for a non-transactional store")
	dry := fs.Bool("dry", false, "report leaks without freeing them")
	asJSON := fs.Bool("json", false, "emit the machine-readable report")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: rsinspect scrub -store points.db -kind epst -hdr 12 [-anchor 1] [-dry] [-json]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil || *storePath == "" || *hdr == 0 {
		if err == nil {
			fs.Usage()
		}
		os.Exit(1)
	}
	store, target, tx := openRecovered(*storePath, *anchor, "scrub")
	defer store.Close()
	reachable := []eio.PageID{}
	var err error
	if tx != nil {
		if reachable, err = tx.MetaPages(); err != nil {
			fatal(err)
		}
	}
	// Every structure kind lists the pages it owns the same way.
	var owner interface {
		AppendAllPages([]eio.PageID) ([]eio.PageID, error)
	}
	id := eio.PageID(*hdr)
	switch *kind {
	case "epst":
		owner, err = epst.Open(target, id, 0)
	case "range4":
		owner, err = range4.Open(target, id)
	case "wbtree":
		owner, err = wbtree.Open(target, id)
	case "interval":
		owner, err = interval.Open(target, id, 0)
	case "smallstruct":
		owner, err = smallstruct.Open(target, id, 0)
	default:
		err = fmt.Errorf("unknown kind %q", *kind)
	}
	if err == nil {
		reachable, err = owner.AppendAllPages(reachable)
	}
	if err != nil {
		fatal(err)
	}
	var rep *eio.ScrubReport
	if *dry {
		rep, err = eio.FindLeaks(target, reachable)
	} else {
		rep, err = eio.Scrub(target, reachable)
	}
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	} else {
		fmt.Println(rep)
	}
}

// openRecovered opens the file store at path and, with a nonzero anchor,
// runs WAL recovery on it before what reads it; target is the store to
// read through, tx its transactional layer (nil without an anchor).
func openRecovered(path string, anchor uint64, what string) (store *eio.FileStore, target eio.Store, tx *eio.TxStore) {
	store, err := eio.OpenFileStore(path)
	if err != nil {
		fatal(err)
	}
	if anchor == 0 {
		return store, store, nil
	}
	if tx, err = eio.OpenTxStore(store, eio.PageID(anchor)); err != nil {
		fatal(fmt.Errorf("recovery before %s failed: %w", what, err))
	}
	if r := tx.Recovery(); r.Dirty() {
		fmt.Fprintf(os.Stderr, "rsinspect: recovery: %s\n", r)
	}
	return store, tx, tx
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rsinspect: %v\n", err)
	os.Exit(1)
}
