package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"

	"rangesearch/internal/eio"
	"rangesearch/internal/node"
)

// manifestFor reads the manifest rsserve keeps next to store. When flags
// supply the ids (flagged) it is optional context: a missing one is
// ignored and an invalid one only warned about. Otherwise its error is
// the diagnostic.
func manifestFor(store string, flagged bool) node.Manifest {
	m, err := node.ReadManifest(store)
	switch {
	case err == nil:
		return *m
	case !flagged:
		fatal(fmt.Errorf("no -anchor/-hdr given and no usable manifest: %w", err))
	case !errors.Is(err, fs.ErrNotExist):
		fmt.Fprintf(os.Stderr, "rsinspect: warning: %v (using the flags)\n", err)
	}
	return node.Manifest{}
}

// walMain implements `rsinspect wal -store FILE [-anchor ID] [-json]`: an
// offline, read-only decode of a store's transactional layer — anchors and
// every record in the WAL ring with its commit state — via
// eio.InspectTxLayer.
// Without -anchor the directory id is taken from the serving manifest
// (<store>.manifest.json) rsserve writes next to the store, which also
// contributes the node's replication role and term to the report; with
// -anchor the manifest is optional. The exit code distinguishes damage
// from inability to check: 0 when the WAL region is healthy (every record
// "applied", "committed-unapplied" or "stale"), 2 on a torn record or a
// checksum-bad WAL page, 1 on usage or I/O errors.
func walMain(args []string) {
	fs := flag.NewFlagSet("wal", flag.ContinueOnError)
	storePath := fs.String("store", "", "path to a file store with a transactional layer")
	anchor := fs.Uint64("anchor", 0, "transaction directory id (0 = read it from the manifest)")
	asJSON := fs.Bool("json", false, "emit the machine-readable report")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: rsinspect wal -store points.db [-anchor 1] [-json]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil || *storePath == "" {
		if err == nil {
			fs.Usage()
		}
		os.Exit(1)
	}

	mf := manifestFor(*storePath, *anchor != 0)
	dir := *anchor
	if dir == 0 {
		if mf.Anchor == eio.NilPage {
			fatal(fmt.Errorf("no -anchor given and the manifest at %s names none (not a durable store)", node.ManifestPath(*storePath)))
		}
		dir = uint64(mf.Anchor)
	}

	store, err := eio.OpenFileStore(*storePath)
	if err != nil {
		fatal(err)
	}
	defer store.Close()
	info, err := eio.InspectTxLayer(store, eio.PageID(dir))
	if err != nil {
		fatal(err)
	}

	healthy := info.Healthy()

	if *asJSON {
		out := struct {
			eio.TxLayerInfo
			Term    uint64 `json:"term,omitempty"`
			Role    string `json:"role,omitempty"`
			Healthy bool   `json:"healthy"`
		}{info, mf.Term, mf.Role, healthy}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("tx layer: dir p%d  wal pages %d (capacity %d images)  checkpoint lsn %d  +%d unapplied\n",
			info.Dir, len(info.WALPages), info.Capacity, info.Applied, info.Unapplied)
		if mf.Role != "" || mf.Term != 0 {
			fmt.Printf("manifest: role %s  term %d\n", mf.Role, mf.Term)
		}
		for i, a := range info.Anchors {
			if a.Valid {
				fmt.Printf("anchor %d: p%-8d seq %d  lsn %d\n", i, a.Page, a.Seq, a.LSN)
			} else {
				fmt.Printf("anchor %d: p%-8d INVALID (torn or never written)\n", i, a.Page)
			}
		}
		if info.TornPages > 0 {
			fmt.Printf("wal region: TORN PAGES %d\n", info.TornPages)
		}
		if len(info.Records) == 0 {
			fmt.Println("ring: empty")
		}
		for _, r := range info.Records {
			fmt.Printf("record @%-4d %-19s lsn %d  %d page images  %d bytes  targets:", r.Page, r.State, r.LSN, r.Pages, r.Bytes)
			for _, id := range r.PageIDs {
				fmt.Printf(" p%d", id)
			}
			fmt.Println()
		}
	}
	if !healthy {
		if !*asJSON {
			fmt.Println("verdict: DAMAGED")
		}
		os.Exit(2)
	}
	if !*asJSON {
		fmt.Println("verdict: OK")
	}
}
