package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"rangesearch/internal/core"
	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
	"rangesearch/internal/router"
)

// splitplanMain implements `rsinspect splitplan -store FILE -n N`: read a
// store's x-distribution and propose shard boundaries that split it into N
// roughly equal parts. The output is a bounds-only -shards spec
// ("x<100,x<200,rest") ready to decorate with addresses and hand to
// rsrouter — the planning half of a resharding, done offline against a
// copy of the store rather than against the serving fleet.
//
// Boundaries are x-quantiles: shard i takes the points whose sorted-x rank
// falls in [i·len/N, (i+1)·len/N). Duplicate x-values cannot be split
// (routing is by x), so a heavily repeated x collapses adjacent
// boundaries and the plan may come back with fewer than N shards —
// reported, not an error.
func splitplanMain(args []string) {
	fs := flag.NewFlagSet("splitplan", flag.ContinueOnError)
	storePath := fs.String("store", "", "path to a file store")
	n := fs.Int("n", 3, "number of shards to plan for")
	kind := fs.String("kind", "epst", "structure kind: epst | range4")
	hdr := fs.Uint64("hdr", 0, "header record id (0 = read it from the manifest)")
	anchor := fs.Uint64("anchor", 0, "transaction directory id (0 = read it from the manifest; WAL recovery runs first)")
	asJSON := fs.Bool("json", false, "emit the machine-readable plan")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: rsinspect splitplan -store points.db -n 3 [-kind epst] [-hdr 12] [-anchor 1] [-json]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil || *storePath == "" {
		if err == nil {
			fs.Usage()
		}
		os.Exit(1)
	}
	if *n < 1 {
		fatal(fmt.Errorf("splitplan: -n %d: need at least one shard", *n))
	}

	// The serving manifest fills in what the flags leave at zero, exactly
	// as the wal subcommand does.
	mf := manifestFor(*storePath, *hdr != 0)
	id := *hdr
	if id == 0 {
		id = uint64(mf.Hdr)
	}
	dir := *anchor
	if dir == 0 && mf.Durable {
		dir = uint64(mf.Anchor)
	}

	store, target, _ := openRecovered(*storePath, dir, "splitplan")
	defer store.Close()

	var idx core.Index
	var err error
	switch *kind {
	case "epst":
		idx, err = core.OpenThreeSided(target, eio.PageID(id))
	case "range4":
		idx, err = core.OpenFourSided(target, eio.PageID(id))
	default:
		fatal(fmt.Errorf("unknown kind %q", *kind))
	}
	if err != nil {
		fatal(err)
	}

	// Stored coordinates never use the sentinels, so the full closed
	// rectangle reports every point.
	pts, err := idx.Query(nil, geom.Rect{
		XLo: geom.MinCoord, XHi: geom.MaxCoord,
		YLo: geom.MinCoord, YHi: geom.MaxCoord,
	})
	if err != nil {
		fatal(err)
	}
	if len(pts) == 0 {
		fatal(fmt.Errorf("splitplan: store holds no points — nothing to split"))
	}
	xs := make([]int64, len(pts))
	for i, p := range pts {
		xs[i] = p.X
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })

	// Quantile boundaries, deduplicated: "x<b" must be strictly above the
	// previous bound or the shard would be empty.
	var bounds []int64
	for i := 1; i < *n; i++ {
		b := xs[i*len(xs)/(*n)]
		if len(bounds) > 0 && b <= bounds[len(bounds)-1] {
			continue
		}
		if b == xs[0] {
			continue // an empty leading shard helps no one
		}
		bounds = append(bounds, b)
	}

	m := &router.Map{}
	lo := int64(geom.MinCoord)
	for _, b := range bounds {
		m.Shards = append(m.Shards, router.Shard{Lo: lo, Hi: b - 1})
		lo = b
	}
	m.Shards = append(m.Shards, router.Shard{Lo: lo, Hi: geom.MaxCoord})
	spec := m.Spec()
	if _, err := router.ParseBounds(spec); err != nil {
		fatal(fmt.Errorf("splitplan: internal error: proposed spec does not parse: %w", err))
	}

	type shardPlan struct {
		Bound  string `json:"bound"`
		Points int    `json:"points"`
	}
	plan := make([]shardPlan, len(m.Shards))
	for i, sh := range m.Shards {
		// Count stored x in [sh.Lo, sh.Hi] by rank.
		lo := sort.Search(len(xs), func(j int) bool { return xs[j] >= sh.Lo })
		hi := sort.Search(len(xs), func(j int) bool { return xs[j] > sh.Hi })
		bound := "rest"
		if sh.Hi != geom.MaxCoord {
			bound = fmt.Sprintf("x<%d", sh.Hi+1)
		}
		plan[i] = shardPlan{Bound: bound, Points: hi - lo}
	}

	if *asJSON {
		out := struct {
			Store     string      `json:"store"`
			Points    int         `json:"points"`
			Requested int         `json:"requested_shards"`
			Planned   int         `json:"planned_shards"`
			Spec      string      `json:"spec"`
			Shards    []shardPlan `json:"shards"`
		}{*storePath, len(xs), *n, len(m.Shards), spec, plan}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("splitplan: %s  %d points  %d shards requested\n", *storePath, len(xs), *n)
	if len(m.Shards) < *n {
		fmt.Printf("note: duplicate x-values collapse the split to %d shards\n", len(m.Shards))
	}
	for i, sp := range plan {
		fmt.Printf("  shard %d: %-22s %d points (%.1f%%)\n",
			i, sp.Bound, sp.Points, 100*float64(sp.Points)/float64(len(xs)))
	}
	fmt.Printf("spec: %s\n", spec)
}
