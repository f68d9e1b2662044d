package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rangesearch/internal/core"
	"rangesearch/internal/eio"
	"rangesearch/internal/epst"
	"rangesearch/internal/geom"
)

// MaxWorkers is the largest worker count the concurrent experiment scales
// to.
const MaxWorkers = 8

// EConcurrent benchmarks snapshot read scaling under the serving layer
// (core.Concurrent): query throughput at 1..MaxWorkers reader goroutines
// over a fixed EPST, with the per-query I/O count measured at every worker
// count — the counts must not move, only the throughput. Throughput is
// hardware-dependent; the I/O counts are exact and deterministic, and the
// regression guard pins them. Group-commit coalescing and the pool are
// measured end to end by the repo benchmark (core.ops_per_commit on
// write_durable, scan_large_pool).
func EConcurrent(quick bool) ([]*Table, error) {
	// The scaling rows are meaningless if the scheduler is pinned to one
	// P (an inherited GOMAXPROCS=1 once shipped a snapshot where 8
	// readers measured 0.86x): raise GOMAXPROCS to the machine's CPU
	// count for the duration of the experiment, and restore it after.
	if prev := runtime.GOMAXPROCS(0); runtime.NumCPU() > prev {
		runtime.GOMAXPROCS(runtime.NumCPU())
		defer runtime.GOMAXPROCS(prev)
	}

	n := 200_000
	nq := 4_000
	if quick {
		n = 20_000
		nq = 800
	}
	ta, err := concurrentReadScaling(n, nq, 1<<30, []int{1, 2, 4, MaxWorkers})
	if err != nil {
		return nil, err
	}
	return []*Table{ta}, nil
}

// concurrentReadScaling measures snapshot-query throughput and exact
// per-query I/Os at each worker count. The structure lives on a bare
// MemStore behind the SnapStore (no pool), so read counts are
// deterministic: the "reads/query" column must be identical in every row.
func concurrentReadScaling(n, nq int, coordRange int64, workerCounts []int) (*Table, error) {
	t := &Table{
		Title: "concurrent-a: snapshot read scaling (EPST under core.Concurrent)",
		Note: fmt.Sprintf("N=%d, %d queries/worker, GOMAXPROCS=%d; reads/query is exact and must not vary with workers",
			n, nq, runtime.GOMAXPROCS(0)),
		Header: []string{"workers", "queries/s", "speedup", "per-query I/O", "mean t"},
	}

	mem := eio.NewMemStore(4096)
	snap := eio.NewSnapStore(mem, 0)
	idx, err := core.BuildThreeSided(snap, epst.Options{}, Uniform(7, n, coordRange))
	if err != nil {
		return nil, err
	}
	hdr := idx.HeaderID()
	if _, err := snap.Commit(); err != nil {
		return nil, err
	}
	c, err := core.NewConcurrent(idx, snap,
		func(s eio.Store) (core.Index, error) { return core.OpenThreeSided(s, hdr) },
		core.ConcurrentOptions{})
	if err != nil {
		return nil, err
	}

	queries := Queries3(11, nq, coordRange, 0.001)
	var base float64
	for _, w := range workerCounts {
		// Warm the epoch view, then measure I/Os and results serially (the
		// counts are per-query exact) and throughput in parallel.
		sn, err := c.Snapshot()
		if err != nil {
			return nil, err
		}
		mem.ResetStats()
		snap.ResetStats()
		var results int
		for _, q := range queries {
			pts, err := sn.Query(nil, geom.Rect{XLo: q.XLo, XHi: q.XHi, YLo: q.YLo, YHi: geom.MaxCoord})
			if err != nil {
				sn.Close()
				return nil, err
			}
			results += len(pts)
		}
		readsPerQuery := float64(mem.Stats().Reads+snap.SnapStats().VersionReads) / float64(len(queries))

		start := time.Now()
		var wg sync.WaitGroup
		var qerr atomic.Value
		for i := 0; i < w; i++ {
			wg.Add(1)
			go func(off int) {
				defer wg.Done()
				for j := range queries {
					q := queries[(j+off)%len(queries)]
					if _, err := sn.Query(nil, geom.Rect{XLo: q.XLo, XHi: q.XHi, YLo: q.YLo, YHi: geom.MaxCoord}); err != nil {
						qerr.Store(err)
						return
					}
				}
			}(i * 37)
		}
		wg.Wait()
		elapsed := time.Since(start)
		sn.Close()
		if err, ok := qerr.Load().(error); ok {
			return nil, err
		}
		qps := float64(w*len(queries)) / elapsed.Seconds()
		if base == 0 {
			base = qps
		}
		t.AddRow(w, fmt.Sprintf("%.0f", qps), fmt.Sprintf("%.2fx", qps/base),
			fmt.Sprintf("%.2f", readsPerQuery), fmt.Sprintf("%.1f", float64(results)/float64(len(queries))))
	}
	return t, nil
}
