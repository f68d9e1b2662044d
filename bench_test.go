package rangesearch

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"rangesearch/internal/bench"
	"rangesearch/internal/core"
	"rangesearch/internal/eio"
	"rangesearch/internal/epst"
	"rangesearch/internal/geom"
	"rangesearch/internal/interval"
	"rangesearch/internal/range4"
	"rangesearch/internal/smallstruct"
	"rangesearch/internal/wbtree"
)

// --- Experiment benchmarks: one target per table/claim in DESIGN.md. ---
// Each runs the corresponding experiment (in quick mode, so the benches
// finish in seconds); cmd/rsbench prints the full-size tables recorded in
// EXPERIMENTS.md.

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	var exp *bench.Experiment
	for _, e := range bench.All() {
		if e.Name == name {
			e := e
			exp = &e
			break
		}
	}
	if exp == nil {
		b.Fatalf("unknown experiment %q", name)
	}
	for i := 0; i < b.N; i++ {
		tables, err := exp.Run(true)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			for _, t := range tables {
				b.Log("\n" + t.Render())
			}
		}
	}
}

func BenchmarkE1FibonacciDensity(b *testing.B)   { benchExperiment(b, "e1") }
func BenchmarkE2LowerBoundTradeoff(b *testing.B) { benchExperiment(b, "e2") }
func BenchmarkE3Sweep3Sided(b *testing.B)        { benchExperiment(b, "e3") }
func BenchmarkE4Hier4Sided(b *testing.B)         { benchExperiment(b, "e4") }
func BenchmarkE5SmallStruct(b *testing.B)        { benchExperiment(b, "e5") }
func BenchmarkE6WBTree(b *testing.B)             { benchExperiment(b, "e6") }
func BenchmarkE7EPSTQuery(b *testing.B)          { benchExperiment(b, "e7") }
func BenchmarkE8EPSTUpdate(b *testing.B)         { benchExperiment(b, "e8") }
func BenchmarkE9IntervalStab(b *testing.B)       { benchExperiment(b, "e9") }
func BenchmarkE10Range4(b *testing.B)            { benchExperiment(b, "e10") }
func BenchmarkE11Baselines(b *testing.B)         { benchExperiment(b, "e11") }
func BenchmarkE12UpdateTail(b *testing.B)        { benchExperiment(b, "e12") }
func BenchmarkE13Ablation(b *testing.B)          { benchExperiment(b, "e13") }

// --- Operation-level micro-benchmarks with I/O metrics. ---

const (
	benchN        = 50_000
	benchPageSize = 1024 // B = 64
	benchDomain   = int64(benchN) * 4
)

func BenchmarkOpEPSTQuery3(b *testing.B) {
	store := eio.NewMemStore(benchPageSize)
	tr, err := epst.Build(store, epst.Options{}, bench.Uniform(1, benchN, benchDomain))
	if err != nil {
		b.Fatal(err)
	}
	queries := bench.Queries3(2, 256, benchDomain, 0.05)
	var buf []geom.Point
	store.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		buf, err = tr.Query3(buf, queries[i%len(queries)])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(store.Stats().IOs())/float64(b.N), "ios/op")
}

// BenchmarkOpEPSTQueryScan is the query of the repo benchmark's
// scan_large_pool workload without the wire and the pool: 4 KiB pages,
// 32 768 uniform points in [0, 2²⁰)², 3-sided queries 16 384 wide whose
// bottom lies in the middle half of the domain. Its ns/op is the CPU a
// query spends inside the pages it reads. `make bench-read` runs it.
func BenchmarkOpEPSTQueryScan(b *testing.B) {
	const domain, span = 1 << 20, 16384
	store := eio.NewMemStore(4096)
	tr, err := epst.Build(store, epst.Options{}, bench.Uniform(19, 32768, domain))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20))
	queries := make([]geom.Query3, 1024)
	for i := range queries {
		xlo := rng.Int63n(domain - span)
		queries[i] = geom.Query3{XLo: xlo, XHi: xlo + span - 1, YLo: domain/4 + rng.Int63n(domain/2)}
	}
	var buf []geom.Point
	store.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = tr.Query3(buf[:0], queries[i%len(queries)])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(store.Stats().IOs())/float64(b.N), "ios/op")
}

func BenchmarkOpEPSTInsertDelete(b *testing.B) {
	store := eio.NewMemStore(benchPageSize)
	pts := bench.Uniform(3, benchN, benchDomain)
	tr, err := epst.Build(store, epst.Options{}, pts)
	if err != nil {
		b.Fatal(err)
	}
	store.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pts[i%len(pts)]
		if _, err := tr.Delete(p); err != nil {
			b.Fatal(err)
		}
		if err := tr.Insert(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(store.Stats().IOs())/float64(2*b.N), "ios/op")
}

func BenchmarkOpRange4Query(b *testing.B) {
	store := eio.NewMemStore(benchPageSize)
	tr, err := range4.Build(store, range4.Options{}, bench.Uniform(5, benchN/2, benchDomain))
	if err != nil {
		b.Fatal(err)
	}
	queries := bench.Queries4(6, 256, benchDomain, 0.05, 0.05)
	var buf []geom.Point
	store.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		buf, err = tr.Query4(buf, queries[i%len(queries)])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(store.Stats().IOs())/float64(b.N), "ios/op")
}

func BenchmarkOpWBTreeInsert(b *testing.B) {
	store := eio.NewMemStore(4096)
	tr, err := wbtree.Create(store, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	pts := bench.Uniform(7, 1<<20, 1<<40)
	store.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(pts[i%len(pts)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(store.Stats().IOs())/float64(b.N), "ios/op")
}

func BenchmarkOpSmallStructQuery(b *testing.B) {
	store := eio.NewMemStore(benchPageSize) // B = 64
	pts := bench.Uniform(9, 64*64, 1<<20)
	s, err := smallstruct.Create(store, 2, pts)
	if err != nil {
		b.Fatal(err)
	}
	queries := bench.Queries3(10, 256, 1<<20, 0.1)
	var buf []geom.Point
	store.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		buf, err = s.Query3(buf, queries[i%len(queries)])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(store.Stats().IOs())/float64(b.N), "ios/op")
}

// BenchmarkOpSmallStructRebuild rebuilds the node structure a durable
// write pays for once per B/2 updates at the root of the repo benchmark's
// tree: 8 344 points at B = 256, with a buffered insertion and a cancelled
// tombstone to merge in. `make bench-write` runs it.
func BenchmarkOpSmallStructRebuild(b *testing.B) {
	store := eio.NewMemStore(4096)
	pts := bench.Uniform(13, 8344+1, 1<<30)
	created, err := smallstruct.Create(store, 2, pts[:8344])
	if err != nil {
		b.Fatal(err)
	}
	var sc smallstruct.Scratch
	s := smallstruct.OpenScratch(store, created.CatalogID(), 2, &sc)
	extra := pts[8344]
	rebuild := func(i int) {
		// Insert and Delete, not Add and Remove: this runs on the parent
		// commit too.
		if err := s.Insert(extra); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Delete(pts[i%8344]); err != nil {
			b.Fatal(err)
		}
		if err := s.Rebuild(); err != nil {
			b.Fatal(err)
		}
		if err := s.Insert(pts[i%8344]); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Delete(extra); err != nil {
			b.Fatal(err)
		}
	}
	rebuild(0)
	store.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rebuild(i + 1)
	}
	b.ReportMetric(float64(store.Stats().IOs())/float64(b.N), "ios/op")
}

// BenchmarkOpEPSTUpdateDurable is the repo benchmark's write_durable
// workload without the wire: the stack cmd/rsserve assembles for a durable
// store — Durable(ThreeSided) on SnapStore(TxStore(FileStore)), 4 KiB
// pages, a 1024-page WAL — preloaded with 16 384 points, then half inserts,
// half deletes so the tree keeps its size, one transaction (and one fsync)
// per update. ios/op counts the page reads and writes the index issues to
// the top of that stack, which is what the benchmark's epst.ios_per_write
// counts.
func BenchmarkOpEPSTUpdateDurable(b *testing.B) {
	fs, err := eio.CreateFileStore(filepath.Join(b.TempDir(), "bench.db"), 4096)
	if err != nil {
		b.Fatal(err)
	}
	tx, err := eio.NewTxStore(fs, eio.TxOptions{WALPages: 1024})
	if err != nil {
		b.Fatal(err)
	}
	snap := eio.NewSnapStore(tx, 0)
	defer snap.Close()
	counted := &ioCounter{Store: snap}
	idx, err := core.NewThreeSided(counted, epst.Options{})
	if err != nil {
		b.Fatal(err)
	}
	d := core.NewDurable(idx, tx)
	pts := bench.Uniform(17, 16384+b.N/2+1, 1<<40)
	for lo := 0; lo < 16384; lo += 64 {
		if err := d.Batch(func(x core.Index) error {
			for _, p := range pts[lo : lo+64] {
				if err := x.Insert(p); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := snap.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	counted.ios = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			err = d.Insert(pts[16384+i/2])
		} else {
			_, err = d.Delete(pts[i/2])
		}
		if err != nil {
			b.Fatal(err)
		}
		if _, err := snap.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(counted.ios)/float64(b.N), "ios/op")
}

// BenchmarkOpBatchLoad is the repo benchmark's scan_large_pool preload
// without the wire: the stack cmd/rsserve assembles for -durable=false
// -pool 32 — Concurrent(ThreeSided) on SnapStore(Pool(FileStore)), 4 KiB
// pages, a 32-page LRU pool, without rsserve's TraceStore, which passes
// untraced I/O straight through — loaded with 8 Apply runs of 4 096 uniform
// points in [0, 2²⁰)², each run what one BATCH request becomes. One
// iteration is one whole load onto a fresh store; the metrics are per
// loaded point: FileStore reads and writes (the pool's misses and dirty
// evictions reaching the file), pool misses, page_ops — every page read and
// write the tree makes, the pool's hits and misses together — and
// syscalls/point, the process's read and write system calls during the
// loads (/proc/self/io syscr + syscw; omitted where that file is
// unreadable), which also counts the file traffic eio.Stats does not: the
// zero pages and free-list nodes of the allocator.
func BenchmarkOpBatchLoad(b *testing.B) {
	const runs, runLen = 8, 4096
	pts := bench.Uniform(23, runs*runLen, 1<<20)
	ops := make([]core.BatchOp, len(pts))
	for i, p := range pts {
		ops[i] = core.BatchOp{P: p}
	}
	var file eio.Stats
	var misses, pageOps, syscalls uint64
	_, sysOK := ioSyscalls()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fs, err := eio.CreateFileStore(filepath.Join(b.TempDir(), "load.db"), 4096)
		if err != nil {
			b.Fatal(err)
		}
		pool := eio.NewPool(fs, 32)
		snap := eio.NewSnapStore(pool, 0)
		idx, err := core.NewThreeSided(snap, epst.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := snap.Commit(); err != nil {
			b.Fatal(err)
		}
		hdr := idx.HeaderID()
		c, err := core.NewConcurrent(idx, snap, func(s eio.Store) (core.Index, error) { return core.OpenThreeSided(s, hdr) }, core.ConcurrentOptions{})
		if err != nil {
			b.Fatal(err)
		}
		pool.ResetStats()
		sys0, _ := ioSyscalls()
		b.StartTimer()
		for lo := 0; lo < len(ops); lo += runLen {
			for _, r := range c.Apply(ops[lo:lo+runLen], nil) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
		b.StopTimer()
		sys1, _ := ioSyscalls()
		syscalls += sys1 - sys0
		st := fs.Stats()
		file.Reads += st.Reads
		file.Writes += st.Writes
		ps := pool.PoolStats()
		misses += ps.Misses
		pageOps += ps.Hits + ps.Misses
		c.Close()
		snap.Close()
		b.StartTimer()
	}
	n := float64(b.N * len(ops))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/point")
	b.ReportMetric(float64(file.Reads)/n, "file_reads/point")
	b.ReportMetric(float64(file.Writes)/n, "file_writes/point")
	b.ReportMetric(float64(misses)/n, "pool_misses/point")
	b.ReportMetric(float64(pageOps)/n, "page_ops/point")
	if sysOK {
		b.ReportMetric(float64(syscalls)/n, "syscalls/point")
	}
}

// ioSyscalls returns the read and write system calls this process has
// made (syscr + syscw of /proc/self/io), and false where the file is
// unreadable.
func ioSyscalls() (uint64, bool) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	var n uint64
	found := 0
	for _, line := range bytes.Split(data, []byte("\n")) {
		k, v, ok := bytes.Cut(line, []byte(": "))
		if !ok || (string(k) != "syscr" && string(k) != "syscw") {
			continue
		}
		c, err := strconv.ParseUint(string(bytes.TrimSpace(v)), 10, 64)
		if err != nil {
			return 0, false
		}
		n += c
		found++
	}
	return n, found == 2
}

// ioCounter counts the page reads and writes passing through it.
type ioCounter struct {
	eio.Store
	ios int
}

func (c *ioCounter) Read(id eio.PageID, buf []byte) error {
	c.ios++
	return c.Store.Read(id, buf)
}

func (c *ioCounter) Write(id eio.PageID, buf []byte) error {
	c.ios++
	return c.Store.Write(id, buf)
}

func BenchmarkOpIntervalStab(b *testing.B) {
	store := eio.NewMemStore(benchPageSize)
	pts := bench.Diagonal(11, benchN/2, benchDomain)
	ivs := make([]geom.Interval, len(pts))
	for i, p := range pts {
		ivs[i] = geom.Interval{Lo: p.X, Hi: p.Y}
	}
	s, err := interval.Build(store, epst.Options{}, ivs)
	if err != nil {
		b.Fatal(err)
	}
	var buf []geom.Interval
	store.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		buf, err = s.Stab(buf, int64(i*9973)%benchDomain)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(store.Stats().IOs())/float64(b.N), "ios/op")
}

// BenchmarkOpBufferPool shows the effect of an M-page buffer pool on query
// I/Os — the practical deployment mode (ablation from DESIGN.md).
func BenchmarkOpBufferPool(b *testing.B) {
	for _, capacity := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("M=%d", capacity), func(b *testing.B) {
			backing := eio.NewMemStore(benchPageSize)
			pool := eio.NewPool(backing, capacity)
			tr, err := epst.Build(pool, epst.Options{}, bench.Uniform(13, benchN/2, benchDomain))
			if err != nil {
				b.Fatal(err)
			}
			queries := bench.Queries3(14, 256, benchDomain, 0.05)
			var buf []geom.Point
			backing.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = buf[:0]
				buf, err = tr.Query3(buf, queries[i%len(queries)])
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(backing.Stats().IOs())/float64(b.N), "ios/op")
		})
	}
}

// Compile-time use of the facade so the root package depends on the whole
// public surface.
var _ core.Index = (*core.ThreeSided)(nil)
