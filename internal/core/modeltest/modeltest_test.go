package modeltest

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"rangesearch/internal/core"
	"rangesearch/internal/eio"
	"rangesearch/internal/epst"
	"rangesearch/internal/geom"
	"rangesearch/internal/node"
	"rangesearch/internal/range4"
	"rangesearch/internal/repl"
	"rangesearch/internal/trace"
	"rangesearch/internal/wbuf"
)

const coordRange = 1 << 20

// epstFactory builds a plain ThreeSided on a fresh MemStore.
func epstFactory() (core.Index, func(), error) {
	mem := eio.NewMemStore(512)
	idx, err := core.NewThreeSided(mem, epst.Options{})
	if err != nil {
		return nil, nil, err
	}
	return idx, func() { mem.Close() }, nil
}

// range4Factory builds a plain FourSided on a fresh MemStore.
func range4Factory() (core.Index, func(), error) {
	mem := eio.NewMemStore(512)
	idx, err := core.NewFourSided(mem, range4.Options{})
	if err != nil {
		return nil, nil, err
	}
	return idx, func() { mem.Close() }, nil
}

// walPages sizes the TxStore WAL for the largest single-operation
// transaction in the matrix: a range4 insert can trigger a global
// substructure rebuild whose page footprint grows with N, far past what a
// B-tree-like update would need (the harness itself found 256 overflowing
// at ~1.7k live points).
const walPages = 8192

// durably wraps a factory's structure in Durable over a TxStore, so every
// model-checked operation is one WAL transaction.
func durably(mk func(eio.Store) (core.Index, error)) Factory {
	return func() (core.Index, func(), error) {
		mem := eio.NewMemStore(512)
		tx, err := eio.NewTxStore(mem, eio.TxOptions{WALPages: walPages})
		if err != nil {
			return nil, nil, err
		}
		idx, err := mk(tx)
		if err != nil {
			return nil, nil, err
		}
		return core.NewDurable(idx, tx), func() { tx.Close() }, nil
	}
}

// ioCount is a TraceSink counting page reads+writes — the same events an
// eio.SpanSink folds into a span's IOs().
type ioCount struct{ n atomic.Int64 }

func (c *ioCount) Emit(e eio.TraceEvent) {
	if e.Op == eio.OpRead || e.Op == eio.OpWrite {
		c.n.Add(1)
	}
}

// concurrently stacks Concurrent (group commit + snapshot reads) on a
// structure living on a SnapStore; durable additionally routes batches
// through Durable.Batch over a TxStore. The writer sits on the TraceStore
// Concurrent attributes span I/O through, with a second, always-counting
// TraceStore beneath it; every reader view counts its page reads from the
// moment its header has loaded — the boundary a traced query's span uses.
func concurrently(
	create func(eio.Store) (core.Index, eio.PageID, error),
	open func(eio.Store, eio.PageID) (core.Index, error),
	durable bool,
) EngineFactory {
	return func() (core.Engine, func() (int64, int64), func(), error) {
		var base eio.Store = eio.NewMemStore(512)
		var tx *eio.TxStore
		if durable {
			var err error
			tx, err = eio.NewTxStore(base, eio.TxOptions{WALPages: walPages})
			if err != nil {
				return nil, nil, nil, err
			}
			base = tx
		}
		snap := eio.NewSnapStore(base, 0)
		var writerIOs, viewIOs ioCount
		counted := eio.NewTraceStore(snap)
		counted.SetSink(&writerIOs)
		tracer := eio.NewTraceStore(counted)
		idx, hdr, err := create(tracer)
		if err != nil {
			return nil, nil, nil, err
		}
		if _, err := snap.Commit(); err != nil {
			return nil, nil, nil, err
		}
		writer := idx
		if durable {
			writer = core.NewDurable(idx, tx)
		}
		c, err := core.NewConcurrent(writer, snap, func(view eio.Store) (core.Index, error) {
			cv := eio.NewTraceStore(view)
			vidx, err := open(cv, hdr)
			cv.SetSink(&viewIOs)
			return vidx, err
		}, core.ConcurrentOptions{Tracer: tracer})
		if err != nil {
			return nil, nil, nil, err
		}
		ios := func() (int64, int64) { return writerIOs.n.Load(), viewIOs.n.Load() }
		return c, ios, func() { snap.Close() }, nil
	}
}

func createThreeSided(s eio.Store) (core.Index, eio.PageID, error) {
	idx, err := core.NewThreeSided(s, epst.Options{})
	if err != nil {
		return nil, eio.NilPage, err
	}
	return idx, idx.HeaderID(), nil
}

func openThreeSided(s eio.Store, hdr eio.PageID) (core.Index, error) {
	return core.OpenThreeSided(s, hdr)
}

func createFourSided(s eio.Store) (core.Index, eio.PageID, error) {
	idx, err := core.NewFourSided(s, range4.Options{})
	if err != nil {
		return nil, eio.NilPage, err
	}
	return idx, idx.HeaderID(), nil
}

func openFourSided(s eio.Store, hdr eio.PageID) (core.Index, error) {
	return core.OpenFourSided(s, hdr)
}

// buffer decorates base with the write buffer, using a small flush
// threshold so a 10k-op replay exercises dozens of flush/merge cycles, not
// just the staging path. No journal: crash recovery has its own sweep in
// internal/wbuf; here the differential target is the buffer/merge/flush
// semantics.
func buffer(base core.Index) (*wbuf.Buffered, error) {
	return wbuf.NewBuffered(base, wbuf.Options{MaxOps: 64})
}

// bufferedly buffers a bare index: flushes go through Durable.Batch or
// per-operation calls.
func bufferedly(mk Factory) Factory {
	return func() (core.Index, func(), error) {
		idx, closeFn, err := mk()
		if err != nil {
			return nil, nil, err
		}
		b, err := buffer(idx)
		if err != nil {
			closeFn()
			return nil, nil, err
		}
		return b, func() { b.Close(); closeFn() }, nil
	}
}

// bufferedEngine buffers a Concurrent engine, the stack rsserve
// -write-buffer serves: flushes, traced reads and the position go through
// the base's engine surface.
func bufferedEngine(mk EngineFactory) EngineFactory {
	return func() (core.Engine, func() (int64, int64), func(), error) {
		eng, ios, closeFn, err := mk()
		if err != nil {
			return nil, nil, nil, err
		}
		b, err := buffer(eng.(*core.Concurrent))
		if err != nil {
			closeFn()
			return nil, nil, nil, err
		}
		return b, ios, func() { b.Close(); closeFn() }, nil
	}
}

// asPrimary fronts a Concurrent engine with a repl.Node in the primary
// role, the stack rsserve -repl-listen serves.
func asPrimary(mk EngineFactory) EngineFactory {
	return func() (core.Engine, func() (int64, int64), func(), error) {
		eng, ios, closeFn, err := mk()
		if err != nil {
			return nil, nil, nil, err
		}
		return repl.NewNode(eng.(*core.Concurrent), repl.RolePrimary, 1, nil), ios, closeFn, nil
	}
}

// engineCell is one engine stack of the matrix driven one way: every
// operation through Apply/Report with a nil span, or with a live one.
type engineCell struct {
	name   string
	mk     EngineFactory
	traced bool
}

// row is one stack the mode table accepts, built by node.Build exactly as
// rsserve builds it (a file row in a fresh directory under dir); a primary
// row is fronted by a repl.Node, as -repl-listen fronts it. It has no I/O
// taps: a span's count needs a tap below the tracer, which only the traced
// cells' own construction has, so a row gets its untraced cell only.
func row(name, dir string, c node.Config) EngineFactory {
	return func() (core.Engine, func() (int64, int64), func(), error) {
		rowDir := ""
		if !c.Mem {
			var err error
			if rowDir, err = os.MkdirTemp(dir, name); err != nil {
				return nil, nil, nil, err
			}
			c.Store = filepath.Join(rowDir, "points.db")
		}
		st, err := node.Build(c)
		if err != nil {
			return nil, nil, nil, err
		}
		eng := st.Engine()
		if c.Role == node.Primary {
			eng = repl.NewNode(st.Conc, repl.RolePrimary, 1, nil)
		}
		return eng, nil, func() { st.Drain(); os.RemoveAll(rowDir) }, nil
	}
}

// engineCells is every stack a server can serve that the matrix builds, in
// its cells: every row of the mode table untraced, the EPST engines again
// with I/O taps traced, and the 4-sided engines both ways. File rows live
// under dir.
func engineCells(dir string) []engineCell {
	// The rows: -page 512, -wal sized like walPages, -write-buffer-ops 64.
	file := node.Config{PageSize: 512, Durable: true, WALPages: walPages, WriteBufferOps: 64}
	with := func(f func(*node.Config)) node.Config { c := file; f(&c); return c }
	var cells []engineCell
	for _, r := range []struct {
		name string
		c    node.Config
	}{
		{"epst-concurrent", with(func(c *node.Config) { c.Mem = true })},
		{"epst-concurrent-mem-buffered", with(func(c *node.Config) { c.Mem, c.WriteBuffer = true, true })},
		{"epst-concurrent-durable", file},
		{"epst-buffered-concurrent", with(func(c *node.Config) { c.WriteBuffer = true })},
		{"epst-primary-concurrent-durable", with(func(c *node.Config) { c.Role = node.Primary })},
		{"epst-concurrent-file", with(func(c *node.Config) { c.Durable = false })},
		{"epst-concurrent-file-buffered", with(func(c *node.Config) { c.Durable, c.WriteBuffer = false, true })},
		{"epst-concurrent-pool", with(func(c *node.Config) { c.Durable, c.PoolPages = false, 8 })},
		{"epst-concurrent-pool-buffered", with(func(c *node.Config) { c.Durable, c.PoolPages, c.WriteBuffer = false, 8, true })},
	} {
		cells = append(cells, engineCell{r.name, row(r.name, dir, r.c), false})
	}
	// The traced cells count I/O through taps of their own construction.
	range4 := concurrently(createFourSided, openFourSided, false)
	range4Durable := concurrently(createFourSided, openFourSided, true)
	return append(cells,
		engineCell{"epst-concurrent-traced", concurrently(createThreeSided, openThreeSided, false), true},
		engineCell{"epst-concurrent-durable-traced", concurrently(createThreeSided, openThreeSided, true), true},
		engineCell{"epst-buffered-concurrent-traced", bufferedEngine(concurrently(createThreeSided, openThreeSided, true)), true},
		engineCell{"epst-primary-concurrent-durable-traced", asPrimary(concurrently(createThreeSided, openThreeSided, true)), true},
		engineCell{"range4-concurrent", range4, false},
		engineCell{"range4-concurrent-traced", range4, true},
		engineCell{"range4-concurrent-durable", range4Durable, false},
		engineCell{"range4-concurrent-durable-traced", range4Durable, true},
	)
}

// configs is the full differential matrix: both paper structures crossed
// with every wrapper in the serving stack. The bare structures and their
// single-caller wrappers are driven through core.Index; everything a server
// can serve is driven through core.Engine, one config per engineCells cell.
func configs(dir string) []Config {
	epstDurable := durably(func(s eio.Store) (core.Index, error) { return core.NewThreeSided(s, epst.Options{}) })
	cfgs := []Config{
		{Name: "epst-plain", New: epstFactory},
		{Name: "epst-durable", New: epstDurable},
		{Name: "epst-buffered", New: bufferedly(epstFactory)},
		{Name: "epst-buffered-durable", New: bufferedly(epstDurable)},
		{Name: "range4-plain", New: range4Factory},
		{Name: "range4-durable", New: durably(func(s eio.Store) (core.Index, error) { return core.NewFourSided(s, range4.Options{}) })},
		{Name: "range4-buffered", New: bufferedly(range4Factory)},
	}
	for _, c := range engineCells(dir) {
		cfgs = append(cfgs, Config{Name: c.name, New: OverEngine(c.mk, c.traced)})
	}
	return cfgs
}

// seeds is the fixed CI seed matrix. Adding a seed here reruns history;
// a failure writes a shrunk artifact (see MODELTEST_ARTIFACTS).
var seeds = []int64{1, 7}

// TestDifferential replays the generated sequences over the full matrix:
// ≥10k ops per config in a full run, trimmed under -short (the -race CI
// job runs short; the plain job runs full).
func TestDifferential(t *testing.T) {
	nops := 10000
	runSeeds := seeds
	if testing.Short() {
		nops = 1500
		runSeeds = seeds[:1]
	}
	for _, cfg := range configs(t.TempDir()) {
		for _, seed := range runSeeds {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.Name, seed), func(t *testing.T) {
				ops := Generate(seed, nops, coordRange)
				err := Replay(cfg.New, ops)
				if err == nil {
					return
				}
				var d *Divergence
				if !errors.As(err, &d) {
					t.Fatalf("seed %d: infrastructure failure: %v", seed, err)
				}
				small := Shrink(cfg.New, ops[:d.Step+1])
				path, aerr := WriteArtifact(cfg.Name, seed, d.Detail, small)
				if aerr != nil {
					t.Logf("could not write artifact: %v", aerr)
				} else if path != "" {
					t.Logf("shrunk repro written to %s", path)
				}
				t.Fatalf("seed %d: %v (shrunk to %d ops)", seed, d, len(small))
			})
		}
	}
}

// TestDifferentialApplyRuns checks multi-op runs — what a BATCH request
// becomes — against the model applied one op at a time in submission
// order, on every engine cell of the matrix. A run may be applied in point
// order (core.CompareOps), but its per-entry results and the final contents
// must be exactly those of submission order. The runs repeat points (a hot
// set of 12), mix inserts and deletes, carry sentinel coordinates
// (ErrCoordRange) and are up to 150 ops long, so some span several group
// commits. Every twentieth run is followed by a long one, 256 to 512 fresh
// points: in point order its group commits each walk many leaves at the
// 512-byte pages, so the writer's held search path moves across leaves and
// through splits. A traced cell passes one live span per run, whose I/O
// count must equal what the writer side performed.
func TestDifferentialApplyRuns(t *testing.T) {
	nruns := 200
	if testing.Short() {
		nruns = 60
	}
	for _, c := range engineCells(t.TempDir()) {
		t.Run(c.name, func(t *testing.T) {
			if err := replayRuns(c.mk, c.traced, 11, nruns); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// replayRuns applies nruns seeded runs to a fresh engine from mk and to the
// model, and compares every entry's outcome, then the whole contents.
func replayRuns(mk EngineFactory, traced bool, seed int64, nruns int) error {
	eng, ios, closeFn, err := mk()
	if err != nil {
		return fmt.Errorf("factory: %w", err)
	}
	defer closeFn()
	rng := rand.New(rand.NewSource(seed))
	randPoint := func() geom.Point {
		return geom.Point{X: rng.Int63n(coordRange), Y: rng.Int63n(coordRange)}
	}
	hot := make([]geom.Point, 12)
	for i := range hot {
		hot[i] = randPoint()
	}
	sentinels := []geom.Point{{X: geom.MaxCoord, Y: 1}, {X: 1, Y: geom.MinCoord}, {X: geom.MinCoord, Y: geom.MaxCoord}}
	model := NewModel()
	long := rand.New(rand.NewSource(seed + 1)) // the long runs' points
	for r := 0; r < nruns; r++ {
		ops := make([]core.BatchOp, 1+rng.Intn(150))
		for i := range ops {
			var p geom.Point
			switch x := rng.Float64(); {
			case x < 0.05:
				p = sentinels[rng.Intn(len(sentinels))]
			case x < 0.45:
				p = hot[rng.Intn(len(hot))]
			default:
				p = randPoint()
			}
			ops[i] = core.BatchOp{Delete: rng.Float64() < 0.4, P: p}
		}
		if err := applyRun(eng, ios, traced, model, r, ops); err != nil {
			return err
		}
		if r%20 == 19 {
			ops = make([]core.BatchOp, 256+long.Intn(257))
			for i := range ops {
				ops[i] = core.BatchOp{P: geom.Point{X: long.Int63n(coordRange), Y: long.Int63n(coordRange)}}
			}
			if err := applyRun(eng, ios, traced, model, r, ops); err != nil {
				return err
			}
		}
	}
	pts, err := eng.Report(nil, geom.Rect{XLo: 0, XHi: coordRange, YLo: 0, YHi: geom.MaxCoord}, nil)
	if err != nil {
		return err
	}
	SortPoints(pts)
	if d := diffPoints(pts, model.Query(geom.Rect{XLo: 0, XHi: coordRange, YLo: 0, YHi: geom.MaxCoord})); d != "" {
		return fmt.Errorf("final contents: %s", d)
	}
	if n, err := eng.Len(); err != nil || n != model.Len() {
		return fmt.Errorf("Len = %d, %v; model has %d", n, err, model.Len())
	}
	return nil
}

// applyRun applies run r's ops to eng and to the model, and compares every
// entry's outcome and, on a traced cell, the span's I/O count.
func applyRun(eng core.Engine, ios func() (int64, int64), traced bool, model *Model, r int, ops []core.BatchOp) error {
	var sp *trace.Span
	var w0 int64
	if traced {
		sp = trace.New(trace.ID{}, "batch")
		w0, _ = ios()
	}
	got := eng.Apply(ops, sp)
	if traced {
		if w1, _ := ios(); sp.IOs() != w1-w0 {
			return fmt.Errorf("run %d: span attributes %d I/Os, the writer performed %d", r, sp.IOs(), w1-w0)
		}
	}
	for i, op := range ops {
		want := modelApply(model, op)
		if got[i].Found != want.Found || outcome(got[i].Err) != outcome(want.Err) {
			return fmt.Errorf("run %d entry %d of %d (%+v): got found=%v err=%v, want found=%v err=%v",
				r, i, len(ops), op, got[i].Found, got[i].Err, want.Found, want.Err)
		}
	}
	return nil
}

// modelApply is one op on the model, as Apply reports it.
func modelApply(m *Model, op core.BatchOp) core.BatchResult {
	p := op.P
	if p.X == geom.MinCoord || p.X == geom.MaxCoord || p.Y == geom.MinCoord || p.Y == geom.MaxCoord {
		return core.BatchResult{Err: core.ErrCoordRange}
	}
	if op.Delete {
		return core.BatchResult{Found: m.Delete(p)}
	}
	if !m.Insert(p) {
		return core.BatchResult{Err: core.ErrDuplicate}
	}
	return core.BatchResult{}
}

// outcome names an Apply entry's error class: the benign answers are
// compared by kind, anything else never matches the model.
func outcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, core.ErrDuplicate):
		return "duplicate"
	case errors.Is(err, core.ErrCoordRange):
		return "coordinate out of range"
	}
	return "failure: " + err.Error()
}

// TestShrinkMinimizes plants a deterministic bug (an index wrapper that
// silently drops inserts whose X is a multiple of 16) and checks the
// shrinker reduces the sequence to a handful of ops that still reproduce,
// and that the artifact round-trips.
func TestShrinkMinimizes(t *testing.T) {
	mk := func() (core.Index, func(), error) {
		idx, closeFn, err := epstFactory()
		if err != nil {
			return nil, nil, err
		}
		return &dropModInsert{Index: idx}, closeFn, nil
	}
	ops := Generate(3, 4000, coordRange)
	err := Replay(mk, ops)
	var d *Divergence
	if !errors.As(err, &d) {
		t.Fatalf("planted bug not detected: %v", err)
	}
	small := Shrink(mk, ops[:d.Step+1])
	if len(small) > 4 {
		t.Fatalf("shrinker left %d of %d ops", len(small), d.Step+1)
	}
	if err := Replay(mk, small); !errors.As(err, &d) {
		t.Fatalf("shrunk sequence no longer reproduces: %v", err)
	}
	// And the clean index passes the same shrunk sequence.
	if err := Replay(epstFactory, small); err != nil {
		t.Fatalf("shrunk sequence fails on the correct index: %v", err)
	}

	t.Setenv("MODELTEST_ARTIFACTS", t.TempDir())
	path, err := WriteArtifact("planted", 3, d.Detail, small)
	if err != nil || path == "" {
		t.Fatalf("artifact write: (%q, %v)", path, err)
	}
	art, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Ops) != len(small) || art.Seed != 3 {
		t.Fatalf("artifact round-trip mismatch: %d ops seed %d", len(art.Ops), art.Seed)
	}
	if err := Replay(mk, art.Ops); !errors.As(err, &d) {
		t.Fatalf("artifact replay no longer reproduces: %v", err)
	}
}

// dropModInsert silently swallows inserts of points whose X coordinate is
// a multiple of 16 — a realistic lost-update bug for the harness to find,
// and state-free so the minimal reproduction is a single operation.
type dropModInsert struct {
	core.Index
}

func (d *dropModInsert) Insert(p geom.Point) error {
	if p.X%16 == 0 {
		return nil // lie: claim success without inserting
	}
	return d.Index.Insert(p)
}

// TestGenerateDeterministic pins that a seed fully determines the
// sequence — the property the CI seed matrix and artifacts rely on.
func TestGenerateDeterministic(t *testing.T) {
	a := Generate(42, 500, coordRange)
	b := Generate(42, 500, coordRange)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	var ins, del, q int
	for _, op := range a {
		switch op.Kind {
		case OpInsert:
			ins++
		case OpDelete:
			del++
		case OpQuery:
			q++
		}
	}
	if ins == 0 || del == 0 || q == 0 {
		t.Fatalf("degenerate mix: %d inserts, %d deletes, %d queries", ins, del, q)
	}
}
