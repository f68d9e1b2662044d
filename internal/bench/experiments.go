package bench

import (
	"fmt"
	"math"
	"math/rand"

	"rangesearch/internal/baseline"
	"rangesearch/internal/eio"
	"rangesearch/internal/epst"
	"rangesearch/internal/geom"
	"rangesearch/internal/hier"
	"rangesearch/internal/indexability"
	"rangesearch/internal/interval"
	"rangesearch/internal/range4"
	"rangesearch/internal/smallstruct"
	"rangesearch/internal/sweep"
	"rangesearch/internal/wbtree"
)

// Experiment is a named, runnable experiment from DESIGN.md.
type Experiment struct {
	Name  string
	Claim string
	Run   func(quick bool) ([]*Table, error)
}

// All returns the experiment registry in order.
func All() []Experiment {
	return []Experiment{
		{"e1", "Prop. 1: Fibonacci lattice rectangle density Θ(ℓB)", E1},
		{"e2", "Thms 2-3/5: redundancy vs access-overhead trade-off", E2},
		{"e3", "Thm 4: 3-sided scheme r ≤ 1+1/(α−1), cover O(t+1)", E3},
		{"e4", "Thm 5: 4-sided scheme r=O(log n/log ρ), cover O(ρ+t)", E4},
		{"e5", "Lemma 1: B²-point structure, O(B) blocks, O(t+1) query", E5},
		{"e6", "Lemma 3: weight-balanced B-tree ops in O(log_B N)", E6},
		{"e7", "Thm 6: EPST query O(log_B N + t), space O(n)", E7},
		{"e8", "Thm 6: EPST updates O(log_B N)", E8},
		{"e9", "Interval stabbing O(log_B N + t) via diagonal corner", E9},
		{"e10", "Thm 7: 4-sided query O(log_B N + t)-shaped, space O(n log n/loglog)", E10},
		{"e11", "Optimal structures vs baselines on adversarial queries", E11},
		{"e12", "§3.3.2/3.3.3: update-cost tail (amortized spikes)", E12},
		{"e13", "ablation: EPST parameters a, k, alpha", E13},
		{"e14", "bound check: per-op overhead vs Thms 6-7 allowances", E14},
		{"concurrent", "serving layer: snapshot reads scale, per-query I/O unchanged", EConcurrent},
		{"writeopt", "write-optimized mode: buffered updates amortize below per-op O(log_B N), durable insert throughput multiplies", EWriteopt},
	}
}

// E1 measures Proposition 1: every rectangle of area ℓBN on the Fibonacci
// lattice holds between ℓB/c₁ and ℓB/c₂ points.
func E1(quick bool) ([]*Table, error) {
	t := &Table{
		Title:  "E1: Fibonacci lattice density (Proposition 1)",
		Note:   fmt.Sprintf("paper: rect of area lBN holds >= lB/c1 and <= lB/c2 points, c1~%.2f c2~%.2f", indexability.FibC1, indexability.FibC2),
		Header: []string{"k", "N", "B", "l", "expected lB", "min", "max", "c1=lB/min", "c2=lB/max", "rects"},
	}
	ks := []int{16, 21, 24}
	if quick {
		ks = []int{16, 18}
	}
	for _, k := range ks {
		for _, ell := range []int{1, 4} {
			rep := indexability.MeasureDensity(k, 16, ell, 2.0)
			t.AddRow(k, indexability.Fib(k), 16, ell, rep.Expected, rep.Min, rep.Max, rep.C1, rep.C2, rep.Rects)
		}
	}
	return []*Table{t}, nil
}

// E2 compares the measured redundancy of the Theorem 5 construction on the
// Fibonacci workload against the Theorem 2/3 lower bound shape.
func E2(quick bool) ([]*Table, error) {
	k := 21 // N = 10946
	if quick {
		k = 16 // N = 987
	}
	b := 16
	pts := Lattice(k)
	n := len(pts)

	tA := &Table{
		Title:  "E2a: measured r/A trade-off of the hierarchical scheme (Fibonacci workload)",
		Note:   fmt.Sprintf("N=%d B=%d; queries: tilings of area ~c1*B*N; shape log(n)/log(rho)", n, b),
		Header: []string{"rho", "levels", "r measured", "A measured", "max blocks", "shape log(n)/log(rho)"},
	}
	w := &indexability.Workload{Points: pts, Queries: indexability.TilingQueries(k, b, 1, 4.0)}
	for _, rho := range []int{2, 4, 16} {
		s, err := hier.Build(pts, b, rho, 2)
		if err != nil {
			return nil, err
		}
		rep, err := indexability.MeasureAccess(s, w)
		if err != nil {
			return nil, err
		}
		tA.AddRow(rho, s.Levels(), s.Redundancy(), rep.Overhead, rep.MaxBlocks,
			indexability.TradeoffShape(float64(n)/float64(b), float64(rho)))
	}

	tB := &Table{
		Title:  "E2b: Theorem 2/3 closed-form lower bound r = Omega(log n / log(L+A))",
		Header: []string{"N", "B", "A", "L", "k=L/A", "ratios", "r lower bound"},
	}
	for _, p := range []indexability.LowerBoundParams{
		{N: indexability.Fib(40), B: 1 << 12, A: 2},
		{N: indexability.Fib(60), B: 1 << 12, A: 2},
		{N: indexability.Fib(80), B: 1 << 12, A: 2},
		{N: indexability.Fib(60), B: 1 << 12, A: 4},
		{N: indexability.Fib(60), B: 1 << 12, A: 2, L: 64},
	} {
		lb, err := indexability.FibonacciLowerBound(p)
		if err != nil {
			return nil, err
		}
		tB.AddRow(p.N, p.B, p.A, p.L, lb.K, lb.Ratios, lb.R)
	}
	return []*Table{tA, tB}, nil
}

// E3 sweeps α for the 3-sided sweep-line scheme.
func E3(quick bool) ([]*Table, error) {
	n, b := 50000, 64
	if quick {
		n, b = 5000, 16
	}
	pts := Uniform(1, n, int64(n))
	t := &Table{
		Title:  "E3: 3-sided sweep scheme vs alpha (Theorem 4)",
		Note:   fmt.Sprintf("N=%d B=%d, 500 random 3-sided queries; bound: r <= 1+1/(alpha-1), blocks <= alpha^2*t+alpha+1", n, b),
		Header: []string{"alpha", "blocks", "r", "r bound", "avg blk/query", "max blk/(t+1)", "A bound"},
	}
	for _, alpha := range []int{2, 3, 4, 8} {
		s, err := sweep.Build(pts, b, alpha)
		if err != nil {
			return nil, err
		}
		var sumBlocks float64
		var worst float64
		queries := Queries3(2, 500, int64(n), 0.1)
		for _, q := range queries {
			res, nb := s.Query3(nil, q)
			sumBlocks += float64(nb)
			tb := (len(res) + b - 1) / b
			if ov := float64(nb) / float64(tb+1); ov > worst {
				worst = ov
			}
		}
		t.AddRow(alpha, s.NumBlocks(), s.Redundancy(), 1+1/float64(alpha-1),
			sumBlocks/float64(len(queries)), worst, alpha*alpha+alpha+1)
	}
	return []*Table{t}, nil
}

// E4 sweeps ρ for the 4-sided hierarchical scheme.
func E4(quick bool) ([]*Table, error) {
	n, b := 30000, 32
	if quick {
		n, b = 4000, 16
	}
	pts := Uniform(3, n, int64(n))
	t := &Table{
		Title:  "E4: 4-sided hierarchical scheme vs rho (Theorem 5)",
		Note:   fmt.Sprintf("N=%d B=%d, 400 random window queries; r = O(log n/log rho), cover O(rho+t)", n, b),
		Header: []string{"rho", "levels", "r", "log(n)/log(rho)", "avg blk/query", "max blk-t", "max blk"},
	}
	for _, rho := range []int{2, 4, 16, 64} {
		s, err := hier.Build(pts, b, rho, 2)
		if err != nil {
			return nil, err
		}
		queries := Queries4(4, 400, int64(n), 0.1, 0.1)
		var sum float64
		var maxOver, maxBlk float64
		for _, q := range queries {
			res, nb := s.Query4(nil, q)
			sum += float64(nb)
			tb := (len(res) + b - 1) / b
			if over := float64(nb - tb); over > maxOver {
				maxOver = over
			}
			if float64(nb) > maxBlk {
				maxBlk = float64(nb)
			}
		}
		t.AddRow(rho, s.Levels(), s.Redundancy(),
			indexability.TradeoffShape(float64(n)/float64(b), float64(rho)),
			sum/float64(len(queries)), maxOver, maxBlk)
	}
	return []*Table{t}, nil
}

// E5 measures the Lemma 1 small structure.
func E5(quick bool) ([]*Table, error) {
	t := &Table{
		Title:  "E5: Lemma 1 structure on B^2 points",
		Note:   "space O(B) blocks, catalog O(1) blocks, query O(t+1)+catalog I/Os, update O(1) amortized",
		Header: []string{"B", "N=B^2", "blocks", "blocks/(N/B)", "catalog pages", "build I/Os /B", "avg query I/O", "avg query t", "upd I/O amort"},
	}
	bs := []int{16, 32, 64}
	if quick {
		bs = []int{8, 16}
	}
	for _, b := range bs {
		store := eio.NewMemStore(b * eio.PointSize)
		n := b * b
		pts := Uniform(5, n, int64(4*n))
		store.ResetStats()
		s, err := smallstruct.Create(store, 2, pts)
		if err != nil {
			return nil, err
		}
		buildIOs := float64(store.Stats().IOs()) / float64(b)
		blocks, err := s.Blocks()
		if err != nil {
			return nil, err
		}
		cat, err := s.CatalogPages()
		if err != nil {
			return nil, err
		}
		queries := Queries3(6, 300, int64(4*n), 0.2)
		var qio, qt float64
		for _, q := range queries {
			store.ResetStats()
			res, err := s.Query3(nil, q)
			if err != nil {
				return nil, err
			}
			qio += float64(store.Stats().Reads)
			qt += float64((len(res) + b - 1) / b)
		}
		// Updates: delete/insert churn.
		rng := rand.New(rand.NewSource(7))
		store.ResetStats()
		ops := 500
		for i := 0; i < ops; i++ {
			p := pts[rng.Intn(len(pts))]
			found, err := s.Delete(p)
			if err != nil {
				return nil, err
			}
			if found {
				if err := s.Insert(p); err != nil {
					return nil, err
				}
			}
		}
		updIO := float64(store.Stats().IOs()) / float64(2*ops)
		t.AddRow(b, n, blocks, float64(blocks)/float64(n/b), cat, buildIOs,
			qio/float64(len(queries)), qt/float64(len(queries)), updIO)
	}

	// Rebuild-threshold ablation: smaller buffers rebuild more often
	// (dearer updates) but keep queries lean; larger buffers invert it.
	t2 := &Table{
		Title:  "E5b: rebuild-threshold ablation (B = 32)",
		Note:   "update buffer capacity that triggers the O(N/B)-I/O rebuild; default B/2",
		Header: []string{"buffer cap", "avg query I/O", "upd I/O amort"},
	}
	for _, cap := range []int{4, 16, 32, 64} {
		b := 32
		store := eio.NewMemStore(b * eio.PointSize)
		// Genuine turnover (delete old, insert fresh) so the buffer
		// actually accumulates; same-point reinserts would cancel their
		// own tombstones and never trip any threshold.
		all := Uniform(5, b*b+800, int64(16*b*b))
		pts := all[:b*b]
		fresh := all[b*b:]
		s, err := smallstruct.Create(store, 2, pts)
		if err != nil {
			return nil, err
		}
		s.SetBufferCap(cap)
		store.ResetStats()
		for i := 0; i < len(fresh); i++ {
			if _, err := s.Delete(pts[i]); err != nil {
				return nil, err
			}
			if err := s.Insert(fresh[i]); err != nil {
				return nil, err
			}
		}
		updIO := float64(store.Stats().IOs()) / float64(2*len(fresh))
		queries := Queries3(6, 200, int64(4*b*b), 0.2)
		var qio float64
		for _, q := range queries {
			store.ResetStats()
			if _, err := s.Query3(nil, q); err != nil {
				return nil, err
			}
			qio += float64(store.Stats().Reads)
		}
		t2.AddRow(cap, qio/float64(len(queries)), updIO)
	}
	return []*Table{t, t2}, nil
}

// E6 measures weight-balanced B-tree operation costs against log_B N.
func E6(quick bool) ([]*Table, error) {
	t := &Table{
		Title:  "E6: weight-balanced B-tree (Lemma 3)",
		Note:   "search/insert in O(log_B N) I/Os; page size 4096 (B=256)",
		Header: []string{"N", "height", "log_B N", "search I/O", "insert I/O amort", "pages*B/N"},
	}
	sizes := []int{10000, 50000, 200000}
	if quick {
		sizes = []int{5000, 20000}
	}
	for _, n := range sizes {
		store := eio.NewMemStore(4096)
		tr, err := wbtree.Create(store, 0, 0)
		if err != nil {
			return nil, err
		}
		pts := Uniform(8, n+n/10, int64(n)*8)
		geom.SortByX(pts[:n])
		if err := tr.BulkLoad(pts[:n]); err != nil {
			return nil, err
		}
		h, err := tr.Height()
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(9))
		store.ResetStats()
		for i := 0; i < 200; i++ {
			if _, err := tr.Contains(pts[rng.Intn(n)]); err != nil {
				return nil, err
			}
		}
		search := float64(store.Stats().Reads) / 200
		store.ResetStats()
		ins := 0
		for _, p := range pts[n:] {
			if err := tr.Insert(p); err == nil {
				ins++
			}
		}
		insert := float64(store.Stats().IOs()) / float64(ins)
		t.AddRow(n, h, math.Log(float64(n))/math.Log(256),
			search, insert, float64(store.Pages()*256)/float64(n))
	}
	return []*Table{t}, nil
}

// buildEPST builds an EPST over pts on a fresh store of the given page
// size.
func buildEPST(pageSize int, pts []geom.Point) (*eio.MemStore, *epst.Tree, error) {
	store := eio.NewMemStore(pageSize)
	tr, err := epst.Build(store, epst.Options{}, pts)
	return store, tr, err
}

// E7 measures EPST query cost and space.
func E7(quick bool) ([]*Table, error) {
	t := &Table{
		Title:  "E7: external priority search tree queries (Theorem 6)",
		Note:   "3-sided query O(log_B N + t) I/Os, space O(n) blocks; B=64 (page 1024)",
		Header: []string{"N", "height", "empty-q I/O", "sel 0.1% I/O", "sel 1% I/O", "sel 10% I/O", "I/O per t-block @10%", "pages*B/N"},
	}
	sizes := []int{20000, 80000, 320000}
	if quick {
		sizes = []int{10000, 40000}
	}
	for _, n := range sizes {
		pts := Uniform(11, n, int64(n)*4)
		store, tr, err := buildEPST(1024, pts)
		if err != nil {
			return nil, err
		}
		h, err := tr.Height()
		if err != nil {
			return nil, err
		}
		b := tr.B()
		measure := func(frac float64) (avgIO, avgPerT float64) {
			queries := Queries3(13, 60, int64(n)*4, frac)
			var io, per float64
			cnt := 0
			for _, q := range queries {
				store.ResetStats()
				res, err := tr.Query3(nil, q)
				if err != nil {
					return 0, 0
				}
				r := float64(store.Stats().Reads)
				io += r
				if tb := (len(res) + b - 1) / b; tb > 0 {
					per += r / float64(tb)
					cnt++
				}
			}
			if cnt == 0 {
				cnt = 1
			}
			return io / float64(len(queries)), per / float64(cnt)
		}
		// Empty queries: x-window below the domain.
		store.ResetStats()
		emptyIO := 0.0
		for i := 0; i < 20; i++ {
			store.ResetStats()
			if _, err := tr.Query3(nil, geom.Query3{XLo: -100 - int64(i), XHi: -100 - int64(i), YLo: 0}); err != nil {
				return nil, err
			}
			emptyIO += float64(store.Stats().Reads)
		}
		io01, _ := measure(0.001)
		io1, _ := measure(0.01)
		io10, per10 := measure(0.1)
		t.AddRow(n, h, emptyIO/20, io01, io1, io10, per10, float64(store.Pages()*b)/float64(n))
	}
	return []*Table{t}, nil
}

// E8 measures EPST update costs.
func E8(quick bool) ([]*Table, error) {
	t := &Table{
		Title:  "E8: external priority search tree updates (Theorem 6)",
		Note:   "insert/delete O(log_B N) I/Os amortized; B=64",
		Header: []string{"N", "height", "log_B N", "insert I/O amort", "delete I/O amort"},
	}
	sizes := []int{20000, 80000}
	if quick {
		sizes = []int{8000, 30000}
	}
	for _, n := range sizes {
		pts := Uniform(17, n+2000, int64(n)*4)
		store, tr, err := buildEPST(1024, pts[:n])
		if err != nil {
			return nil, err
		}
		h, err := tr.Height()
		if err != nil {
			return nil, err
		}
		store.ResetStats()
		for _, p := range pts[n:] {
			if err := tr.Insert(p); err != nil {
				return nil, err
			}
		}
		ins := float64(store.Stats().IOs()) / 2000
		store.ResetStats()
		for _, p := range pts[:2000] {
			if _, err := tr.Delete(p); err != nil {
				return nil, err
			}
		}
		del := float64(store.Stats().IOs()) / 2000
		t.AddRow(n, h, math.Log(float64(n))/math.Log(64), ins, del)
	}
	return []*Table{t}, nil
}

// E9 measures interval stabbing via the diagonal-corner reduction.
func E9(quick bool) ([]*Table, error) {
	t := &Table{
		Title:  "E9: dynamic interval management (stabbing via diagonal corner)",
		Note:   "stab O(log_B N + t) I/Os, update O(log_B N); B=64",
		Header: []string{"N", "avg stab t", "stab I/O avg", "stab I/O max", "insert I/O amort"},
	}
	sizes := []int{20000, 80000}
	if quick {
		sizes = []int{8000, 30000}
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(19))
		domain := int64(n) * 8
		seen := map[geom.Interval]bool{}
		ivs := make([]geom.Interval, 0, n+1000)
		for len(ivs) < n+1000 {
			lo := rng.Int63n(domain)
			iv := geom.Interval{Lo: lo, Hi: min64(lo+rng.Int63n(domain/100+1), domain-1)}
			if !seen[iv] {
				seen[iv] = true
				ivs = append(ivs, iv)
			}
		}
		store := eio.NewMemStore(1024)
		s, err := interval.Build(store, epst.Options{}, ivs[:n])
		if err != nil {
			return nil, err
		}
		var ioSum, ioMax, tSum float64
		for i := 0; i < 100; i++ {
			q := rng.Int63n(domain)
			store.ResetStats()
			res, err := s.Stab(nil, q)
			if err != nil {
				return nil, err
			}
			r := float64(store.Stats().Reads)
			ioSum += r
			if r > ioMax {
				ioMax = r
			}
			tSum += float64(len(res))
		}
		store.ResetStats()
		for _, iv := range ivs[n:] {
			if err := s.Insert(iv); err != nil {
				return nil, err
			}
		}
		ins := float64(store.Stats().IOs()) / 1000
		t.AddRow(n, tSum/100, ioSum/100, ioMax, ins)
	}

	// Second table: the dynamic Set (priority search tree via diagonal
	// corner) vs the static Arge–Vitter slab tree on the same workload.
	t2 := &Table{
		Title:  "E9b: stabbing — diagonal-corner EPST vs Arge-Vitter slab tree (static)",
		Note:   "same intervals and queries; both O(log_B N + t) I/Os, B=64",
		Header: []string{"N", "avg t", "set I/O avg", "slab I/O avg", "set pages", "slab pages"},
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(19))
		domain := int64(n) * 8
		seen := map[geom.Interval]bool{}
		ivs := make([]geom.Interval, 0, n)
		for len(ivs) < n {
			lo := rng.Int63n(domain)
			iv := geom.Interval{Lo: lo, Hi: min64(lo+rng.Int63n(domain/100+1), domain-1)}
			if !seen[iv] {
				seen[iv] = true
				ivs = append(ivs, iv)
			}
		}
		setStore := eio.NewMemStore(1024)
		set, err := interval.Build(setStore, epst.Options{}, ivs)
		if err != nil {
			return nil, err
		}
		slabStore := eio.NewMemStore(1024)
		slab, err := interval.BuildSlabTree(slabStore, ivs)
		if err != nil {
			return nil, err
		}
		var setIO, slabIO, tSum float64
		for i := 0; i < 100; i++ {
			q := rng.Int63n(domain)
			setStore.ResetStats()
			a, err := set.Stab(nil, q)
			if err != nil {
				return nil, err
			}
			setIO += float64(setStore.Stats().Reads)
			slabStore.ResetStats()
			b, err := slab.Stab(nil, q)
			if err != nil {
				return nil, err
			}
			slabIO += float64(slabStore.Stats().Reads)
			if len(a) != len(b) {
				return nil, fmt.Errorf("e9b: implementations disagree (%d vs %d)", len(a), len(b))
			}
			tSum += float64(len(a))
		}
		t2.AddRow(n, tSum/100, setIO/100, slabIO/100, setStore.Pages(), slabStore.Pages())
	}
	return []*Table{t, t2}, nil
}

// E10 measures the 4-sided structure.
func E10(quick bool) ([]*Table, error) {
	t := &Table{
		Title:  "E10: dynamic 4-sided structure (Theorem 7)",
		Note:   "query O(log_B N + t)-shaped (entry-search note in DESIGN.md), space O(n log n/loglog_B N); B=64",
		Header: []string{"N", "levels", "empty-q I/O", "sel 1% I/O", "sel 10% I/O", "I/O per t-block @10%", "pages*B/N", "insert I/O"},
	}
	sizes := []int{20000, 60000}
	if quick {
		sizes = []int{6000, 20000}
	}
	for _, n := range sizes {
		pts := Uniform(23, n+500, int64(n)*4)
		store := eio.NewMemStore(1024)
		tr, err := range4.Build(store, range4.Options{}, pts[:n])
		if err != nil {
			return nil, err
		}
		st, err := tr.Space()
		if err != nil {
			return nil, err
		}
		b := 64
		measure := func(frac float64) (avgIO, perT float64) {
			queries := Queries4(29, 40, int64(n)*4, frac, frac)
			var io, per float64
			cnt := 0
			for _, q := range queries {
				store.ResetStats()
				res, err := tr.Query4(nil, q)
				if err != nil {
					return 0, 0
				}
				r := float64(store.Stats().Reads)
				io += r
				if tb := (len(res) + b - 1) / b; tb > 0 {
					per += r / float64(tb)
					cnt++
				}
			}
			if cnt == 0 {
				cnt = 1
			}
			return io / float64(len(queries)), per / float64(cnt)
		}
		var emptyIO float64
		for i := 0; i < 10; i++ {
			store.ResetStats()
			if _, err := tr.Query4(nil, geom.Rect{XLo: -10 - int64(i), XHi: -10 - int64(i), YLo: 0, YHi: 10}); err != nil {
				return nil, err
			}
			emptyIO += float64(store.Stats().Reads)
		}
		io1, _ := measure(0.01)
		io10, per10 := measure(0.1)
		store.ResetStats()
		for _, p := range pts[n:] {
			if err := tr.Insert(p); err != nil {
				return nil, err
			}
		}
		ins := float64(store.Stats().IOs()) / 500
		t.AddRow(n, st.Levels, emptyIO/10, io1, io10, per10,
			float64(st.Pages*st.B)/float64(st.Points), ins)
	}
	return []*Table{t}, nil
}

// E11 pits the paper's structures against the baselines on the query shape
// the introduction motivates: wide in x, selective in y.
func E11(quick bool) ([]*Table, error) {
	n := 40000
	if quick {
		n = 8000
	}
	domain := int64(n) * 4
	out := []*Table{}
	for _, ds := range []struct {
		name string
		pts  []geom.Point
	}{
		{"uniform", Uniform(31, n, domain)},
		{"diagonal", Diagonal(37, n, domain)},
	} {
		t := &Table{
			Title:  fmt.Sprintf("E11: query I/Os, %s data, N=%d, B=64", ds.name, n),
			Note:   "3-sided queries: full x-range, y >= c (~1% selective); all structures suffer 30% insert + 10% delete/reinsert churn first (the intro: heuristics 'deteriorate after repeated updates')",
			Header: []string{"structure", "space pages*B/N", "avg query I/O", "max query I/O", "avg t-blocks"},
		}
		// Queries: x-wide, y-selective 3-sided.
		rng := rand.New(rand.NewSource(41))
		queries := make([]geom.Rect, 50)
		for i := range queries {
			c := domain - domain/100 - rng.Int63n(domain/50+1)
			queries[i] = geom.Rect{XLo: 0, XHi: domain, YLo: c, YHi: geom.MaxCoord}
		}
		// Every candidate is loaded the same way: 70% bulk, 30% inserted
		// one by one, then 10% of the points deleted and reinserted.
		bulkN := len(ds.pts) * 7 / 10
		type candidate struct {
			query  func(dst []geom.Point, q geom.Rect) ([]geom.Point, error)
			insert func(geom.Point) error
			delete func(geom.Point) (bool, error)
		}
		run := func(name string, build func(store eio.Store, bulk []geom.Point) (candidate, error)) error {
			store := eio.NewMemStore(1024)
			c, err := build(store, ds.pts[:bulkN])
			if err != nil {
				return err
			}
			for _, p := range ds.pts[bulkN:] {
				if err := c.insert(p); err != nil {
					return err
				}
			}
			churn := rand.New(rand.NewSource(45))
			for i := 0; i < len(ds.pts)/10; i++ {
				p := ds.pts[churn.Intn(len(ds.pts))]
				found, err := c.delete(p)
				if err != nil {
					return err
				}
				if found {
					if err := c.insert(p); err != nil {
						return err
					}
				}
			}
			var ioSum, ioMax, tSum float64
			for _, q := range queries {
				store.ResetStats()
				res, err := c.query(nil, q)
				if err != nil {
					return err
				}
				r := float64(store.Stats().Reads)
				ioSum += r
				if r > ioMax {
					ioMax = r
				}
				tSum += float64((len(res) + 63) / 64)
			}
			t.AddRow(name, float64(store.Pages()*64)/float64(n),
				ioSum/float64(len(queries)), ioMax, tSum/float64(len(queries)))
			return nil
		}
		fromIndex := func(s baseline.Index, bulk []geom.Point) (candidate, error) {
			for _, p := range bulk {
				if err := s.Insert(p); err != nil {
					return candidate{}, err
				}
			}
			return candidate{query: s.Query, insert: s.Insert, delete: s.Delete}, nil
		}
		if err := run("epst (paper)", func(store eio.Store, bulk []geom.Point) (candidate, error) {
			tr, err := epst.Build(store, epst.Options{}, bulk)
			if err != nil {
				return candidate{}, err
			}
			return candidate{
				query: func(dst []geom.Point, q geom.Rect) ([]geom.Point, error) {
					return tr.Query3(dst, geom.Query3{XLo: q.XLo, XHi: q.XHi, YLo: q.YLo})
				},
				insert: tr.Insert,
				delete: tr.Delete,
			}, nil
		}); err != nil {
			return nil, err
		}
		if err := run("scan", func(store eio.Store, bulk []geom.Point) (candidate, error) {
			s, err := baseline.NewScan(store)
			if err != nil {
				return candidate{}, err
			}
			return fromIndex(s, bulk)
		}); err != nil {
			return nil, err
		}
		if err := run("x-btree", func(store eio.Store, bulk []geom.Point) (candidate, error) {
			s, err := baseline.BuildXTree(store, bulk)
			if err != nil {
				return candidate{}, err
			}
			return candidate{query: s.Query, insert: s.Insert, delete: s.Delete}, nil
		}); err != nil {
			return nil, err
		}
		if err := run("kd-tree", func(store eio.Store, bulk []geom.Point) (candidate, error) {
			s, err := baseline.NewKDTree(store, 0)
			if err != nil {
				return candidate{}, err
			}
			return fromIndex(s, bulk)
		}); err != nil {
			return nil, err
		}
		if err := run("r-tree", func(store eio.Store, bulk []geom.Point) (candidate, error) {
			s, err := baseline.BuildRTree(store, 0, bulk)
			if err != nil {
				return candidate{}, err
			}
			return candidate{query: s.Query, insert: s.Insert, delete: s.Delete}, nil
		}); err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// E12 measures the per-insert I/O distribution of the amortized EPST —
// the tail the worst-case scheduling methods of Section 3.3.3 flatten.
func E12(quick bool) ([]*Table, error) {
	n := 30000
	if quick {
		n = 8000
	}
	pts := Uniform(47, n, int64(n)*4)
	store := eio.NewMemStore(1024)
	tr, err := epst.Create(store, epst.Options{})
	if err != nil {
		return nil, err
	}
	costs := make([]float64, 0, n)
	for _, p := range pts {
		before := store.Stats().IOs()
		if err := tr.Insert(p); err != nil {
			return nil, err
		}
		costs = append(costs, float64(store.Stats().IOs()-before))
	}
	ps := Percentiles(costs, 0.50, 0.90, 0.99, 0.999, 1.0)
	t := &Table{
		Title:  "E12: per-insert I/O distribution (amortized EPST)",
		Note:   "spikes = base-tree splits with Y-set reorganizations; §3.3.3's three scheduling methods exist to flatten this tail to O(log_B N) worst-case",
		Header: []string{"N", "mean", "p50", "p90", "p99", "p99.9", "max"},
	}
	t.AddRow(n, Mean(costs), ps[0], ps[1], ps[2], ps[3], ps[4])
	return []*Table{t}, nil
}

// E13 is the design-choice ablation DESIGN.md calls for: the external
// priority search tree's branching parameter a and leaf parameter k, and
// the small structure's sweep parameter α, swept on a fixed workload.
func E13(quick bool) ([]*Table, error) {
	n := 40000
	if quick {
		n = 10000
	}
	pts := Uniform(53, n, int64(n)*4)
	queries := Queries3(54, 60, int64(n)*4, 0.02)

	t := &Table{
		Title:  "E13: EPST parameter ablation (a, k, alpha)",
		Note:   fmt.Sprintf("N=%d B=64; avg query I/O at ~2%% x-window, amortized insert I/O over 1000 ops, space factor", n),
		Header: []string{"a", "k", "alpha", "height", "query I/O", "insert I/O", "pages*B/N"},
	}
	type cfg struct{ a, k, alpha int }
	cfgs := []cfg{
		{8, 64, 2}, {16, 64, 2}, {32, 64, 2}, // branching sweep
		{16, 16, 2}, {16, 128, 2}, // leaf sweep
		{16, 64, 3}, {16, 64, 6}, // alpha sweep
	}
	if quick {
		cfgs = cfgs[:4]
	}
	extra := Uniform(55, 1000, int64(n)*4)
	for _, c := range cfgs {
		store := eio.NewMemStore(1024)
		tr, err := epst.Build(store, epst.Options{A: c.a, K: c.k, Alpha: c.alpha}, pts)
		if err != nil {
			return nil, err
		}
		h, err := tr.Height()
		if err != nil {
			return nil, err
		}
		var qio float64
		for _, q := range queries {
			store.ResetStats()
			if _, err := tr.Query3(nil, q); err != nil {
				return nil, err
			}
			qio += float64(store.Stats().Reads)
		}
		qio /= float64(len(queries))
		store.ResetStats()
		ins := 0
		for _, p := range extra {
			if err := tr.Insert(p); err == nil {
				ins++
			}
		}
		insIO := float64(store.Stats().IOs()) / float64(ins)
		t.AddRow(c.a, c.k, c.alpha, h, qio, insIO, float64(store.Pages()*64)/float64(n))
	}
	return []*Table{t}, nil
}
