package bench

import (
	"fmt"

	"rangesearch/internal/core"
	"rangesearch/internal/eio"
	"rangesearch/internal/epst"
	"rangesearch/internal/geom"
	"rangesearch/internal/obs"
	"rangesearch/internal/range4"
)

// CI thresholds for the bound-check smoke job (cmd/rsbench -bound-p95
// uses these as defaults). Generous on purpose: they catch a
// constant-factor regression (or an accidental O(N) scan), not noise.
// Empirically the quick workload sits around p95 ≈ 8–9 for queries and
// p95 ≈ 16–41 for updates (per-op update costs include amortized
// reorganization spikes, see E12).
const (
	CIQueryP95Limit  = 24.0
	CIUpdateP95Limit = 96.0
)

// BoundCheck is experiment e14: it runs ThreeSided (Theorem 6) and
// FourSided (Theorem 7) through an obs.Instrumented decorator and reports
// each operation's I/O overhead relative to its theoretical allowance —
// IOs/(log_B N + ⌈t/B⌉) per query, IOs/log_B N per update. Unlike
// E7/E8/E10, which average costs over a workload, this is the
// per-operation distribution: the p95/max columns are what the CI
// bound-check job thresholds.
func BoundCheck(quick bool) ([]*Table, []obs.BoundReport, error) {
	n, churn, queries := 40000, 2000, 120
	if quick {
		n, churn, queries = 8000, 600, 60
	}
	pageSize := 1024
	b := eio.BlockCapacity(pageSize)
	domain := int64(n) * 4

	t := &Table{
		Title: "E14: empirical bound check (Theorems 6-7)",
		Note: fmt.Sprintf("N=%d B=%d; per-op overhead = IOs/allowance; query allowance log_B N + ceil(t/B); update allowance f*log_B N (f=1 for Thm 6, f=levels for Thm 7); %d churn ops + %d queries each",
			n, b, 2*churn, queries),
		Header: []string{"structure", "op", "n ops", "f", "mean", "p50", "p95", "max"},
	}

	var reports []obs.BoundReport
	addReport := func(rep obs.BoundReport) {
		reports = append(reports, rep)
		for _, row := range []struct {
			op string
			s  obs.Summary
		}{
			{"query", rep.Query},
			{"insert", rep.Insert},
			{"delete", rep.Delete},
		} {
			f := rep.UpdateFactor
			if row.op == "query" {
				f = 1
			}
			t.AddRow(rep.Name, row.op, row.s.Count, f, row.s.Mean, row.s.P50, row.s.P95, row.s.Max)
		}
	}

	// workload drives an instrumented index through churn and queries; the
	// bulk build is done before instrumenting so records cover exactly the
	// dynamic operations the theorems price.
	workload := func(name string, mk func(store eio.Store, bulk []geom.Point) (core.Index, error)) error {
		pts := Uniform(61, n+churn, domain)
		store := eio.NewMemStore(pageSize)
		idx, err := mk(store, pts[:n])
		if err != nil {
			return fmt.Errorf("%s: build: %w", name, err)
		}
		col := obs.NewCollector()
		in, err := obs.Instrument(idx, store, col)
		if err != nil {
			return fmt.Errorf("%s: instrument: %w", name, err)
		}
		for _, p := range pts[n:] {
			if err := in.Insert(p); err != nil {
				return fmt.Errorf("%s: insert: %w", name, err)
			}
		}
		for _, p := range pts[:churn] {
			if _, err := in.Delete(p); err != nil {
				return fmt.Errorf("%s: delete: %w", name, err)
			}
		}
		qs := Queries3(67, queries, domain, 0.05)
		for _, q := range qs {
			rect := geom.Rect{XLo: q.XLo, XHi: q.XHi, YLo: q.YLo, YHi: geom.MaxCoord - 1}
			if _, err := in.Query(nil, rect); err != nil {
				return fmt.Errorf("%s: query: %w", name, err)
			}
		}
		// Theorem 7's update bound carries the structure's level count
		// (every level is an EPST the update must maintain), so the
		// 4-sided allowance is levels * log_B N.
		factor := 1.0
		if fs, ok := idx.(*core.FourSided); ok {
			st, err := fs.Tree().Space()
			if err != nil {
				return fmt.Errorf("%s: space: %w", name, err)
			}
			factor = float64(st.Levels)
		}
		addReport(obs.CheckBoundsOpt(name, col.Records(), obs.BoundOptions{B: b, UpdateFactor: factor}))
		return nil
	}

	if err := workload("ThreeSided", func(store eio.Store, bulk []geom.Point) (core.Index, error) {
		return core.BuildThreeSided(store, epst.Options{}, bulk)
	}); err != nil {
		return nil, nil, err
	}
	if err := workload("FourSided", func(store eio.Store, bulk []geom.Point) (core.Index, error) {
		return core.BuildFourSided(store, range4.Options{}, bulk)
	}); err != nil {
		return nil, nil, err
	}
	return []*Table{t}, reports, nil
}

// E14 adapts BoundCheck to the experiment registry.
func E14(quick bool) ([]*Table, error) {
	tables, _, err := BoundCheck(quick)
	return tables, err
}
