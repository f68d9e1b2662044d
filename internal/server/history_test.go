package server

import (
	"sync"
	"testing"
	"time"

	"rangesearch/internal/core"
	"rangesearch/internal/geom"
	"rangesearch/internal/trace"
)

// Hand-written histories for checkHistory. Two pool points: p (rank 0)
// and q (rank 1); times are ns since the run began.
var (
	histP    = geom.Point{X: 10, Y: 10}
	histQ    = geom.Point{X: 20, Y: 20}
	rectP    = geom.Rect{XLo: 0, XHi: 15, YLo: 0, YHi: 15}
	histPool = &keyPool{pts: []geom.Point{histP, histQ}, rank: map[geom.Point]int32{histP: 0, histQ: 1}}
)

func hIns(p geom.Point, inv, ret int64, dup bool) histOp {
	return histOp{req: Request{Op: OpInsert, P: p}, inv: inv, ret: ret, outcome: outOK, flag: dup}
}

func hDel(p geom.Point, inv, ret int64, found bool) histOp {
	return histOp{req: Request{Op: OpDelete, P: p}, inv: inv, ret: ret, outcome: outOK, flag: found}
}

// hRead is a QUERY3 over rectP that reported p iff present.
func hRead(inv, ret int64, present bool) histOp {
	h := histOp{req: Request{Op: OpQuery3, Rect: rectP}, inv: inv, ret: ret, outcome: outOK}
	if present {
		h.present = []int32{0}
	}
	return h
}

func timedOut(h histOp) histOp { h.outcome = outUnknown; return h }
func resent(h histOp) histOp   { h.retried = true; return h }

func TestHistoryChecker(t *testing.T) {
	type worker = []histOp
	cases := []struct {
		name         string
		hists        []worker
		nonEmpty     bool // the index held points before the run
		replicaReads bool
		bad          bool
	}{
		{
			// A duplicate ack: two clients both told their insert was new.
			name: "overlapping fresh inserts, no delete between",
			hists: []worker{
				{hIns(histP, 0, 10, false)},
				{hIns(histP, 5, 15, false)},
			},
			bad: true,
		},
		{
			name: "overlapping inserts, the second a duplicate",
			hists: []worker{
				{hIns(histP, 0, 10, false)},
				{hIns(histP, 5, 15, true)},
			},
		},
		{
			// A replay-order bug: an acked delete undone by a replayed insert.
			name: "acked insert, later acked delete, later read sees the point",
			hists: []worker{
				{hIns(histP, 0, 1, false), hDel(histP, 2, 3, true)},
				{hRead(4, 5, true)},
			},
			bad: true,
		},
		{
			name:  "duplicate insert of a point never inserted",
			hists: []worker{{hIns(histP, 0, 1, true)}},
			bad:   true,
		},
		{
			name: "acked insert, later acked delete, later read misses the point",
			hists: []worker{
				{hIns(histP, 0, 1, false), hDel(histP, 2, 3, true)},
				{hRead(4, 5, false)},
			},
		},
		{
			name: "read concurrent with the delete may still see the point",
			hists: []worker{
				{hIns(histP, 0, 1, false), hDel(histP, 2, 6, true)},
				{hRead(4, 5, true)},
			},
		},
		{
			// A timed-out request runs detached and may land after later
			// requests on its connection.
			name: "timed-out insert lands after a later acked delete",
			hists: []worker{
				{hIns(histP, 0, 1, false), timedOut(hIns(histP, 2, 3, false))},
				{hDel(histP, 4, 5, true), hRead(6, 7, true)},
			},
		},
		{
			name: "timed-out insert cannot land before its invoke",
			hists: []worker{
				{hIns(histP, 0, 1, false), hDel(histP, 2, 3, true), hRead(4, 5, true)},
				{timedOut(hIns(histP, 6, 7, false))},
			},
			bad: true,
		},
		{
			name: "timed-out insert lands at most once",
			hists: []worker{
				{timedOut(hIns(histP, 0, 1, false)), hRead(2, 3, true), hDel(histP, 4, 5, true), hRead(6, 7, true)},
			},
			bad: true,
		},
		{
			name: "re-sent timed-out insert may land again",
			hists: []worker{
				{resent(timedOut(hIns(histP, 0, 1, false))), hRead(2, 3, true), hDel(histP, 4, 5, true), hRead(6, 7, true)},
			},
		},
		{
			name: "re-sent acked insert may take effect on both sides of a delete",
			hists: []worker{
				{resent(hIns(histP, 0, 10, false)), hRead(11, 12, true)},
				{hDel(histP, 2, 3, true)},
			},
		},
		{
			name: "an insert sent once takes effect once",
			hists: []worker{
				{hIns(histP, 0, 10, false), hRead(11, 12, true)},
				{hDel(histP, 2, 3, true)},
			},
			bad: true,
		},
		{
			name: "re-sent acked insert must take effect inside its window",
			hists: []worker{
				{resent(hIns(histP, 0, 1, false)), hRead(2, 3, false)},
			},
			bad: true,
		},
		{
			// The worker's latest acked write (q, invoked at 4) postdates the
			// delete of p, so a replica that has applied it cannot show p.
			name: "replica read older than the worker's last acked write",
			hists: []worker{
				{hIns(histP, 0, 1, false), hIns(histQ, 4, 5, false), hRead(6, 7, true)},
				{hDel(histP, 2, 3, true)},
			},
			replicaReads: true,
			bad:          true,
		},
		{
			name: "replica read no older than the worker's last acked write",
			hists: []worker{
				{hIns(histP, 0, 1, false), hRead(6, 7, true)},
				{hDel(histP, 2, 3, true)},
			},
			replicaReads: true,
		},
		{
			name: "the same read from the primary must see the delete",
			hists: []worker{
				{hIns(histP, 0, 1, false), hRead(6, 7, true)},
				{hDel(histP, 2, 3, true)},
			},
			bad: true,
		},
		{
			name:     "a point never written may be present when the index started non-empty",
			hists:    []worker{{hRead(0, 1, true), hDel(histP, 2, 3, true)}},
			nonEmpty: true,
		},
		{
			name:  "a point never written is absent when the index started empty",
			hists: []worker{{hRead(0, 1, true)}},
			bad:   true,
		},
		{
			name: "shed write had no effect",
			hists: []worker{{
				hIns(histP, 0, 1, false),
				{req: Request{Op: OpDelete, P: histP}, inv: 2, ret: 3, outcome: outShed},
				hRead(4, 5, true),
			}},
		},
		{
			name: "batch entries are separate ops with the batch's window",
			hists: []worker{{
				{req: Request{Op: OpBatch, Batch: []BatchEntry{{Kind: BatchInsert, P: histP}, {Kind: BatchDelete, P: histQ}}},
					inv: 0, ret: 1, outcome: outOK, codes: []byte{BatchOK, BatchNotFound}},
				hIns(histP, 2, 3, true),
				hDel(histQ, 4, 5, true),
			}},
			bad: true, // q was never inserted, so its delete cannot find it
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := checkHistory(histPool, tc.hists, !tc.nonEmpty, tc.replicaReads)
			if got := v.violations > 0; got != tc.bad {
				t.Fatalf("violations = %d (first: %v), want bad = %v", v.violations, v.first, tc.bad)
			}
		})
	}
}

// liar serves an engine honestly except for one lie, named by mode.
type liar struct {
	core.Engine
	mode string

	mu   sync.Mutex
	lied bool
	// writes counts each point's writes: a write lie picks a point written
	// a few times before, one the skewed load is sure to touch again.
	writes map[geom.Point]int
	// last is, per point, whether its last effective write inserted it and
	// when; the stale-query lie picks a point from it.
	last map[geom.Point]lastWrite
}

type lastWrite struct {
	insert bool
	at     time.Time
}

func (l *liar) Apply(ops []core.BatchOp, sp *trace.Span) []core.BatchResult {
	l.mu.Lock()
	defer l.mu.Unlock()
	hot := len(ops) == 1 && l.writes[ops[0].P] >= 3
	for _, op := range ops {
		l.writes[op.P]++
	}
	if l.mode == "acks an insert it never applies" && !l.lied && hot && !ops[0].Delete {
		l.lied = true
		return []core.BatchResult{{}}
	}
	res := l.Engine.Apply(ops, sp)
	for i, op := range ops {
		if res[i].Err != nil || (op.Delete && !res[i].Found) {
			continue
		}
		if l.mode == "reports a removed point not found" && !l.lied && hot && op.Delete {
			l.lied = true
			res[i].Found = false
		}
		l.last[op.P] = lastWrite{insert: !op.Delete, at: time.Now()}
	}
	return res
}

func (l *liar) Report(dst []geom.Point, q geom.Rect, sp *trace.Span) ([]geom.Point, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	res, err := l.Engine.Report(dst, q, sp)
	if err != nil || l.mode != "answers a query from before an acked write" || l.lied {
		return res, err
	}
	// A write applied this long ago was acked before the query was sent,
	// even under the race detector.
	for p, w := range l.last {
		if !q.Contains(p) || time.Since(w.at) < 200*time.Millisecond {
			continue
		}
		l.lied = true
		if !w.insert {
			return append(res, p), nil
		}
		for i := range res {
			if res[i] == p {
				return append(res[:i], res[i+1:]...), nil
			}
		}
	}
	return res, nil
}

// TestLyingEngineFailsVerifiedLoad checks that the verified load catches a
// server that lies once: each liar must fail a 4-worker, pipeline-8
// verified run, and the honest engine must pass it.
func TestLyingEngineFailsVerifiedLoad(t *testing.T) {
	for _, mode := range []string{
		"honest",
		"acks an insert it never applies",
		"reports a removed point not found",
		"answers a query from before an acked write",
	} {
		t.Run(mode, func(t *testing.T) {
			var l *liar
			ts := newTestServerWith(t, Config{}, func(e core.Engine) core.Engine {
				l = &liar{Engine: e, mode: mode, writes: map[geom.Point]int{}, last: map[geom.Point]lastWrite{}}
				return l
			})
			rep, err := RunLoad(LoadConfig{
				Addr:     ts.addr,
				Workers:  4,
				Pipeline: 8,
				Duration: 700 * time.Millisecond,
				Verify:   true,
				Domain:   1 << 16,
				Dist:     "zipf",
				Seed:     5,
			})
			if err != nil {
				t.Fatalf("RunLoad: %v", err)
			}
			ts.shutdown(t)
			l.mu.Lock()
			lied := l.lied
			l.mu.Unlock()
			t.Logf("%d ops, same-key overlap %.3f, consistency errors %d, first: %s",
				rep.Ops, rep.SameKeyOverlap, rep.ConsistencyErrors, rep.FirstError)
			if rep.ProtoErrors > 0 || rep.TransportErrors > 0 {
				t.Fatalf("proto=%d transport=%d first=%s", rep.ProtoErrors, rep.TransportErrors, rep.FirstError)
			}
			if mode == "honest" {
				if rep.ConsistencyErrors > 0 {
					t.Fatalf("honest engine failed the check: %s", rep.FirstError)
				}
				return
			}
			if !lied {
				t.Fatal("the engine never got to lie")
			}
			if rep.ConsistencyErrors == 0 {
				t.Fatal("the verified load did not catch the lie")
			}
		})
	}
}

// TestLoadBatchEveryCountsDrawnWrites pins BatchEvery to the writes drawn,
// not the writes acked: with a pipeline, acks lag draws, and every write
// drawn between two acks used to become a BATCH.
func TestLoadBatchEveryCountsDrawnWrites(t *testing.T) {
	m := &Metrics{}
	ts := newTestServer(t, Config{Metrics: m})
	if _, err := RunLoad(LoadConfig{
		Addr:       ts.addr,
		Workers:    1,
		Pipeline:   8,
		Duration:   300 * time.Millisecond,
		BatchEvery: 10,
		BatchSize:  4,
		Seed:       3,
	}); err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	ts.shutdown(t)
	batches := m.ops[OpBatch].count.Load()
	drawn := m.ops[OpInsert].count.Load() + m.ops[OpDelete].count.Load() + batches
	if drawn < 100 {
		t.Fatalf("only %d writes drawn", drawn)
	}
	if got, want := batches, drawn/10; got != want {
		t.Fatalf("%d BATCH requests for %d drawn writes, want %d", got, drawn, want)
	}
}
