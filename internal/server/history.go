package server

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"rangesearch/internal/dist"
	"rangesearch/internal/geom"
)

// loadPoolSize is the number of points all writes draw from: few enough
// that workers meet on one point, enough that a 3-sided query covers some.
const loadPoolSize = 1024

// keyPool is the set of points all workers write, drawn from the run's
// seed. draw picks a rank (rank 0 is the hottest under skew); zipf and
// hotspot are stateless in the RNG, so one pool serves every worker.
type keyPool struct {
	pts     []geom.Point
	rank    map[geom.Point]int32
	zipf    *dist.Zipfian
	hotspot *dist.Hotspot
}

func newKeyPool(cfg LoadConfig) (*keyPool, error) {
	n := int64(loadPoolSize)
	if cfg.Domain < 64 && cfg.Domain*cfg.Domain < n {
		n = cfg.Domain * cfg.Domain
	}
	src := rand.NewSource(cfg.Seed)
	kp := &keyPool{rank: make(map[geom.Point]int32, n)}
	for int64(len(kp.pts)) < n {
		p := geom.Point{X: src.Int63() % cfg.Domain, Y: src.Int63() % cfg.Domain}
		if _, dup := kp.rank[p]; !dup {
			kp.rank[p] = int32(len(kp.pts))
			kp.pts = append(kp.pts, p)
		}
	}
	var err error
	switch cfg.Dist {
	case "zipf":
		kp.zipf, err = dist.NewZipfian(n, cfg.Theta)
	case "hotspot":
		kp.hotspot, err = dist.NewHotspot(n, 0.1, 0.9)
	}
	return kp, err
}

func (kp *keyPool) draw(rng *rand.Rand) geom.Point {
	var rank int64
	switch {
	case kp.zipf != nil:
		rank = kp.zipf.Next(rng.Float64())
	case kp.hotspot != nil:
		rank = kp.hotspot.Next(rng.Float64(), rng.Float64())
	default:
		rank = rng.Int63n(int64(len(kp.pts)))
	}
	return kp.pts[rank]
}

// Outcomes of a recorded operation: unknown (no answer, TIMEOUT or ERR,
// so it may have run), OK, or shed (BUSY, DISKFULL, STALE or NOTPRIMARY
// to a request never re-sent, so no attempt ran).
const (
	outUnknown byte = iota
	outOK
	outShed
)

// histOp is one operation of a verified run as its worker saw it: inv is
// taken before the send and ret after the answer (or when the worker gave
// up on one), in ns since the run began. retried means it was, or may
// have been, re-sent. flag is an OK answer's Duplicate (INSERT) or Found
// (DELETE), codes a BATCH's, present the pool ranks a query reported.
type histOp struct {
	req           Request
	inv, ret      int64
	outcome       byte
	retried, flag bool
	codes         []byte
	present       []int32
}

// checkHistory checks a verified run (one slice per worker, in send
// order) for linearizability one pool point at a time: linearizability is
// local (Herlihy–Wing), so that checks the whole run. A point is a one-bit
// register that INSERT sets, DELETE clears and a query reads for every
// pool point in its rectangle, at one instant of its window. The rules
// (DESIGN.md, "Verified load", says why):
//   - an acked write sent once takes effect once in [invoke, return], and
//     its Duplicate, Found or BATCH code is the bit just before;
//   - an acked write that was re-sent takes effect once or more in its
//     window, and its code is not checked;
//   - a write with an unknown outcome takes effect after its invoke at
//     most once (any number of times if re-sent), or never;
//   - BATCH entries are separate writes with the batch's window;
//   - with replica reads, a query's window opens at the latest invoke
//     among the writes its worker had seen acked when it sent the query;
//   - a point starts absent if the index started empty, else either way.
func checkHistory(pool *keyPool, hists [][]histOp, startedEmpty, replicaReads bool) historyVerdict {
	perPoint := make([][]regOp, len(pool.pts))
	write := func(h *histOp, p geom.Point, kind int8, prior bool) {
		o := regOp{kind: kind, want: -1, inv: h.inv, ret: h.ret, multi: h.retried}
		switch {
		case h.outcome == outUnknown:
			o.optional = true
		case !h.retried:
			o.want = bit(prior)
		}
		perPoint[pool.rank[p]] = append(perPoint[pool.rank[p]], o)
	}
	for _, hist := range hists {
		var acked []*histOp // writes answered OK, by return time
		for i := range hist {
			if h := &hist[i]; h.outcome == outOK && !isQuery(h.req.Op) {
				acked = append(acked, h)
			}
		}
		sort.Slice(acked, func(a, b int) bool { return acked[a].ret < acked[b].ret })
		var barrier int64 // latest invoke among the writes acked so far
		for i := range hist {
			h := &hist[i]
			for ; len(acked) > 0 && acked[0].ret < h.inv; acked = acked[1:] {
				barrier = max(barrier, acked[0].inv)
			}
			switch {
			case h.outcome == outShed:
			case h.req.Op == OpInsert:
				write(h, h.req.P, regInsert, h.flag)
			case h.req.Op == OpDelete:
				write(h, h.req.P, regDelete, h.flag)
			case h.req.Op == OpBatch:
				for k, e := range h.req.Batch {
					if e.Kind == BatchDelete {
						write(h, e.P, regDelete, h.outcome == outOK && h.codes[k] == BatchOK)
					} else {
						write(h, e.P, regInsert, h.outcome == outOK && h.codes[k] == BatchDup)
					}
				}
			case h.outcome == outOK:
				o := regOp{kind: regRead, inv: h.inv, ret: h.ret}
				if replicaReads {
					o.inv = barrier
				}
				for r, p := range pool.pts {
					if h.req.Rect.Contains(p) {
						o.want = bit(slices.Contains(h.present, int32(r)))
						perPoint[r] = append(perPoint[r], o)
					}
				}
			}
		}
	}

	var v historyVerdict
	for p, ops := range perPoint {
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].inv < ops[j].inv })
		reach := int64(-1) // latest return among ops[:i]
		for i, o := range ops {
			if o.kind != regRead {
				v.writes++
				if o.inv <= reach || (i+1 < len(ops) && ops[i+1].inv <= o.ret) {
					v.overlapped++
				}
			}
			reach = max(reach, o.ret)
		}
		if bad := checkRegister(ops, startedEmpty); bad >= 0 {
			if v.violations++; v.first == nil {
				v.first = fmt.Errorf("point %v: no linearization of its %d ops survives the return of %+v (kind 0 read, 1 insert, 2 delete; ns since the run began)",
					pool.pts[p], len(ops), ops[bad])
			}
		}
	}
	return v
}

// historyVerdict counts the points with no linearization (describing the
// first), the write ops and those that overlapped another op on their point.
type historyVerdict struct {
	violations, writes, overlapped int
	first                          error
}

// Register op kinds.
const (
	regRead int8 = iota
	regInsert
	regDelete
)

// regOp is one operation on one point's register. want is the bit it saw
// (a read's result, a checked write's prior state) or -1. An optional op
// has an unknown outcome: no return event, and it need never take effect.
// A multi op may take effect more than once.
type regOp struct {
	kind, want      int8
	inv, ret        int64
	optional, multi bool
}

// reads reports whether o only observes the bit: a read, or a checked
// write that changes nothing (a duplicate insert, a delete that found
// nothing). Only inserts of an absent point, deletes of a present one and
// unchecked writes are left to order, which keeps the search small.
func (o regOp) reads() bool { return o.kind == regRead || o.want == bit(o.kind == regInsert) }

func bit(b bool) int8 {
	if b {
		return 1
	}
	return 0
}

func isQuery(op byte) bool { return op == OpQuery3 || op == OpQuery4 }

// regState is one configuration of the search: the bit, the optional
// single-shot writes invoked and not yet applied by kind (interchangeable,
// so counted), and the other ops invoked but not yet linearized.
type regState struct {
	bit  bool
	n    [3]int
	open []int
}

// set returns s with the bit written to v, linearizing at once every open
// read that now sees its result: that changes no state and only drops an
// obligation, so it loses no linearization.
func (s regState) set(v bool, ops []regOp) regState {
	s.bit = v
	var open []int
	for _, i := range s.open {
		if !ops[i].reads() || ops[i].want != bit(v) {
			open = append(open, i)
		}
	}
	s.open = open
	return s
}

// checkRegister searches for a linearization of one point's ops (sorted by
// inv) by Lowe's just-in-time method: events in time order (an invoke
// before a return at the same instant), and at each return only the
// configurations that have linearized the returning op survive. It returns
// the op at whose return none does, or -1. A multi op is one mandatory
// effect plus the capability to apply its write again while its window is
// open (forever, if optional).
func checkRegister(ops []regOp, startedEmpty bool) int {
	var rets []int // the ops with a return event, by return time
	for i := range ops {
		if !ops[i].optional {
			rets = append(rets, i)
		}
	}
	sort.SliceStable(rets, func(a, b int) bool { return ops[rets[a]].ret < ops[rets[b]].ret })
	states := []regState{{}}
	if !startedEmpty {
		states = append(states, regState{bit: true})
	}
	var can [3]int // open capabilities by kind
	next := 0
	for _, r := range rets {
		for ; next < len(ops) && ops[next].inv <= ops[r].ret; next++ {
			o := ops[next]
			if o.multi {
				can[o.kind]++
			}
			for k := range states {
				s := &states[k]
				switch {
				case o.optional && o.multi:
				case o.optional:
					s.n[o.kind]++
				case !o.reads() || o.want != bit(s.bit):
					s.open = append(s.open[:len(s.open):len(s.open)], next)
				}
			}
		}
		if states = linearize(states, ops, r, can); len(states) == 0 {
			return r
		}
		if ops[r].multi {
			can[ops[r].kind]--
		}
	}
	return -1
}

// linearize returns the configurations reachable from states in which op r
// has been linearized, with r dropped from open.
func linearize(states []regState, ops []regOp, r int, can [3]int) []regState {
	var out, queue []regState
	seen, done := map[string]bool{}, map[string]bool{}
	add := func(list *[]regState, m map[string]bool, s regState) {
		if k := fmt.Sprint(s); !m[k] {
			m[k] = true
			*list = append(*list, s)
		}
	}
	for _, s := range states {
		add(&queue, seen, s)
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if !slices.Contains(s.open, r) {
			add(&out, done, s)
			continue
		}
		// Open writes of one kind and want differ only in their deadlines,
		// and any schedule can swap them into return order, so only those
		// that return first are tried.
		for k, i := range s.open {
			o := ops[i]
			earlier := func(j int) bool { return ops[j].kind == o.kind && ops[j].want == o.want && ops[j].ret < o.ret }
			if o.reads() || (o.want >= 0 && o.want != bit(s.bit)) || slices.ContainsFunc(s.open, earlier) {
				continue
			}
			n := s
			n.open = append(append([]int(nil), s.open[:k]...), s.open[k+1:]...)
			add(&queue, seen, n.set(o.kind == regInsert, ops))
		}
		for kind := regInsert; kind <= regDelete; kind++ {
			if n := s.set(kind == regInsert, ops); s.n[kind] > 0 {
				n.n[kind]--
				add(&queue, seen, n)
			}
			if can[kind] > 0 {
				add(&queue, seen, s.set(kind == regInsert, ops))
			}
		}
	}
	return out
}
