package wbuf

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"rangesearch/internal/core"
	"rangesearch/internal/geom"
	"rangesearch/internal/obs"
	"rangesearch/internal/trace"
)

// Default thresholds: flush when the buffer holds DefaultMaxOps entries
// or its oldest entry is DefaultMaxAge old, whichever comes first.
const (
	DefaultMaxOps     = 4096
	DefaultFlushChunk = 256
)

// DefaultMaxAge bounds how long an acknowledged write may sit in the
// buffer before a background flush folds it into the base structure.
const DefaultMaxAge = 2 * time.Second

// Options tunes a Buffered decorator. The zero value buffers up to
// DefaultMaxOps operations with no journal (not crash-safe — fine for
// purely in-memory stacks and model tests, wrong for a durable server).
type Options struct {
	// MaxOps is the size threshold: staging the MaxOps-th distinct point
	// triggers a synchronous flush on the staging writer. 0 means
	// DefaultMaxOps; 1 degenerates to write-through.
	MaxOps int
	// MaxAge, when > 0, arms a background flusher that drains the buffer
	// whenever its oldest entry is older than MaxAge, bounding how stale
	// the base structure may get under a trickle of writes.
	MaxAge time.Duration
	// Journal is the sidecar journal path; "" disables journaling and
	// with it crash safety of buffered writes.
	Journal string
	// FlushChunk bounds how many collapsed operations one Durable.Batch
	// transaction may carry, so a flush never overflows the WAL.
	// 0 means DefaultFlushChunk. Engine bases chunk internally and
	// ignore it.
	FlushChunk int
}

func (o Options) withDefaults() Options {
	if o.MaxOps <= 0 {
		o.MaxOps = DefaultMaxOps
	}
	if o.FlushChunk <= 0 {
		o.FlushChunk = DefaultFlushChunk
	}
	return o
}

// entry is one buffered point delta. op says what the buffer holds for
// the point (a pending insert or a tombstone); baseHas caches whether
// the base structure contained the point when it was first touched, so
// duplicate/found semantics and the flush collapse are exact without
// re-probing.
type entry struct {
	del     bool // true: tombstone; false: pending insert
	baseHas bool
}

// Buffered decorates a core.Index with a write buffer: updates stage
// in-memory deltas (journaled for crash safety when Options.Journal is
// set), queries merge the deltas with base results in canonical (x,y)
// order, and crossing a size/age threshold bulk-flushes the buffer
// through the strongest batch interface the base offers — Engine.Apply,
// *core.Durable.Batch, or plain per-operation calls.
//
// Over a core.Engine base (the serving stack: a *core.Concurrent) Buffered
// is itself a core.Engine — spans, epoch, page size and position pass
// through to the base. Over a bare core.Index (bench, model tests) those
// are untraced and zero.
//
// Buffered must be the base's only writer: the staged deltas cache
// base-membership facts (entry.baseHas) that a side-channel write would
// invalidate. Reads of the base may happen freely elsewhere; they just
// won't see unflushed deltas.
type Buffered struct {
	mu   sync.RWMutex
	base core.Index
	eng  core.Engine // base as an Engine, resolved once in NewBuffered; nil for a bare Index
	ents map[geom.Point]entry
	net  int // inserts minus deletes staged (Len delta)

	oldest time.Time // when the oldest unflushed entry was staged

	opts Options
	j    *Journal

	stop chan struct{} // closes the age flusher
	wg   sync.WaitGroup

	flushes    obs.Counter
	flushedOps obs.Counter
	lastFlush  obs.Gauge // ops in the latest flush
	probes     obs.Counter
	replayed   obs.Counter // journaled ops re-staged by NewBuffered
	flushNs    obs.Histogram
	flushOps   obs.Histogram
}

var (
	_ core.Index  = (*Buffered)(nil)
	_ core.Engine = (*Buffered)(nil)
)

// NewBuffered wraps base. When opts.Journal names a file, an existing
// journal is replayed through the staging logic first — restoring every
// acknowledged-but-unflushed write — and then immediately flushed, so a
// reopened index starts with an empty buffer and a truncated journal.
func NewBuffered(base core.Index, opts Options) (*Buffered, error) {
	opts = opts.withDefaults()
	b := &Buffered{
		base: base,
		ents: make(map[geom.Point]entry),
		opts: opts,
		stop: make(chan struct{}),
	}
	b.eng, _ = base.(core.Engine)
	if opts.Journal != "" {
		j, replay, err := OpenJournal(opts.Journal)
		if err != nil {
			return nil, err
		}
		b.j = j
		if len(replay) > 0 {
			if err := b.replay(replay); err != nil {
				j.Close()
				return nil, err
			}
		}
	}
	if opts.MaxAge > 0 {
		b.wg.Add(1)
		go b.ageFlusher()
	}
	return b, nil
}

// replay re-stages journaled operations in order (last op per point
// wins, exactly as the live path staged them) and flushes the result.
// Staging probes the base fresh, so replaying against a base that
// already absorbed part or all of a flush converges instead of
// double-applying: an insert the flush landed reads back as baseHas and
// stages nothing.
func (b *Buffered) replay(ops []core.BatchOp) error {
	for _, op := range ops {
		var err error
		if op.Delete {
			_, err = b.stage(op.P, true)
		} else {
			_, err = b.stage(op.P, false)
		}
		if err != nil && !benign(err) {
			return fmt.Errorf("wbuf: journal replay: %w", err)
		}
	}
	b.replayed.Add(uint64(len(ops)))
	return b.Flush()
}

// benign mirrors core's per-operation outcomes that are answers, not
// failures.
func benign(err error) bool {
	return err == nil || errors.Is(err, core.ErrDuplicate) || errors.Is(err, core.ErrCoordRange)
}

func checkCoord(p geom.Point) error {
	if p.X == geom.MinCoord || p.X == geom.MaxCoord || p.Y == geom.MinCoord || p.Y == geom.MaxCoord {
		return fmt.Errorf("wbuf: %v: %w", p, core.ErrCoordRange)
	}
	return nil
}

// probe asks the base whether it stores p (one point query — an
// O(log_B N) read, no writes: the cost that remains on the buffered
// update path).
func (b *Buffered) probe(p geom.Point) (bool, error) {
	b.probes.Add(1)
	res, err := b.base.Query(nil, geom.Rect{XLo: p.X, XHi: p.X, YLo: p.Y, YHi: p.Y})
	if err != nil {
		return false, err
	}
	return len(res) > 0, nil
}

// stage applies one operation to the buffer under b.mu and reports the
// operation's outcome exactly as the undecorated index would: inserting
// a visible point is core.ErrDuplicate, deleting reports found. It does
// NOT journal or flush — only replay uses it, where the journal records
// already exist; live writes go through Apply.
func (b *Buffered) stage(p geom.Point, del bool) (found bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stageLocked(p, del)
}

func (b *Buffered) stageLocked(p geom.Point, del bool) (found bool, err error) {
	if err := checkCoord(p); err != nil {
		return false, err
	}
	e, ok := b.ents[p]
	var visible bool
	if ok {
		visible = !e.del
	} else {
		has, err := b.probe(p)
		if err != nil {
			return false, err
		}
		e = entry{baseHas: has}
		visible = has
	}
	if del {
		if !visible {
			return false, nil // nothing staged: deleting an absent point is a no-op
		}
		e.del = true
		b.net--
	} else {
		if visible {
			return false, fmt.Errorf("wbuf: %v: %w", p, core.ErrDuplicate)
		}
		e.del = false
		b.net++
	}
	if len(b.ents) == 0 {
		b.oldest = time.Now()
	}
	b.ents[p] = e
	return del, nil
}

// Apply implements core.Engine and is the one live update path: it stages
// ops — visible at once, the base untouched — and appends them as one
// journal record under a single b.mu hold, flushes synchronously if the
// buffer crossed the size threshold (attributed to sp's flush phase), and
// finally group-commits the journal fsync outside the lock (attributed to
// sp's sync phase). Results are positional; benign outcomes (duplicate
// insert, absent delete) stay per-entry.
//
// The append MUST happen while b.mu is still held: Journal.Append
// assigns the record's sequence number, and replay is last-op-wins in
// sequence order. If staging and appending were separate critical
// sections, two connections racing on the same point could stage
// delete-then-insert but journal insert-then-delete, and a crash would
// recover the opposite of the acknowledged state. Holding b.mu across
// both makes journal order identical to staging order; the fsync stays
// outside the lock so concurrent writers still group-commit.
//
// The flush-before-sync order is safe: a flush makes the staged ops
// durable through the base's own WAL, superseding their journal records
// entirely (Reset marks them synced, so skipping Sync loses nothing).
func (b *Buffered) Apply(ops []core.BatchOp, sp *trace.Span) []core.BatchResult {
	if len(ops) == 0 {
		return nil
	}
	start := time.Now()
	res := make([]core.BatchResult, len(ops))
	var staged []core.BatchOp
	b.mu.Lock()
	for i, op := range ops {
		found, err := b.stageLocked(op.P, op.Delete)
		res[i] = core.BatchResult{Found: found, Err: err}
		if err == nil && (!op.Delete || found) {
			staged = append(staged, op)
		}
	}
	var (
		seq  uint64
		werr error
	)
	if len(staged) > 0 && b.j != nil {
		seq, werr = b.j.Append(staged)
	}
	sp.AddPhase(trace.PhaseExecute, time.Since(start))
	flushed := false
	if werr == nil && len(staged) > 0 && len(b.ents) >= b.opts.MaxOps {
		fstart := time.Now()
		werr = b.flushLocked(sp)
		sp.AddPhase(trace.PhaseFlush, time.Since(fstart))
		flushed = true
	}
	b.mu.Unlock()
	if werr == nil && !flushed && len(staged) > 0 && b.j != nil {
		sstart := time.Now()
		werr = b.j.Sync(seq)
		sp.AddPhase(trace.PhaseSync, time.Since(sstart))
	}
	if werr != nil {
		for i := range res {
			if res[i].Err == nil {
				res[i] = core.BatchResult{Err: werr}
			}
		}
	}
	return res
}

// Insert implements core.Index over Apply.
func (b *Buffered) Insert(p geom.Point) error {
	return b.Apply([]core.BatchOp{{P: p}}, nil)[0].Err
}

// Delete implements core.Index over Apply (a tombstone).
func (b *Buffered) Delete(p geom.Point) (bool, error) {
	r := b.Apply([]core.BatchOp{{Delete: true, P: p}}, nil)[0]
	return r.Found, r.Err
}

// Query implements core.Index over Report.
func (b *Buffered) Query(dst []geom.Point, q geom.Rect) ([]geom.Point, error) {
	return b.Report(dst, q, nil)
}

// Report implements core.Engine by merge-on-read: base results minus
// points the buffer overrides, plus pending inserts inside q, in
// canonical (x, y) order.
func (b *Buffered) Report(dst []geom.Point, q geom.Rect, sp *trace.Span) ([]geom.Point, error) {
	start := time.Now()
	defer func() { sp.AddPhase(trace.PhaseExecute, time.Since(start)) }()
	b.mu.RLock()
	defer b.mu.RUnlock()
	mark := len(dst)
	dst, err := b.queryBase(dst, q, sp)
	if err != nil {
		return dst[:mark], err
	}
	if len(b.ents) == 0 {
		geom.SortByX(dst[mark:]) // canonical order even with nothing to merge
		return dst, nil
	}
	// Suppress every base hit the buffer overrides (a tombstone hides
	// it; a pending re-insert reports it from the buffer instead, so it
	// appears exactly once), then add pending inserts inside q.
	kept := dst[:mark]
	for _, p := range dst[mark:] {
		if _, ok := b.ents[p]; !ok {
			kept = append(kept, p)
		}
	}
	dst = kept
	for p, e := range b.ents {
		if !e.del && q.Contains(p) {
			dst = append(dst, p)
		}
	}
	geom.SortByX(dst[mark:])
	return dst, nil
}

// queryBase hands the read, span and all, to an Engine base, so
// snapshot-epoch acquisition and page I/O attribute to the span.
func (b *Buffered) queryBase(dst []geom.Point, q geom.Rect, sp *trace.Span) ([]geom.Point, error) {
	if b.eng != nil {
		return b.eng.Report(dst, q, sp)
	}
	return b.base.Query(dst, q)
}

// Len implements core.Index: the base's count plus the buffered net
// delta.
func (b *Buffered) Len() (int, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	n, err := b.base.Len()
	if err != nil {
		return 0, err
	}
	return n + b.net, nil
}

// Depth returns the number of distinct points currently buffered.
func (b *Buffered) Depth() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.ents)
}

// Flush synchronously drains the buffer into the base and truncates the
// journal. It is a no-op on an empty buffer.
func (b *Buffered) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.flushLocked(nil)
}

// flushLocked collapses the buffer to its net effect and applies it
// through the strongest batch interface the base offers. Called with
// b.mu held. The journal is truncated only after the base commit
// succeeds: a crash in between leaves a journal whose full replay is
// idempotent against the flushed base.
func (b *Buffered) flushLocked(sp *trace.Span) error {
	if len(b.ents) == 0 {
		return nil
	}
	start := time.Now()
	if err := b.applyToBase(b.netOpsLocked(), sp); err != nil {
		return err
	}
	n := len(b.ents)
	b.ents = make(map[geom.Point]entry)
	b.net = 0
	b.oldest = time.Time{}
	if b.j != nil {
		if err := b.j.Reset(); err != nil {
			return err
		}
	}
	b.flushes.Add(1)
	b.flushedOps.Add(uint64(n))
	b.lastFlush.Set(int64(n))
	b.flushNs.Observe(uint64(time.Since(start)))
	b.flushOps.Observe(uint64(n))
	return nil
}

// netOpsLocked collapses the buffer to the operations the base still
// needs, in core.CompareOps order: deterministic and locality-friendly, and
// the order core.Concurrent.Apply would give the run anyway (the ops are
// distinct points). Called with b.mu held.
func (b *Buffered) netOpsLocked() []core.BatchOp {
	ops := make([]core.BatchOp, 0, len(b.ents))
	for p, e := range b.ents {
		switch {
		case e.del && e.baseHas:
			ops = append(ops, core.BatchOp{Delete: true, P: p})
		case !e.del && !e.baseHas:
			ops = append(ops, core.BatchOp{P: p})
			// del && !baseHas: net no-op (insert then delete of a new point);
			// !del && baseHas: net no-op (delete then re-insert of a base point).
		}
	}
	slices.SortFunc(ops, core.CompareOps)
	return ops
}

// applyToBase lands the collapsed operations in the base. Benign
// per-operation outcomes are tolerated: they only occur when a crash
// landed part of a previous flush and replay re-derived the same ops.
func (b *Buffered) applyToBase(ops []core.BatchOp, sp *trace.Span) error {
	if len(ops) == 0 {
		return nil
	}
	if b.eng != nil {
		for _, r := range b.eng.Apply(ops, sp) {
			if !benign(r.Err) {
				return fmt.Errorf("wbuf: flush: %w", r.Err)
			}
		}
		return nil
	}
	if base, ok := b.base.(*core.Durable); ok {
		for len(ops) > 0 {
			chunk := ops
			if len(chunk) > b.opts.FlushChunk {
				chunk = chunk[:b.opts.FlushChunk]
			}
			ops = ops[len(chunk):]
			err := base.Batch(func(idx core.Index) error {
				return applyOps(idx, chunk)
			})
			if err != nil {
				return fmt.Errorf("wbuf: flush: %w", err)
			}
		}
		return nil
	}
	return applyOps(b.base, ops)
}

func applyOps(idx core.Index, ops []core.BatchOp) error {
	for _, op := range ops {
		var err error
		if op.Delete {
			_, err = idx.Delete(op.P)
		} else {
			err = idx.Insert(op.P)
		}
		if !benign(err) {
			return err
		}
	}
	return nil
}

// ageFlusher drains the buffer whenever its oldest entry exceeds
// MaxAge, bounding base staleness under write trickles.
func (b *Buffered) ageFlusher() {
	defer b.wg.Done()
	tick := b.opts.MaxAge / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-t.C:
			b.mu.Lock()
			if !b.oldest.IsZero() && time.Since(b.oldest) >= b.opts.MaxAge {
				b.flushLocked(nil) // sticky journal errors resurface on the write path
			}
			b.mu.Unlock()
		}
	}
}

// Close flushes the buffer, stops the age flusher, and closes the
// journal (leaving the — now empty — file in place). Close is
// idempotent, including after Destroy.
func (b *Buffered) Close() error {
	select {
	case <-b.stop:
	default:
		close(b.stop)
	}
	b.wg.Wait()
	err := b.Flush()
	if b.j != nil {
		if cerr := b.j.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Destroy implements core.Index: buffered state is discarded, the base
// destroyed, and the journal removed.
func (b *Buffered) Destroy() error {
	select {
	case <-b.stop:
	default:
		close(b.stop)
	}
	b.wg.Wait()
	b.mu.Lock()
	b.ents = make(map[geom.Point]entry)
	b.net = 0
	b.mu.Unlock()
	if b.j != nil {
		b.j.Close()
		if err := b.j.Remove(); err != nil {
			return err
		}
	}
	return b.base.Destroy()
}

// Epoch implements core.Engine: the base's committed epoch.
func (b *Buffered) Epoch() uint64 {
	if b.eng != nil {
		return b.eng.Epoch()
	}
	return 0
}

// PageSize implements core.Engine: the base's page size.
func (b *Buffered) PageSize() int {
	if b.eng != nil {
		return b.eng.PageSize()
	}
	return 0
}

// Position implements core.Engine: the base's position. Note the nuance:
// buffered writes are durable in the sidecar journal, not the base WAL, so
// the LSN advances at flush time — read barriers against *this node* still
// see every buffered write via merge-on-read.
func (b *Buffered) Position() (term, lsn uint64) {
	if b.eng != nil {
		return b.eng.Position()
	}
	return 0, 0
}

// Emit declares the buffer's metrics — depth, flush and journal counters,
// and the flush-latency and flush-size quantiles — as an obs.Set: rsserve
// publishes it as "rangesearch.wbuf.serve", and STATS serves it as
// "write_buffer".
func (b *Buffered) Emit(s obs.Sink) {
	// A flush updates the three flush counters together under b.mu, so
	// read them under it too: a scrape never sees flushes without its ops.
	b.mu.RLock()
	depth, net := len(b.ents), b.net
	flushes, flushedOps, lastFlush := b.flushes.Load(), b.flushedOps.Load(), b.lastFlush.Load()
	b.mu.RUnlock()
	var journalBytes int64
	var appends, syncs uint64
	if b.j != nil {
		journalBytes = b.j.Bytes()
		appends, syncs = b.j.Counters()
	}
	// Depth is the number of distinct points buffered, net_delta the
	// inserts-minus-deletes it adds to Len, cap_ops the flush threshold.
	s.Gauge("depth", float64(depth))
	s.Gauge("net_delta", float64(net))
	s.Gauge("cap_ops", float64(b.opts.MaxOps))
	s.Counter("flushes", flushes)
	s.Counter("flushed_ops", flushedOps)
	s.Gauge("last_flush_ops", float64(lastFlush))
	// Probes are base point-queries staging issued to resolve
	// duplicate/found; replayed is nonzero exactly when this process
	// recovered acknowledged writes from a predecessor's journal.
	s.Counter("probes", b.probes.Load())
	s.Counter("replayed", b.replayed.Load())
	s.Gauge("flush_p50_ms", float64(b.flushNs.Quantile(0.50))/1e6)
	s.Gauge("flush_p99_ms", float64(b.flushNs.Quantile(0.99))/1e6)
	s.Gauge("flush_max_ms", float64(b.flushNs.Max())/1e6)
	s.Gauge("flush_ops_p50", float64(b.flushOps.Quantile(0.50)))
	s.Gauge("flush_ops_max", float64(b.flushOps.Max()))
	s.Gauge("journal_bytes", float64(journalBytes))
	s.Counter("journal_appends", appends)
	s.Counter("journal_syncs", syncs)
}
