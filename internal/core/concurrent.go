package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
	"rangesearch/internal/trace"
	"sync"
)

var (
	// ErrNotPrimary reports a mutation submitted to a node that is not the
	// replication primary: a read-only replica, or a fenced former primary
	// that has observed a higher term. The write was not applied and must be
	// redirected, not retried here.
	ErrNotPrimary = errors.New("core: not primary")
	// ErrReplicationStall reports a group commit that is durable locally but
	// was not acknowledged by the required number of replicas in time. The
	// outcome is UNKNOWN to the client (the write exists on the primary and
	// ships when a replica reconnects), so servers surface it as a timeout,
	// never as a clean failure.
	ErrReplicationStall = errors.New("core: replication stall")
)

// OpenFunc re-attaches an Index to its storage — the reader-side factory
// Concurrent uses to open one Index per snapshot epoch. For the paper's
// structures:
//
//	func(s eio.Store) (core.Index, error) { return core.OpenThreeSided(s, hdr) }
//
// The returned Index is only ever queried (never mutated), and must be safe
// for concurrent queries, which all structures in this repository are: a
// query keeps no mutable state in the Index value, only in the store.
type OpenFunc func(eio.Store) (Index, error)

// maxBatch caps the number of logical operations coalesced into one group
// commit. With a Durable writer every batch is one WAL record, so the pages
// maxBatch operations dirty must fit the TxStore's WAL (eio.ErrTxOverflow
// fails the batch otherwise): node.DefaultWALPages, rsserve's -wal default,
// is sized for it, while eio.DefaultWALPages is not.
const maxBatch = 64

// ConcurrentOptions configures NewConcurrent.
type ConcurrentOptions struct {
	// Tracer, when non-nil, is the TraceStore the writer index performs
	// its page I/O through (the index must have been created or opened ON
	// this store). Group-commit leaders hang a per-operation span sink off
	// it around each traced operation's apply, which is what gives sampled
	// requests their exact block-I/O attribution. Only the single writer
	// ever touches the tracer's sink — readers run on snapshot views —
	// so the swap is race-free under the leadership lock.
	Tracer *eio.TraceStore
}

// Concurrent is the single-writer / multi-reader serving layer over an
// Index stored on an eio.SnapStore:
//
//   - Readers run Query/Len against an epoch-consistent snapshot and never
//     block on writers (nor writers on readers). Query pins the current
//     epoch for its duration; Snapshot hands out a longer-lived pinned
//     view with a stable Epoch stamp.
//   - Writers from any number of goroutines are coalesced into group
//     commits: one leader drains the queue, applies up to maxBatch
//     operations — absorbing those that arrive while it is executing —
//     and publishes a single new epoch. When the writer Index is a
//     *Durable, the batch runs inside Durable.Batch — one WAL record and
//     one fsync for the whole group — and the epoch it publishes is that
//     record's LSN (a batch that writes no record publishes none).
//
// Per-operation I/O bounds are preserved: a snapshot query reads exactly
// the pages the same query would read serially (version-chain hits cost no
// inner I/O and are counted in eio.SnapStats.VersionReads), and a group
// commit of k updates costs the k updates' page writes plus one commit.
//
// What is and is not linearizable: updates are (the single commit order is
// the linearization); reads are serializable snapshots — a read may lag
// the newest commit by the time it takes to open its view, but every read
// observes some committed prefix of the update history, and epochs observed
// by any single goroutine never go backwards.
type Concurrent struct {
	snap    *eio.SnapStore
	writer  Index
	durable *Durable // non-nil iff writer is a *Durable
	open    OpenFunc
	tracer  *eio.TraceStore // writer-path tracer for span I/O attribution

	// gate, when set, runs after every committed group (locally durable,
	// epoch published) and before the batch's waiters release — the
	// synchronous-replication ack point. An error fails the batch's waiters
	// without undoing the local commit; it should wrap ErrReplicationStall.
	gate func() error

	qmu   sync.Mutex
	queue []*pendingOp

	wmu   sync.Mutex   // commit leadership: held while a batch is applied
	batch []*pendingOp // the leader's batch, reused from one take to the next
	// slice is the part of the batch the writer is applying as one run,
	// and applySlice the run's body, made once so a run allocates nothing.
	slice      []*pendingOp
	applySlice func(Updater) error

	vmu sync.Mutex
	cur *epochView
}

var (
	_ Index  = (*Concurrent)(nil)
	_ Engine = (*Concurrent)(nil)
)

// pendingOp is one queued operation of an Apply run. The run's ops live in
// one slab and commit in queue order, so only the last one carries the
// channel its submitter waits on.
type pendingOp struct {
	BatchOp
	res  *BatchResult  // the op's slot in the slice Apply returns
	done chan struct{} // last op of a run only; closed once it is resolved

	// Tracing state, set only for sampled requests; the zero values cost
	// untraced operations nothing.
	sp  *trace.Span // span the leader records phases and I/O into
	enq time.Time   // first op of a run only: enqueue time, for the queue/leadership phase
}

// epochView is one reader-side Index instance fixed at a pinned epoch,
// shared by every query that arrives while the epoch is current.
type epochView struct {
	epoch uint64
	idx   Index
	refs  int
}

// NewConcurrent builds the serving layer. writer must be an Index whose
// pages live on snap (created or opened ON snap), or a *Durable wrapping
// such an index — then group commits reuse Durable.Batch so one WAL record
// covers the whole batch. open re-attaches read-only Index instances to
// epoch views of snap.
func NewConcurrent(writer Index, snap *eio.SnapStore, open OpenFunc, opts ConcurrentOptions) (*Concurrent, error) {
	if writer == nil || snap == nil || open == nil {
		return nil, fmt.Errorf("core: concurrent: writer, snap and open are all required")
	}
	d, _ := writer.(*Durable)
	c := &Concurrent{
		snap:    snap,
		writer:  writer,
		durable: d,
		open:    open,
		tracer:  opts.Tracer,
	}
	c.applySlice = func(u Updater) error { return applyOps(u, c.slice) }
	return c, nil
}

// Epoch returns the current committed epoch (the stamp new snapshots get).
func (c *Concurrent) Epoch() uint64 { return c.snap.Epoch() }

// Position implements Engine. On a durable writer the LSN is the published
// epoch: the LSN of the last group commit readers can see — monotonic,
// persistent across restarts, ≥ that of any acknowledged write, and never
// ahead of what a read opened after it sees. It is zero when the writer is
// not durable (no WAL, nothing to ship). A bare Concurrent is un-replicated
// and serves at term 0; repl.Node supplies the term of a replicated one.
func (c *Concurrent) Position() (term, lsn uint64) {
	if c.durable == nil {
		return 0, 0
	}
	return 0, c.snap.Epoch()
}

// SetCommitGate installs the post-commit gate described on the field (nil
// removes it). Install during assembly, before the first write is
// submitted; the setter serializes with group commits but batches already
// past their gate are unaffected.
func (c *Concurrent) SetCommitGate(fn func() error) {
	c.wmu.Lock()
	c.gate = fn
	c.wmu.Unlock()
}

// Barrier acquires commit leadership, checkpoints a durable writer's store,
// runs fn while no group commit can be in flight, and releases. While fn
// runs the writer's store is quiescent — the TxStore has no open
// transaction, no record left to replay, and its anchors exactly describe
// the on-disk state — which is what a replication bootstrap needs to cut a
// consistent full-store snapshot. Writers queue behind fn (and may shed
// BUSY under admission control); readers are unaffected.
func (c *Concurrent) Barrier(fn func() error) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.durable != nil {
		if err := c.durable.Sync(); err != nil {
			return err
		}
	}
	return fn()
}

// PageSize returns the page size of the backing store — the B of the
// paper's O(log_B N + t/B) bounds, which the serving layer needs to
// compute per-request I/O allowances for slow-query logging.
func (c *Concurrent) PageSize() int { return c.snap.PageSize() }

// --- write path: group commit ------------------------------------------

// Apply implements Engine: ops join the group-commit queue as one
// contiguous run, eligible for coalescing — with each other and with other
// callers' runs — into as few as ⌈len(ops)/maxBatch⌉ group commits, which
// is how one client BATCH request becomes few WAL records.
//
// A run of two or more ops is queued in point order (a stable sort by
// CompareOps, so ops on one point keep their submission order). Ops on
// different points commute — each outcome depends only on whether its own
// point is stored — so the results and the final contents are those of
// submission order, while consecutive updates share their search paths and
// a bulk load walks the tree left to right. On a *ThreeSided writer the
// sharing is literal: runBatch applies a group commit's ops as one run of
// the tree, which decodes each shared node, fetches each Y-set and writes
// each node structure once per group commit, not once per op.
// Each op keeps its pointer to its own result slot, so results stay
// positional.
//
// A non-nil sp records the run: per-operation execute time and page I/O
// accumulate, the batch-level WAL/sync/commit phases are added once per
// group commit the run lands in, and the queue/leadership phase is measured
// on the run's first operation. When the run spans several group commits
// the phase sum approximates (slightly undercounts) the run's wall time —
// exact attribution holds for single-operation requests.
func (c *Concurrent) Apply(ops []BatchOp, sp *trace.Span) []BatchResult {
	if len(ops) == 0 {
		return nil
	}
	res := make([]BatchResult, len(ops))
	run := make([]pendingOp, len(ops))
	for i, op := range ops {
		run[i] = pendingOp{BatchOp: op, res: &res[i], sp: sp}
	}
	if len(run) > 1 {
		slices.SortStableFunc(run, func(a, b pendingOp) int { return CompareOps(a.BatchOp, b.BatchOp) })
	}
	first, last := &run[0], &run[len(run)-1]
	last.done = make(chan struct{})
	if sp != nil {
		first.enq = time.Now()
	}

	c.qmu.Lock()
	for i := range run {
		c.queue = append(c.queue, &run[i])
	}
	c.qmu.Unlock()

	// Whoever wins the leadership lock drains the queue and commits on
	// behalf of everyone waiting — classic group commit, no background
	// goroutine. The queue is FIFO and leaders drain it from the head, so
	// once the run's last op is resolved the earlier ones are too.
	c.wmu.Lock()
	for !resolved(last) {
		c.batch = c.batch[:0]
		if len(c.take(first)) == 0 {
			break // the run was committed by a previous leader
		}
		c.runBatch(first)
	}
	c.wmu.Unlock()
	<-last.done
	return res
}

// Insert implements Index over Apply.
func (c *Concurrent) Insert(p geom.Point) error {
	return c.Apply([]BatchOp{{P: p}}, nil)[0].Err
}

// Delete implements Index over Apply.
func (c *Concurrent) Delete(p geom.Point) (bool, error) {
	r := c.Apply([]BatchOp{{Delete: true, P: p}}, nil)[0]
	return r.Found, r.Err
}

func resolved(last *pendingOp) bool {
	select {
	case <-last.done:
		return true
	default:
		return false
	}
}

// take moves operations from the head of the queue onto the end of the
// leader's batch, up to maxBatch in all, and returns the ones it added. own
// is the first op of the calling leader's run: a traced run leaving the
// queue records its wait as the leadership phase when this leader enqueued
// it itself (it waited to BECOME the leader) and as the queue phase when
// another submitter did (it waited FOR a leader). The two intervals are the
// same enqueue→drain span viewed from different sides, so recording exactly
// one of them keeps a span's phases disjoint. Callers hold wmu.
func (c *Concurrent) take(own *pendingOp) []*pendingOp {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	had := len(c.batch)
	n := min(len(c.queue), maxBatch-had)
	c.batch = append(c.batch, c.queue[:n]...)
	c.queue = c.queue[:copy(c.queue, c.queue[n:])]
	for _, op := range c.batch[had:] {
		if op.sp != nil && !op.enq.IsZero() {
			ph := trace.PhaseQueue
			if op == own {
				ph = trace.PhaseLeadership
			}
			op.sp.AddPhase(ph, time.Since(op.enq))
		}
	}
	return c.batch[had:]
}

// benign reports errors that are a legitimate per-operation outcome rather
// than a failure of the batch: they leave the structure unchanged and are
// returned to the one caller that caused them.
func benign(err error) bool {
	return errors.Is(err, ErrDuplicate) || errors.Is(err, ErrCoordRange)
}

// runBatch applies the leader's batch (c.batch, as take filled it) through
// the writer index and publishes at most one new epoch. own is the first
// op of the leader's own run, for take. Callers hold wmu.
func (c *Concurrent) runBatch(own *pendingOp) {
	start := time.Now()
	traced := false
	var execSum time.Duration
	// apply executes what the leader took and then whatever has queued up
	// meanwhile, until the queue is empty or the batch full: a writer that
	// arrives while the leader is executing rides this commit's fsync instead
	// of waiting it out and then paying its own. No timer and no wait — the
	// leader only ever takes what is already there.
	//
	// Each maximal slice of consecutive ops that share one span (untraced
	// ops share the nil one) is one run of the writer index, when it applies
	// runs (*ThreeSided): the slice's updates share their search path's
	// decoded nodes, and the run writes back what it holds before it
	// returns. The trace sink is set once around the slice, so a traced
	// request's I/O, the run's write-backs included, is exactly its own.
	apply := func(idx Index) error {
		runs, _ := idx.(interface {
			Run(fn func(Updater) error) error
		})
		for ops := c.batch; len(ops) > 0; ops = c.take(own) {
			for len(ops) > 0 {
				n := 1
				for n < len(ops) && ops[n].sp == ops[0].sp {
					n++
				}
				c.slice, ops = ops[:n], ops[n:]
				sp := c.slice[0].sp
				var start time.Time
				if sp != nil {
					traced = true
					start = time.Now()
					if c.tracer != nil {
						// Exclusive under wmu: readers run on snapshot views,
						// never through the writer tracer, so the swap cannot
						// misattribute a concurrent reader's I/O.
						c.tracer.SetSink(eio.NewSpanSink(sp))
					}
				}
				var err error
				if runs != nil {
					err = runs.Run(c.applySlice)
				} else {
					err = applyOps(idx, c.slice)
				}
				if sp != nil {
					if c.tracer != nil {
						c.tracer.SetSink(nil)
					}
					d := time.Since(start)
					execSum += d
					sp.AddPhase(trace.PhaseExecute, d)
				}
				if err != nil {
					return err
				}
			}
		}
		return nil
	}

	var txBefore eio.TxTimings
	if c.durable != nil {
		txBefore = c.durable.Tx().Timings()
	}
	var applyErr error
	if c.durable != nil {
		applyErr = c.durable.Batch(apply)
	} else {
		applyErr = apply(c.writer)
	}

	batch := c.batch // complete: apply has returned, nothing joins after the commit point

	// recordPhases must run before any run is released: the waiter on the
	// other side finishes and emits the span as soon as it unblocks.
	recordPhases := func() {
		if traced {
			c.recordBatchPhases(batch, start, execSum, txBefore)
		}
	}

	if applyErr != nil && c.durable != nil {
		// Durable.Batch rolled the transaction back and the epoch does not
		// advance. Before the commit point the inner store holds the
		// pre-batch image. At or past it the TxStore has stopped: every
		// later operation fails until a reopen replays the record, so no
		// reader sees a half-applied batch either way. Every operation in
		// the batch fails.
		c.snap.Abort()
		recordPhases()
		c.fail(batch, applyErr)
		return
	}
	// Publish the new epoch: on a durable writer the LSN of the batch's
	// record, so a batch whose ops were all duplicates or out of range,
	// which wrote none and changed no page, re-publishes the current epoch
	// and publishes nothing. On the non-durable path this happens even
	// after an apply error: the inner store already holds the (possibly
	// partial) new state, and readers must see a published epoch that
	// matches it — the same torn-structure risk a serial caller of a
	// non-durable index accepts.
	if _, err := c.snap.Commit(); err != nil {
		recordPhases()
		c.fail(batch, fmt.Errorf("core: concurrent: publish epoch: %w", err))
		return
	}
	c.dropStaleView()
	recordPhases()
	if applyErr != nil {
		c.fail(batch, applyErr)
		return
	}
	if c.gate != nil {
		if gerr := c.gate(); gerr != nil {
			// The batch IS committed locally; only the acknowledgement
			// contract failed. Waiters get the stall error and the server
			// layer reports the outcome as unknown.
			c.fail(batch, gerr)
			return
		}
	}
	releaseRuns(batch)
}

// applyOps applies ops through u in order, each outcome into its op's
// result slot, and stops at the first error that is not an op's own.
func applyOps(u Updater, ops []*pendingOp) error {
	for _, op := range ops {
		if op.Delete {
			op.res.Found, op.res.Err = u.Delete(op.P)
		} else {
			op.res.Err = u.Insert(op.P)
		}
		if err := op.res.Err; err != nil && !benign(err) {
			return err
		}
	}
	return nil
}

// recordBatchPhases distributes the batch-level commit cost over the
// traced members of a just-committed (or failed) group. WAL-append, sync
// and checkpoint time come from the TxStore's cumulative timing counters —
// the leader serialized with the commit, so the delta is exactly this
// batch's, and a checkpoint (the ring was full) shows up on the commit
// that ran it, as its own phase, rather than inflating every commit's
// sync. The commit phase is the remainder of the batch wall time not
// already attributed: the in-place apply and the epoch publish. All four
// are properties of the whole group (one WAL record, one fsync), so each
// traced span in the group carries the full value once — the span answers
// "what did this request wait through", not "what share did it consume".
func (c *Concurrent) recordBatchPhases(batch []*pendingOp, start time.Time, execSum time.Duration, txBefore eio.TxTimings) {
	batchDur := time.Since(start)
	var delta eio.TxTimings
	if c.durable != nil {
		delta = c.durable.Tx().Timings().Sub(txBefore)
	}
	commit := batchDur - execSum - delta.WALAppend - delta.Sync - delta.Checkpoint
	if commit < 0 {
		commit = 0
	}
	var prev *trace.Span // ops of one traced run share a span; add once
	for _, op := range batch {
		if op.sp == nil || op.sp == prev {
			continue
		}
		prev = op.sp
		op.sp.AddPhase(trace.PhaseWALAppend, delta.WALAppend)
		op.sp.AddPhase(trace.PhaseSync, delta.Sync)
		op.sp.AddPhase(trace.PhaseCheckpoint, delta.Checkpoint)
		op.sp.AddPhase(trace.PhaseCommit, commit)
	}
}

// fail marks every not-yet-benignly-resolved operation in the batch with
// err and releases the waiters.
func (c *Concurrent) fail(batch []*pendingOp, err error) {
	for _, op := range batch {
		if op.res.Err == nil || benign(op.res.Err) {
			*op.res = BatchResult{Err: err}
		}
	}
	releaseRuns(batch)
}

// releaseRuns unblocks the submitter of every run that ends in batch.
func releaseRuns(batch []*pendingOp) {
	for _, op := range batch {
		if op.done != nil {
			close(op.done)
		}
	}
}

// --- read path: epoch snapshots ----------------------------------------

// Snapshot pins the current epoch and returns a consistent read-only view
// of the index at that instant. The snapshot stays valid — and keeps its
// version memory alive — until Close, so hold it only as long as needed.
func (c *Concurrent) Snapshot() (*Snapshot, error) {
	v, err := c.acquire()
	if err != nil {
		return nil, err
	}
	return &Snapshot{c: c, v: v}, nil
}

// acquire returns the view for the current epoch, creating it on first use
// after a commit. Opening reads the structure header once per epoch; every
// query at that epoch shares the instance.
func (c *Concurrent) acquire() (*epochView, error) {
	c.vmu.Lock()
	defer c.vmu.Unlock()
	if c.cur != nil && c.cur.epoch == c.snap.Epoch() {
		c.cur.refs++
		return c.cur, nil
	}
	epoch := c.snap.Pin()
	if c.cur != nil && c.cur.epoch == epoch {
		// A commit between the Epoch check and Pin landed us back on the
		// view's epoch; keep the existing instance and the new pin is
		// redundant.
		c.snap.Unpin(epoch)
		c.cur.refs++
		return c.cur, nil
	}
	idx, err := c.open(c.snap.View(epoch))
	if err != nil {
		c.snap.Unpin(epoch)
		return nil, fmt.Errorf("core: concurrent: open snapshot at epoch %d: %w", epoch, err)
	}
	v := &epochView{epoch: epoch, idx: idx, refs: 1}
	old := c.cur
	c.cur = v
	if old != nil && old.refs == 0 {
		c.snap.Unpin(old.epoch)
	}
	return v, nil
}

// dropStaleView unpins the cached reader view once a commit has made it
// stale and no query holds it. Without this the view stays pinned until the
// next reader arrives, and under a write-only stream the SnapStore would
// retain a pre-image of every page every later batch touches. Versions
// captured by the batch that just committed are collected at the next
// Commit. Callers hold wmu.
func (c *Concurrent) dropStaleView() {
	c.vmu.Lock()
	if v := c.cur; v != nil && v.refs == 0 && v.epoch != c.snap.Epoch() {
		c.cur = nil
		c.snap.Unpin(v.epoch)
	}
	c.vmu.Unlock()
}

// release drops one reference; the epoch unpins once the view is neither
// current nor in use.
func (c *Concurrent) release(v *epochView) {
	c.vmu.Lock()
	v.refs--
	if v.refs == 0 && v != c.cur {
		c.snap.Unpin(v.epoch)
	}
	c.vmu.Unlock()
}

// Report implements Engine: one query against the current epoch's
// snapshot. It costs the same store I/Os as the identical query on the
// underlying index run serially.
//
// A non-nil sp records the query's execute time and exact page reads. For
// that a traced query opens a PRIVATE view over its pinned epoch — a
// per-query TraceStore whose sink is attached only after the structure
// header loads, so the span counts exactly the reads the query itself
// performs (the same accounting boundary as obs.Instrumented) — at the cost
// of re-reading the header instead of sharing the cached epoch view.
func (c *Concurrent) Report(dst []geom.Point, q geom.Rect, sp *trace.Span) ([]geom.Point, error) {
	if sp == nil {
		v, err := c.acquire()
		if err != nil {
			return dst, err
		}
		defer c.release(v)
		return v.idx.Query(dst, q)
	}
	start := time.Now()
	defer func() { sp.AddPhase(trace.PhaseExecute, time.Since(start)) }()
	epoch := c.snap.Pin()
	defer c.snap.Unpin(epoch)
	ts := eio.NewTraceStore(c.snap.View(epoch))
	idx, err := c.open(ts)
	if err != nil {
		return dst, fmt.Errorf("core: concurrent: open traced view at epoch %d: %w", epoch, err)
	}
	ts.SetSink(eio.NewSpanSink(sp))
	defer ts.SetSink(nil)
	return idx.Query(dst, q)
}

// Query implements Index over Report.
func (c *Concurrent) Query(dst []geom.Point, q geom.Rect) ([]geom.Point, error) {
	return c.Report(dst, q, nil)
}

// Len implements Index against the current snapshot.
func (c *Concurrent) Len() (int, error) {
	v, err := c.acquire()
	if err != nil {
		return 0, err
	}
	defer c.release(v)
	return v.idx.Len()
}

// Destroy implements Index. It serializes with writers; readers holding
// snapshots keep reading their epoch until they close (the page frees are
// deferred behind their pins).
func (c *Concurrent) Destroy() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	err := c.writer.Destroy()
	if err != nil && c.durable != nil {
		c.snap.Abort()
		return err
	}
	if _, cerr := c.snap.Commit(); cerr != nil && err == nil {
		err = cerr
	}
	c.vmu.Lock()
	if c.cur != nil && c.cur.refs == 0 {
		c.snap.Unpin(c.cur.epoch)
	}
	c.cur = nil
	c.vmu.Unlock()
	return err
}

// Close releases the reader-side machinery: the cached epoch view's pin is
// dropped so the SnapStore can garbage-collect version memory and apply
// deferred frees at its next Commit or Close. Call it after the last query
// and before scrubbing or closing the store — a Concurrent that is never
// Closed keeps its current epoch pinned forever, which makes deferred
// frees look like leaks to eio.FindLeaks. Queries after Close simply
// re-open a view; Close is idempotent.
func (c *Concurrent) Close() {
	c.vmu.Lock()
	if c.cur != nil && c.cur.refs == 0 {
		c.snap.Unpin(c.cur.epoch)
	}
	c.cur = nil
	c.vmu.Unlock()
}

// Snapshot is a pinned, epoch-stamped, read-only view of a Concurrent
// index. It is safe for concurrent use by multiple goroutines and stays
// consistent regardless of concurrent commits. Close releases the pin;
// using a closed snapshot panics.
type Snapshot struct {
	c *Concurrent
	v *epochView

	mu     sync.Mutex
	closed bool
}

// Epoch returns the committed epoch the snapshot is fixed at. Epochs are
// assigned in commit order, so for any two snapshots the one with the
// larger epoch observes a superset of the committed batches.
func (s *Snapshot) Epoch() uint64 { return s.v.epoch }

// Query reports the points inside q as of the snapshot's epoch.
func (s *Snapshot) Query(dst []geom.Point, q geom.Rect) ([]geom.Point, error) {
	return s.v.idx.Query(dst, q)
}

// Len returns the number of stored points as of the snapshot's epoch.
func (s *Snapshot) Len() (int, error) { return s.v.idx.Len() }

// Close releases the snapshot's epoch pin. Close is idempotent.
func (s *Snapshot) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.c.release(s.v)
}
