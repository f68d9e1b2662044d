// Package node assembles the serving stacks cmd/rsserve boots. It is the
// one place that knows the store manifest, the mode rules (Config.Validate
// walks them as one table), how a stack is put together —
//
//	SnapStore over [TxStore | Pool] over FileStore or MemStore,
//	then TraceStore, ThreeSided, [Durable] and Concurrent,
//	and optionally the write buffer (internal/wbuf) in front
//
// — and how one is scrubbed and drained. A replica's follower stack and the
// stack a promotion turns it into come from the same assembly.
package node

import (
	"fmt"
	"os"
	"strings"
	"time"

	"rangesearch/internal/core"
	"rangesearch/internal/eio"
	"rangesearch/internal/epst"
	"rangesearch/internal/repl"
	"rangesearch/internal/wbuf"
)

// DefaultWALPages is rsserve's -wal default. A group commit of
// core.Concurrent's largest batch (64 inserts) through a root split or a
// Θ(B²) structure rebuild needs more than 127 page images in its one WAL
// record at 20 000 points and 4 KiB pages, and more as the tree grows;
// eio.DefaultWALPages (64) holds 63 and fails such a batch with
// eio.ErrTxOverflow.
const DefaultWALPages = 1024

// Role is the replication role rsserve's repl flags imply.
type Role uint8

const (
	Standalone Role = iota // neither -repl-listen nor -replicate-from
	Primary                // -repl-listen: ships its WAL to replicas
	Replica                // -replicate-from: follows a primary
)

// Config describes one stack; each field is one rsserve flag.
type Config struct {
	Store string // -store: a file-backed store, created on first use
	Mem   bool   // -mem: serve from RAM

	PageSize int  // -page: page size when creating a store
	Durable  bool // -durable: a new file store gets the WAL; a reopened one follows its manifest, -mem ignores it
	WALPages int  // -wal: WAL capacity in pages when creating a durable store
	// PoolPages is -pool: an LRU Pool of that many pages over a
	// non-durable file store.
	PoolPages int

	WriteBuffer    bool          // -write-buffer
	WriteBufferOps int           // -write-buffer-ops
	WriteBufferAge time.Duration // -write-buffer-age

	Role         Role // -repl-listen / -replicate-from
	ForcePrimary bool // -force-primary: a replica or fenced store takes over at the next term
}

// A Refusal is a Config the mode table rejects; Code is the exit status
// rsserve reports it with.
type Refusal struct {
	Code int
	Msg  string
}

func (r *Refusal) Error() string { return r.Msg }

// rules is the mode table, in the order Validate checks it. The rules that
// read the manifest come last: m is the manifest of an existing store, nil
// for -mem or a store Build will create.
var rules = []struct {
	code     int
	manifest bool
	refuses  func(c Config, m *Manifest) bool
	msg      string // {store} and {journal} stand for the store's files
}{
	{2, false, func(c Config, _ *Manifest) bool { return (c.Store == "") == !c.Mem },
		"exactly one of -store or -mem is required"},
	{2, false, func(c Config, _ *Manifest) bool { return c.Role != Standalone && (c.Mem || !c.Durable) },
		"replication requires a durable file store (-store, -durable)"},
	// Buffered writes are durable in the sidecar journal, not the base WAL,
	// so log shipping would silently omit them.
	{2, false, func(c Config, _ *Manifest) bool { return c.Role != Standalone && c.WriteBuffer },
		"-write-buffer is incompatible with replication (buffered writes are not in the shipped WAL)"},
	// The same hazard in journal form: replaying a leftover journal into a
	// replica would apply writes outside the shipped WAL.
	{2, false, func(c Config, _ *Manifest) bool { return c.Role == Replica && fileNonEmpty(JournalPath(c.Store)) },
		"store has a leftover write-buffer journal {journal}; a replica must not apply writes outside the shipped WAL — boot once without -replicate-from to fold it in, or remove it if the primary already holds those writes"},
	{2, false, func(c Config, _ *Manifest) bool { return c.WriteBufferOps < 1 },
		"-write-buffer-ops must be at least 1"},
	{2, false, func(c Config, _ *Manifest) bool { return c.PoolPages > 0 && c.Mem },
		"-pool caches a file store's pages; -mem has none"},
	{2, true, func(c Config, m *Manifest) bool { return c.PoolPages > 0 && c.durable(m) },
		"-pool applies to -durable=false stores only; a durable store has TxStore's built-in page cache"},
	{1, true, func(c Config, m *Manifest) bool {
		return m != nil && m.Role == repl.RoleReplica && c.Role != Replica && !c.ForcePrimary
	}, "store {store} last ran as a replica; start it with -replicate-from, or -force-primary to take over"},
	{1, true, func(c Config, m *Manifest) bool { return m != nil && !m.Durable && c.Role != Standalone },
		"store {store} is not durable; replication needs the WAL layout"},
}

// Validate checks c against the mode table and returns the first rule it
// breaks as a *Refusal. An existing store's manifest decides its
// durability and last role, so a manifest that cannot be read fails too
// (as a plain error). Validate creates nothing.
func (c Config) Validate() error {
	_, err := c.check()
	return err
}

// check is Validate, returning the manifest of an existing store.
func (c Config) check() (*Manifest, error) {
	var m *Manifest
	read := false
	for _, r := range rules {
		if r.manifest && !read {
			read = true
			if _, err := os.Stat(c.Store); !c.Mem && !os.IsNotExist(err) {
				if m, err = ReadManifest(c.Store); err != nil {
					return nil, fmt.Errorf("store %s exists but its manifest is unreadable: %w", c.Store, err)
				}
			}
		}
		if r.refuses(c, m) {
			msg := strings.NewReplacer("{store}", c.Store, "{journal}", JournalPath(c.Store)).Replace(r.msg)
			return nil, &Refusal{Code: r.code, Msg: msg}
		}
	}
	return m, nil
}

// durable is whether the store is WAL-backed: its manifest says so once it
// exists, -durable before.
func (c Config) durable(m *Manifest) bool {
	if m != nil {
		return m.Durable
	}
	return c.Durable
}

func fileNonEmpty(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.Size() > 0
}

// Boot is what opening a stack did, for the caller to report.
type Boot struct {
	ForcedTerm uint64           // -force-primary took the store over at this term
	Recovery   eio.RecoveryInfo // WAL recovery of a reopened durable store or follower
	Reclaimed  int              // pages the boot scrub freed
	Orphan     string           // a leftover write-buffer journal folded in without -write-buffer
}

// Stack is one assembled serving stack.
type Stack struct {
	Conc *core.Concurrent
	Buf  *wbuf.Buffered // the write buffer in front of Conc; nil without -write-buffer
	Tx   *eio.TxStore   // nil on volatile and follower stacks
	Pool *eio.Pool      // the -pool cache; nil without -pool
	M    *Manifest      // a -mem stack's exists only here
	Boot Boot

	snap *eio.SnapStore
	fs   *eio.FileStore // file stacks: the file
	txr  *eio.TxReplica // follower stacks: the applier under snap
}

// Engine is what a standalone server fronts: the write buffer when there
// is one, else the group-commit engine.
func (s *Stack) Engine() core.Engine {
	if s.Buf != nil {
		return s.Buf
	}
	return s.Conc
}

// Build creates or reopens the stack c describes: WAL recovery and the
// boot scrub on a reopened durable store, then the write buffer, or the
// replay of a journal a buffered run left behind. A replica's is a
// follower, and nil until its first sync clones the store (Config.Clone).
func Build(c Config) (*Stack, error) {
	m, err := c.check()
	if err != nil || (c.Role == Replica && m == nil) {
		return nil, err
	}
	// -force-primary: a replica or fenced store takes over at the next
	// term, persisted before anything serves.
	forced := uint64(0)
	if c.ForcePrimary && m != nil && (m.Role == repl.RoleReplica || m.Role == repl.RoleFenced) {
		forced = m.Term + 1
		if err := c.SetRole(repl.RolePrimary, forced); err != nil {
			return nil, fmt.Errorf("-force-primary: %w", err)
		}
		m.Role, m.Term = repl.RolePrimary, forced
	}
	var st *Stack
	if c.Mem {
		st, err = assemble(eio.NewSnapStore(eio.NewMemStore(c.PageSize), 0), &Manifest{PageSize: c.PageSize}, nil, nil)
	} else {
		st, err = c.openFile(m)
	}
	if err != nil {
		return nil, err
	}
	st.Boot.ForcedTerm = forced
	if err := st.buffer(c); err != nil {
		st.Conc.Close()
		st.snap.Close()
		return nil, err
	}
	return st, nil
}

// openFile creates the file store (m == nil) or reopens it: a durable
// store under its TxStore, a replica's under the TxReplica that applies
// shipped records beneath its SnapStore.
func (c Config) openFile(m *Manifest) (*Stack, error) {
	fresh := m == nil
	var fs *eio.FileStore
	var err error
	if fresh {
		m = &Manifest{PageSize: c.PageSize, Durable: c.Durable}
		fs, err = eio.CreateFileStore(c.Store, c.PageSize)
	} else {
		fs, err = eio.OpenFileStore(c.Store)
	}
	if err != nil {
		return nil, err
	}
	var base eio.Store = fs
	var tx *eio.TxStore
	var pool *eio.Pool
	var boot Boot
	switch {
	case c.Role == Replica:
	case m.Durable && fresh:
		tx, err = eio.NewTxStore(fs, eio.TxOptions{WALPages: c.WALPages})
		m.WALPages = c.WALPages
	case m.Durable:
		if tx, err = eio.OpenTxStore(fs, m.Anchor); err != nil {
			err = fmt.Errorf("WAL recovery: %w", err)
		}
	case c.PoolPages > 0:
		pool = eio.NewPool(fs, c.PoolPages)
		base = pool
	}
	if err != nil {
		fs.Close()
		return nil, err
	}
	if tx != nil {
		base, m.Anchor, boot.Recovery = tx, tx.Anchor(), tx.Recovery()
	}
	snap := eio.NewSnapStore(base, 0)
	var txr *eio.TxReplica
	if c.Role == Replica {
		if txr, err = eio.OpenTxReplica(fs, snap, m.Anchor); err == nil {
			boot.Recovery = txr.Recovery()
		}
	}
	var st *Stack
	if err == nil {
		st, err = assemble(snap, m, tx, txr)
	}
	switch {
	case err != nil:
	case fresh:
		err = writeManifest(c.Store, m)
	case tx != nil:
		boot.Reclaimed, err = st.Scrub()
	}
	if err != nil {
		if st != nil {
			st.Conc.Close()
		}
		snap.Close()
		return nil, err
	}
	st.fs, st.Boot, st.Pool = fs, boot, pool
	return st, nil
}

// assemble puts TraceStore, the EPST (created when m names no header),
// the writer and Concurrent over snap, and publishes the base epoch. The
// writer index sits on the TraceStore so the group-commit leader can
// attribute each traced request's exact block I/Os; the tracer's sink
// stays nil for untraced work. Over a TxStore the writer is Durable; over
// a TxReplica it is fenced, since a follower's only writer is its applier.
func assemble(snap *eio.SnapStore, m *Manifest, tx *eio.TxStore, txr *eio.TxReplica) (*Stack, error) {
	tracer := eio.NewTraceStore(snap)
	var idx *core.ThreeSided
	var err error
	if m.Hdr == eio.NilPage {
		idx, err = core.NewThreeSided(tracer, epst.Options{})
	} else {
		idx, err = core.OpenThreeSided(tracer, m.Hdr)
	}
	if err != nil {
		return nil, err
	}
	m.Hdr = idx.HeaderID()
	if _, err := snap.Commit(); err != nil {
		return nil, err
	}
	var writer core.Index = idx
	switch {
	case txr != nil:
		writer = &repl.FencedIndex{Reads: idx}
	case tx != nil:
		writer = core.NewDurable(idx, tx)
	}
	hdr := m.Hdr
	conc, err := core.NewConcurrent(writer, snap,
		func(s eio.Store) (core.Index, error) { return core.OpenThreeSided(s, hdr) },
		core.ConcurrentOptions{Tracer: tracer})
	if err != nil {
		return nil, err
	}
	return &Stack{Conc: conc, Tx: tx, M: m, snap: snap, txr: txr}, nil
}

// buffer puts the write buffer in front of the engine, or folds in a
// journal a buffered run left behind — acknowledged writes must never
// depend on the next boot remembering a flag — and records the mode in
// the manifest.
func (s *Stack) buffer(c Config) error {
	var err error
	opts := wbuf.Options{MaxOps: c.WriteBufferOps, MaxAge: c.WriteBufferAge}
	switch {
	case c.WriteBuffer && s.Tx != nil:
		// One durability barrier before the first buffered ack: with every
		// update absorbed by the buffer, the base may not commit (and
		// persist its allocation superblock) until the first flush, and a
		// SIGKILL before then would leave a store whose creation epoch
		// never reached disk — unopenable, journal or no journal.
		opts.Journal = JournalPath(c.Store)
		if err = s.Tx.Sync(); err == nil {
			s.Buf, err = wbuf.NewBuffered(s.Conc, opts)
		}
	case c.WriteBuffer:
		// -mem or a non-durable file store: a journal could not promise
		// more than the base itself does, so the buffer runs volatile.
		s.Buf, err = wbuf.NewBuffered(s.Conc, opts)
	case c.Store != "" && fileNonEmpty(JournalPath(c.Store)):
		var tmp *wbuf.Buffered
		if tmp, err = wbuf.NewBuffered(s.Conc, wbuf.Options{Journal: JournalPath(c.Store)}); err == nil {
			err = tmp.Close() // replay happened in NewBuffered; Close flushes and truncates
		}
		s.Boot.Orphan = JournalPath(c.Store)
	}
	if err != nil {
		return fmt.Errorf("write buffer: %w", err)
	}
	ops := 0
	if c.WriteBuffer {
		ops = c.WriteBufferOps
	}
	if c.Store == "" || (s.M.WriteBuffer == c.WriteBuffer && s.M.WriteBufferOps == ops) {
		return nil
	}
	s.M.WriteBuffer, s.M.WriteBufferOps = c.WriteBuffer, ops
	if err := writeManifest(c.Store, s.M); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	return nil
}

// Leaks counts the pages allocated on s that neither the EPST whose header
// is hdr nor tx's metadata (tx may be nil) reaches, and with free set
// reclaims them. It is the one reachability check: the boot and promotion
// scrubs free, a drain and an offline post-mortem only count.
func Leaks(s eio.Store, hdr eio.PageID, tx *eio.TxStore, free bool) (int, error) {
	idx, err := core.OpenThreeSided(s, hdr)
	if err != nil {
		return 0, fmt.Errorf("open tree: %w", err)
	}
	reachable, err := idx.Tree().AppendAllPages(nil)
	if err != nil {
		return 0, fmt.Errorf("reachability walk: %w", err)
	}
	if tx != nil {
		meta, err := tx.MetaPages()
		if err != nil {
			return 0, fmt.Errorf("tx meta pages: %w", err)
		}
		reachable = append(reachable, meta...)
	}
	find := eio.FindLeaks
	if free {
		find = eio.Scrub
	}
	rep, err := find(s, reachable)
	if err != nil {
		return 0, fmt.Errorf("leak check: %w", err)
	}
	return len(rep.Leaked), nil
}

// Scrub reclaims the pages a SIGKILL stranded, under the engine's write
// barrier: SnapStore defers frees to the next epoch commit and TxStore
// holds them to the next checkpoint, so a crash leaks (never corrupts) the
// pages freed since the last one. After WAL recovery the tree is
// consistent, so anything outside its exact reachability set (plus the
// transactional metadata) is garbage. On a promoted follower it reclaims
// what the old primary freed without telling it (frees are never shipped).
func (s *Stack) Scrub() (int, error) {
	var n int
	err := s.Conc.Barrier(func() (err error) {
		if n, err = Leaks(s.Tx, s.M.Hdr, s.Tx, true); err == nil && n > 0 {
			err = s.Tx.Sync()
		}
		return err
	})
	if err != nil {
		return n, fmt.Errorf("boot scrub: %w", err)
	}
	return n, nil
}

// Drain runs the shutdown storage protocol: fold the write buffer into the
// base and truncate its journal, unpin the serving view, commit the final
// epoch (handing deferred frees down), verify page-exact reachability,
// checkpoint and sync (releasing the held frees), close. It returns the
// number of leaked pages. A follower's store legitimately holds pages its
// primary freed, so a follower only checkpoints — it reopens with nothing
// to replay — and reports none.
func (s *Stack) Drain() (int, error) {
	if s.Buf != nil {
		if err := s.Buf.Close(); err != nil {
			return 0, fmt.Errorf("write buffer: %w", err)
		}
		if d := s.Buf.Depth(); d != 0 {
			return 0, fmt.Errorf("write buffer left %d buffered ops", d)
		}
	}
	s.Conc.Close()
	if _, err := s.snap.Commit(); err != nil {
		return 0, fmt.Errorf("final commit: %w", err)
	}
	leaked := 0
	var err error
	if s.txr != nil {
		err = s.txr.Checkpoint()
	} else if leaked, err = Leaks(s.snap, s.M.Hdr, s.Tx, false); err == nil && s.Tx != nil {
		err = s.Tx.Sync()
	}
	if err != nil {
		return leaked, err
	}
	if err := s.snap.Close(); err != nil {
		return leaked, fmt.Errorf("close: %w", err)
	}
	return leaked, nil
}

// Clone replaces a replica's store with the page images fill hands to
// put, records m as its manifest and opens the result as a follower.
func (c Config) Clone(m *Manifest, fill func(put func(id uint64, image []byte) error) error) (*Stack, error) {
	_ = os.Remove(c.Store)
	_ = os.Remove(ManifestPath(c.Store))
	fs, err := eio.CreateFileStore(c.Store, m.PageSize)
	if err != nil {
		return nil, err
	}
	err = fill(func(id uint64, image []byte) error {
		if err := fs.EnsurePage(eio.PageID(id)); err != nil {
			return err
		}
		return fs.Write(eio.PageID(id), image)
	})
	if err == nil {
		err = fs.Sync()
	}
	if cerr := fs.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(c.Store)
		return nil, fmt.Errorf("receive snapshot: %w", err)
	}
	if err := writeManifest(c.Store, m); err != nil {
		return nil, err
	}
	return c.openFile(m)
}

// Applied is the stack's durable log position.
func (s *Stack) Applied() uint64 {
	if s.txr != nil {
		return s.txr.AppliedLSN()
	}
	return s.Tx.AppliedLSN()
}

// Apply replays one shipped record on a follower and publishes it as an
// epoch, returning the new applied LSN.
func (s *Stack) Apply(rec []byte) (uint64, error) {
	if _, err := s.txr.ApplyRecord(rec); err != nil {
		return 0, err
	}
	if _, err := s.snap.Commit(); err != nil {
		return 0, err
	}
	return s.txr.AppliedLSN(), nil
}

// Promote reopens a follower whose apply loop has stopped as a writable
// durable stack over the same file and manifest. A checkpoint first makes
// the anchors exact, so OpenTxStore's recovery is a no-op: no replay
// writes behind the follower's pinned readers.
func (s *Stack) Promote() (*Stack, error) {
	if err := s.txr.Checkpoint(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	tx, err := eio.OpenTxStore(s.fs, s.M.Anchor)
	if err != nil {
		return nil, fmt.Errorf("reopen tx layer: %w", err)
	}
	return assemble(eio.NewSnapStore(tx, 0), s.M, tx, nil)
}

// Close abandons a follower: it closes the engine and the file, not the
// SnapStore, whose Close would close the file a second time.
func (s *Stack) Close() {
	s.Conc.Close()
	s.fs.Close()
}
