package node

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rangesearch/internal/core"
	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
	"rangesearch/internal/wbuf"
)

// fileConfig is what rsserve's flag defaults give `-store path`.
func fileConfig(path string) Config {
	return Config{Store: path, PageSize: 4096, Durable: true, WALPages: DefaultWALPages,
		WriteBufferOps: wbuf.DefaultMaxOps, WriteBufferAge: wbuf.DefaultMaxAge}
}

func drain(t *testing.T, st *Stack) {
	t.Helper()
	if leaked, err := st.Drain(); err != nil || leaked != 0 {
		t.Fatalf("Drain: leaked=%d err=%v", leaked, err)
	}
}

// writeStoreWithManifest creates a real durable store (so Build takes the
// reopen path), then lets the test replace its manifest.
func writeStoreWithManifest(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "points.db")
	st, err := Build(fileConfig(path))
	if err != nil {
		t.Fatalf("create store: %v", err)
	}
	drain(t, st)
	return path
}

func reopenWantErr(t *testing.T, path, wantSubstr string) {
	t.Helper()
	st, err := Build(fileConfig(path))
	if err == nil {
		st.Drain()
		t.Fatalf("reopen with bad manifest succeeded, want error containing %q", wantSubstr)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Fatalf("reopen error = %q, want it to mention %q", err, wantSubstr)
	}
}

func TestManifestCorruptJSON(t *testing.T) {
	path := writeStoreWithManifest(t)
	if err := os.WriteFile(ManifestPath(path), []byte("{\"page_size\": 4096, garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	reopenWantErr(t, path, "not valid JSON")
}

func TestManifestTruncated(t *testing.T) {
	path := writeStoreWithManifest(t)
	raw, err := os.ReadFile(ManifestPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ManifestPath(path), raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	reopenWantErr(t, path, "manifest")
}

func TestManifestEmptyObject(t *testing.T) {
	// "{}" is valid JSON but a zero-value manifest: without validation it
	// would misopen the store at page 0.
	path := writeStoreWithManifest(t)
	if err := os.WriteFile(ManifestPath(path), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	reopenWantErr(t, path, "page_size")
}

func TestManifestMissingHdr(t *testing.T) {
	path := writeStoreWithManifest(t)
	if err := os.WriteFile(ManifestPath(path), []byte(`{"page_size":4096,"durable":true,"anchor":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	reopenWantErr(t, path, "hdr")
}

func TestManifestDurableWithoutAnchor(t *testing.T) {
	path := writeStoreWithManifest(t)
	if err := os.WriteFile(ManifestPath(path), []byte(`{"page_size":4096,"durable":true,"hdr":12}`), 0o644); err != nil {
		t.Fatal(err)
	}
	reopenWantErr(t, path, "anchor")
}

func TestManifestMissing(t *testing.T) {
	path := writeStoreWithManifest(t)
	if err := os.Remove(ManifestPath(path)); err != nil {
		t.Fatal(err)
	}
	reopenWantErr(t, path, "manifest is unreadable")
}

// TestManifestLeftoverTemp: a crash inside writeManifest leaves at most a
// partial temporary file beside an intact manifest. ReadManifest must not
// see it, and the next write must replace it.
func TestManifestLeftoverTemp(t *testing.T) {
	store := filepath.Join(t.TempDir(), "points.db")
	want := Manifest{PageSize: 4096, Durable: true, Hdr: 7, Anchor: 3, Term: 2, Role: "primary"}
	if err := writeManifest(store, &want); err != nil {
		t.Fatal(err)
	}
	tmp := ManifestPath(store) + ".tmp"
	if err := os.WriteFile(tmp, []byte(`{"page_size": 4096, "term": 3, "du`), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadManifest(store); err != nil || *got != want {
		t.Fatalf("ReadManifest beside a partial temp file = %+v, %v; want %+v", got, err, want)
	}
	want.Term = 3
	if err := writeManifest(store, &want); err != nil {
		t.Fatalf("writeManifest over a leftover temp file: %v", err)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file still present after the next write (stat: %v)", err)
	}
	if got, err := ReadManifest(store); err != nil || *got != want {
		t.Fatalf("ReadManifest after the next write = %+v, %v; want %+v", got, err, want)
	}
}

// TestReopenRoundTrip pins the happy path the validation must not break:
// create, write, drain, reopen, read back.
func TestReopenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "points.db")
	st, err := Build(fileConfig(path))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := st.Conc.Insert(geom.Point{X: 1, Y: 2}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	drain(t, st)

	st2, err := Build(fileConfig(path))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	pts, err := st2.Conc.Query(nil, geom.Rect{XLo: 0, XHi: 10, YLo: 0, YHi: 10})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(pts) != 1 || pts[0] != (geom.Point{X: 1, Y: 2}) {
		t.Fatalf("reopened store returned %v, want [{1 2}]", pts)
	}
	drain(t, st2)
}

// TestDefaultWALHoldsGroupCommit commits core.Concurrent's largest group
// commit, one Apply run of 64 inserts, 320 times on the stack rsserve's flag
// defaults build. The inserts spread over x, so batches run through root
// splits and Θ(B²) structure rebuilds; none may overflow the WAL.
func TestDefaultWALHoldsGroupCommit(t *testing.T) {
	st, err := Build(fileConfig(filepath.Join(t.TempDir(), "points.db")))
	if err != nil {
		t.Fatal(err)
	}
	height := func() int {
		idx, err := core.OpenThreeSided(st.snap, st.M.Hdr)
		if err != nil {
			t.Fatal(err)
		}
		h, err := idx.Tree().Height()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	const batch, batches = 64, 320
	ops := make([]core.BatchOp, batch)
	var h0 int
	for b := 0; b < batches; b++ {
		for i := range ops {
			x := int64(b*batch + i)
			ops[i] = core.BatchOp{P: geom.Point{X: x * 7919 % 1000003, Y: x}}
		}
		for i, r := range st.Engine().Apply(ops, nil) {
			if r.Err != nil {
				t.Fatalf("batch %d op %d: %v", b, i, r.Err)
			}
		}
		if b == 0 {
			h0 = height()
		}
	}
	if h := height(); h <= h0 {
		t.Fatalf("tree height %d after %d points, %d after the first batch: no root split exercised", h, batch*batches, h0)
	}
	drain(t, st)
}

// mode is one row of the cross product the mode table is written against.
type mode struct {
	file, durable, buffered bool
	pool                    int
}

func modes() []mode {
	var out []mode
	for _, file := range []bool{false, true} {
		for _, durable := range []bool{true, false} {
			for _, pool := range []int{0, 8} {
				for _, buffered := range []bool{false, true} {
					out = append(out, mode{file, durable, buffered, pool})
				}
			}
		}
	}
	return out
}

// flags is the rsserve command line of the row.
func (m mode) flags() string {
	f := "-mem"
	if m.file {
		f = "-store X"
	}
	if !m.durable {
		f += " -durable=false"
	}
	if m.pool > 0 {
		f += fmt.Sprintf(" -pool %d", m.pool)
	}
	if m.buffered {
		f += " -write-buffer"
	}
	return f
}

func (m mode) config(store string) Config {
	c := Config{PageSize: 512, Durable: m.durable, WALPages: 4096, PoolPages: m.pool,
		WriteBuffer: m.buffered, WriteBufferOps: 64}
	if m.file {
		c.Store = store
	} else {
		c.Mem = true
	}
	return c
}

// layers is what Build stacks for an accepted row, bottom up.
func (m mode) layers() string {
	l := "MemStore"
	switch {
	case m.file && m.durable:
		l = "FileStore → TxStore"
	case m.file && m.pool > 0:
		l = "FileStore → Pool"
	case m.file:
		l = "FileStore"
	}
	l += " → SnapStore → TraceStore → ThreeSided"
	if m.file && m.durable {
		l += " → Durable"
	}
	l += " → Concurrent"
	if m.buffered {
		l += " → Buffered"
	}
	return l
}

func (m mode) durability() string {
	switch {
	case !m.file:
		return "no: RAM only"
	case !m.durable:
		return "no: only a clean drain syncs the file"
	case m.buffered:
		return "yes: the `.wbuf` journal (one fsync per ack) until a flush moves it into the WAL"
	}
	return "yes: the WAL, one fsync per group commit"
}

// writes drives inserts and deletes through the engine and returns the
// number of points it leaves.
func writes(t *testing.T, eng core.Engine) int {
	t.Helper()
	n := 0
	for b := 0; b < 12; b++ {
		ops := make([]core.BatchOp, 0, 80)
		for i := 0; i < 80; i++ {
			x := int64(b*80 + i)
			ops = append(ops, core.BatchOp{P: geom.Point{X: x * 7919 % 100003, Y: x}})
			if i%4 == 3 {
				ops = append(ops, core.BatchOp{Delete: true, P: geom.Point{X: (x - 1) * 7919 % 100003, Y: x - 1}})
			}
		}
		for i, r := range eng.Apply(ops, nil) {
			if r.Err != nil || ops[i].Delete && !r.Found {
				t.Fatalf("batch %d op %d: found=%v err=%v", b, i, r.Found, r.Err)
			}
			if ops[i].Delete {
				n--
			} else {
				n++
			}
		}
	}
	return n
}

// TestModes builds every row of {mem, file} × {durable, volatile} ×
// {no pool, pool} × {write buffer or not}. A row Validate accepts must
// build, take writes, drain with no leaked page and, on a file, reopen
// with the same Len and nothing to recover; a row it refuses must fail
// before it creates any file.
func TestModes(t *testing.T) {
	for _, m := range modes() {
		t.Run(strings.ReplaceAll(m.flags(), " ", ""), func(t *testing.T) {
			dir := t.TempDir()
			c := m.config(filepath.Join(dir, "points.db"))
			var refusal *Refusal
			err := c.Validate()
			if refused := m.pool > 0 && (!m.file || m.durable); refused != errors.As(err, &refusal) {
				t.Fatalf("Validate = %v, want refused=%v", err, refused)
			}
			if refusal != nil {
				if st, err := Build(c); err == nil {
					st.Drain()
					t.Fatal("Build accepted a row Validate refuses")
				}
				if ents, _ := os.ReadDir(dir); len(ents) != 0 {
					t.Fatalf("refused row left %d files behind", len(ents))
				}
				return
			}
			st, err := Build(c)
			if err != nil {
				t.Fatal(err)
			}
			want := writes(t, st.Engine())
			drain(t, st)
			if !m.file {
				return
			}
			if st, err = Build(c); err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if ri := st.Boot.Recovery; ri.Dirty() {
				t.Errorf("reopen after a clean drain recovered: %s", ri)
			}
			if n, err := st.Engine().Len(); err != nil || n != want {
				t.Errorf("reopened Len = %d, %v; want %d", n, err, want)
			}
			drain(t, st)
		})
	}
}

// TestValidateRules hits every rule of the mode table with the exit code
// and message rsserve reports, and checks -force-primary lifts the
// replica-role rule by taking the store over at the next term.
func TestValidateRules(t *testing.T) {
	dir := t.TempDir()
	store := func(name string, m *Manifest) string {
		path := filepath.Join(dir, name)
		st, err := Build(fileConfig(path))
		if err != nil {
			t.Fatal(err)
		}
		drain(t, st)
		if m != nil {
			st.M.Role, st.M.Durable = m.Role, m.Durable
			if err := writeManifest(path, st.M); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	fresh := filepath.Join(dir, "fresh.db")
	journaled := store("journaled.db", nil)
	if err := os.WriteFile(JournalPath(journaled), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	durable := store("durable.db", nil)
	replica := store("replica.db", &Manifest{Role: "replica", Durable: true})
	volatile := store("volatile.db", &Manifest{Durable: false})
	with := func(c Config, f func(*Config)) Config { f(&c); return c }

	cases := []struct {
		rule int
		c    Config
	}{
		{0, with(fileConfig(""), func(c *Config) {})},
		{0, with(fileConfig(fresh), func(c *Config) { c.Mem = true })},
		{1, with(fileConfig(""), func(c *Config) { c.Mem, c.Role = true, Primary })},
		{1, with(fileConfig(fresh), func(c *Config) { c.Durable, c.Role = false, Replica })},
		{2, with(fileConfig(fresh), func(c *Config) { c.WriteBuffer, c.Role = true, Primary })},
		{3, with(fileConfig(journaled), func(c *Config) { c.Role = Replica })},
		{4, with(fileConfig(fresh), func(c *Config) { c.WriteBufferOps = 0 })},
		{5, with(fileConfig(""), func(c *Config) { c.Mem, c.PoolPages = true, 8 })},
		{6, with(fileConfig(fresh), func(c *Config) { c.PoolPages = 8 })},
		{6, with(fileConfig(durable), func(c *Config) { c.Durable, c.PoolPages = false, 8 })},
		{7, fileConfig(replica)},
		{7, with(fileConfig(replica), func(c *Config) { c.Role = Primary })},
		{8, with(fileConfig(volatile), func(c *Config) { c.Role = Primary })},
	}
	hit := make([]bool, len(rules))
	for _, tc := range cases {
		var r *Refusal
		if err := tc.c.Validate(); !errors.As(err, &r) {
			t.Errorf("%+v: Validate = %v, want rule %d", tc.c, err, tc.rule)
			continue
		}
		want := strings.NewReplacer("{store}", tc.c.Store, "{journal}", JournalPath(tc.c.Store)).Replace(rules[tc.rule].msg)
		if r.Code != rules[tc.rule].code || r.Msg != want {
			t.Errorf("%+v: refused with exit %d %q, want rule %d", tc.c, r.Code, r.Msg, tc.rule)
		}
		hit[tc.rule] = true
	}
	for i, ok := range hit {
		if !ok {
			t.Errorf("rule %d (%q) has no case", i, rules[i].msg)
		}
	}
	if _, err := os.Stat(fresh); !os.IsNotExist(err) {
		t.Errorf("Validate created %s", fresh)
	}

	// A volatile store reopened under the default -durable keeps its pool:
	// the manifest, not the flag, decides durability.
	if err := with(fileConfig(volatile), func(c *Config) { c.PoolPages = 8 }).Validate(); err != nil {
		t.Errorf("-pool on a reopened volatile store: %v", err)
	}
	forced := with(fileConfig(replica), func(c *Config) { c.ForcePrimary = true })
	st, err := Build(forced)
	if err != nil {
		t.Fatalf("-force-primary: %v", err)
	}
	if st.Boot.ForcedTerm != 1 || st.M.Role != "primary" {
		t.Errorf("-force-primary: term %d role %q, want 1 primary", st.Boot.ForcedTerm, st.M.Role)
	}
	drain(t, st)
	if err := fileConfig(replica).Validate(); err != nil {
		t.Errorf("after -force-primary the store still reads as a replica: %v", err)
	}
}

// TestOrphanedJournalFoldsIn crashes a buffered store with every ack
// still in the journal and reopens the crash image without -write-buffer:
// Build must replay the journal into the store.
func TestOrphanedJournalFoldsIn(t *testing.T) {
	dir := t.TempDir()
	c := fileConfig(filepath.Join(dir, "live.db"))
	c.WriteBuffer, c.WriteBufferAge = true, 0
	st, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	want := writes(t, st.Engine())
	if st.Buf.Depth() == 0 {
		t.Fatal("nothing left in the buffer to orphan")
	}
	// The crash image: the files as they stand with the buffer unflushed.
	crashed := filepath.Join(dir, "crashed.db")
	for _, suffix := range []string{"", ".manifest.json", ".wbuf"} {
		raw, err := os.ReadFile(c.Store + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(crashed+suffix, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, st)

	st, err = Build(fileConfig(crashed))
	if err != nil {
		t.Fatal(err)
	}
	if st.Boot.Orphan != JournalPath(crashed) {
		t.Errorf("Boot.Orphan = %q, want the journal", st.Boot.Orphan)
	}
	if n, err := st.Engine().Len(); err != nil || n != want {
		t.Errorf("Len after the plain reopen = %d, %v; want %d", n, err, want)
	}
	if st.M.WriteBuffer {
		t.Error("manifest still records -write-buffer")
	}
	drain(t, st)
	if fi, err := os.Stat(JournalPath(crashed)); err != nil {
		t.Error(err)
	} else if fi.Size() != 0 {
		t.Errorf("the journal still holds %d bytes after the fold", fi.Size())
	}
}

// TestDesignModeTable keeps DESIGN.md's mode table in step with Validate:
// the table is rendered from Validate's verdict on every row and from the
// rules themselves.
func TestDesignModeTable(t *testing.T) {
	var b strings.Builder
	b.WriteString("| flags | layers, bottom up | an acked write survives a crash | refused |\n|---|---|---|---|\n")
	for _, m := range modes() {
		layers, durability, refused := m.layers(), m.durability(), ""
		var r *Refusal
		if errors.As(m.config("X").Validate(), &r) {
			layers, durability, refused = "—", "—", fmt.Sprintf("exit %d: %s", r.Code, r.Msg)
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", m.flags(), layers, durability, refused)
	}
	b.WriteString("\nEvery rule, in the order `Validate` checks it:\n\n")
	for _, r := range rules {
		fmt.Fprintf(&b, "- exit %d: %s\n", r.code, r.msg)
	}
	design, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(design), b.String()) {
		t.Errorf("DESIGN.md's mode table is stale; it should read:\n%s", b.String())
	}
}

// TestFollowerLifecycle walks a replica's stack through its life: nothing
// before the first sync, a clone of a primary's image with the primary's
// later records applied on top, a drain and reopen, and a promotion to a
// writable stack that scrubs, takes writes and drains leak-free.
func TestFollowerLifecycle(t *testing.T) {
	dir := t.TempDir()
	primary, err := Build(fileConfig(filepath.Join(dir, "primary.db")))
	if err != nil {
		t.Fatal(err)
	}
	// The image a snapshot session ships: every live page under the
	// write barrier, where the store is checkpointed and quiescent.
	image := map[eio.PageID][]byte{}
	err = primary.Conc.Barrier(func() error {
		ids, err := primary.Tx.LivePageIDs()
		for _, id := range ids {
			image[id] = make([]byte, primary.M.PageSize)
			if err == nil {
				err = primary.Tx.Read(id, image[id])
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var records [][]byte
	primary.Tx.SetCommitHook(func(_ uint64, rec []byte) { records = append(records, append([]byte(nil), rec...)) })
	want := writes(t, primary.Engine())

	rc := fileConfig(filepath.Join(dir, "replica.db"))
	rc.Role = Replica
	if st, err := Build(rc); st != nil || err != nil {
		t.Fatalf("Build before the first sync = %v, %v; want nothing", st, err)
	}
	st, err := rc.Clone(&Manifest{PageSize: primary.M.PageSize, Durable: true, Hdr: primary.M.Hdr,
		Anchor: primary.M.Anchor, Role: "replica"}, func(put func(uint64, []byte) error) error {
		for id, img := range image {
			if err := put(uint64(id), img); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}
	for _, rec := range records {
		if _, err := st.Apply(rec); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	if st.Applied() != primary.Applied() {
		t.Errorf("follower at lsn %d, primary at %d", st.Applied(), primary.Applied())
	}
	drain(t, primary)
	drain(t, st)

	if st, err = Build(rc); err != nil {
		t.Fatalf("reopen follower: %v", err)
	}
	if n, err := st.Engine().Len(); err != nil || n != want {
		t.Errorf("follower Len = %d, %v; want %d", n, err, want)
	}
	if r := st.Engine().Apply([]core.BatchOp{{P: geom.Point{X: -1, Y: -1}}}, nil)[0]; !errors.Is(r.Err, core.ErrNotPrimary) {
		t.Errorf("follower write: %v, want ErrNotPrimary", r.Err)
	}
	promoted, err := st.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	st.Conc.Close()
	if _, err := promoted.Scrub(); err != nil {
		t.Fatalf("promotion scrub: %v", err)
	}
	if err := promoted.Conc.Insert(geom.Point{X: -1, Y: -1}); err != nil {
		t.Fatalf("promoted write: %v", err)
	}
	if n, err := promoted.Engine().Len(); err != nil || n != want+1 {
		t.Errorf("promoted Len = %d, %v; want %d", n, err, want+1)
	}
	drain(t, promoted)
}
