package node

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"rangesearch/internal/eio"
)

// Manifest remembers, next to a file-backed store, everything needed to
// reopen it: the page ids that anchor the structure and the transactional
// layer, and the geometry the store was created with.
type Manifest struct {
	PageSize int        `json:"page_size"`
	Durable  bool       `json:"durable"`
	WALPages int        `json:"wal_pages,omitempty"`
	Hdr      eio.PageID `json:"hdr"`
	Anchor   eio.PageID `json:"anchor,omitempty"`
	// Term is the replication fencing term: the monotonic counter that
	// orders primary lineages. It is persisted BEFORE the store accepts
	// any write under it, so a resurrected process knows which lineage
	// its data belongs to.
	Term uint64 `json:"term,omitempty"`
	// Role is what the store last ran as: "" or "primary", "replica", or
	// "fenced" (an ex-primary that learned of a newer term and must not
	// accept writes until re-replicated or explicitly forced).
	Role string `json:"role,omitempty"`
	// WriteBuffer records that the store last ran in write-optimized
	// mode, so tooling (and the next boot) knows a sidecar write-buffer
	// journal may hold acknowledged-but-unflushed updates. The journal is
	// replayed on reopen even if -write-buffer is absent — acked writes
	// must never depend on the operator remembering a flag.
	WriteBuffer bool `json:"write_buffer,omitempty"`
	// WriteBufferOps is the flush threshold the buffer last ran with.
	WriteBufferOps int `json:"write_buffer_ops,omitempty"`
}

// ManifestPath is where the manifest of the store at store lives.
func ManifestPath(store string) string { return store + ".manifest.json" }

// JournalPath is the store's sidecar write-buffer journal.
func JournalPath(store string) string { return store + ".wbuf" }

// validate rejects manifests that parse but cannot describe a real store
// — a truncated or hand-edited file must fail here with a diagnostic, not
// downstream as a zero-value misopen of page 0.
func (m *Manifest) validate(path string) error {
	switch {
	case m.PageSize <= 0:
		return fmt.Errorf("manifest %s: page_size %d is not positive", path, m.PageSize)
	case m.Hdr == eio.NilPage:
		return fmt.Errorf("manifest %s: hdr is missing or nil — no structure root to open", path)
	case m.Durable && m.Anchor == eio.NilPage:
		return fmt.Errorf("manifest %s: durable store without an anchor — cannot run WAL recovery", path)
	case m.WALPages < 0:
		return fmt.Errorf("manifest %s: negative wal_pages %d", path, m.WALPages)
	case m.WriteBufferOps < 0:
		return fmt.Errorf("manifest %s: negative write_buffer_ops %d", path, m.WriteBufferOps)
	}
	switch m.Role {
	case "", "primary", "replica", "fenced":
	default:
		return fmt.Errorf("manifest %s: unknown role %q", path, m.Role)
	}
	return nil
}

// ReadManifest reads and validates the manifest of the store at store.
func ReadManifest(store string) (*Manifest, error) {
	path := ManifestPath(store)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("manifest %s: not valid JSON (corrupt or truncated?): %w", path, err)
	}
	if err := m.validate(path); err != nil {
		return nil, err
	}
	return &m, nil
}

// WriteManifest records m as the manifest of the store at store, durably
// and atomically: the bytes go to a temporary file, which is synced and
// renamed over the manifest, and then the directory is synced so the
// rename survives a crash. A crash leaves the old manifest or the new one,
// never a torn one. ReadManifest never reads the temporary file, and the
// next write replaces whatever a crash left of it.
func WriteManifest(store string, m *Manifest) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	path := ManifestPath(store)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(raw, '\n'))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("sync directory of %s: %w", path, err)
	}
	return nil
}
