package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
)

// writeStoreWithManifest creates a real durable store (so buildFile takes
// the reopen path), then lets the test replace its manifest.
func writeStoreWithManifest(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "points.db")
	st, err := buildFile(path, 4096, true, eio.DefaultWALPages, 0, true)
	if err != nil {
		t.Fatalf("create store: %v", err)
	}
	if leaked, err := st.drainClean(); err != nil || leaked != 0 {
		t.Fatalf("drainClean: leaked=%d err=%v", leaked, err)
	}
	return path
}

func reopenWantErr(t *testing.T, path, wantSubstr string) {
	t.Helper()
	st, err := buildFile(path, 4096, true, eio.DefaultWALPages, 0, true)
	if err == nil {
		st.drainClean()
		t.Fatalf("reopen with bad manifest succeeded, want error containing %q", wantSubstr)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Fatalf("reopen error = %q, want it to mention %q", err, wantSubstr)
	}
}

func TestManifestCorruptJSON(t *testing.T) {
	path := writeStoreWithManifest(t)
	if err := os.WriteFile(manifestPath(path), []byte("{\"page_size\": 4096, garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	reopenWantErr(t, path, "not valid JSON")
}

func TestManifestTruncated(t *testing.T) {
	path := writeStoreWithManifest(t)
	raw, err := os.ReadFile(manifestPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifestPath(path), raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	reopenWantErr(t, path, "manifest")
}

func TestManifestEmptyObject(t *testing.T) {
	// "{}" is valid JSON but a zero-value manifest: without validation it
	// would misopen the store at page 0.
	path := writeStoreWithManifest(t)
	if err := os.WriteFile(manifestPath(path), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	reopenWantErr(t, path, "page_size")
}

func TestManifestMissingHdr(t *testing.T) {
	path := writeStoreWithManifest(t)
	if err := os.WriteFile(manifestPath(path), []byte(`{"page_size":4096,"durable":true,"anchor":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	reopenWantErr(t, path, "hdr")
}

func TestManifestDurableWithoutAnchor(t *testing.T) {
	path := writeStoreWithManifest(t)
	if err := os.WriteFile(manifestPath(path), []byte(`{"page_size":4096,"durable":true,"hdr":12}`), 0o644); err != nil {
		t.Fatal(err)
	}
	reopenWantErr(t, path, "anchor")
}

func TestManifestMissing(t *testing.T) {
	path := writeStoreWithManifest(t)
	if err := os.Remove(manifestPath(path)); err != nil {
		t.Fatal(err)
	}
	reopenWantErr(t, path, "manifest is unreadable")
}

// TestReopenRoundTrip pins the happy path the validation must not break:
// create, write, drain, reopen, read back.
func TestReopenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "points.db")
	st, err := buildFile(path, 4096, true, eio.DefaultWALPages, 0, true)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := st.conc.Insert(geom.Point{X: 1, Y: 2}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if leaked, err := st.drainClean(); err != nil || leaked != 0 {
		t.Fatalf("drainClean: leaked=%d err=%v", leaked, err)
	}

	st2, err := buildFile(path, 4096, true, eio.DefaultWALPages, 0, true)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	pts, err := st2.conc.Query(nil, geom.Rect{XLo: 0, XHi: 10, YLo: 0, YHi: 10})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(pts) != 1 || pts[0] != (geom.Point{X: 1, Y: 2}) {
		t.Fatalf("reopened store returned %v, want [{1 2}]", pts)
	}
	if leaked, err := st2.drainClean(); err != nil || leaked != 0 {
		t.Fatalf("second drainClean: leaked=%d err=%v", leaked, err)
	}
}
