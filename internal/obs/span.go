package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"rangesearch/internal/trace"
)

// This file holds the request-span recorders: a ring buffer of finished
// spans (the flight recorder behind the /spans endpoint) and a JSONL spool
// with its matching streaming reader, replayed by `rsinspect spans`.

// SpanRing keeps the most recent sampled request spans in a fixed
// capacity ring. It implements the server's SpanRecorder: RecordSpan
// never blocks beyond a short mutex hold and never fails.
type SpanRing struct {
	mu    sync.Mutex
	buf   []trace.Record
	next  int
	total uint64
}

// NewSpanRing returns a ring holding the last capacity spans
// (capacity ≥ 1).
func NewSpanRing(capacity int) *SpanRing {
	if capacity < 1 {
		panic("obs: span ring capacity must be at least 1")
	}
	return &SpanRing{buf: make([]trace.Record, 0, capacity)}
}

// RecordSpan adds one finished span to the ring, evicting the oldest
// retained span once the ring is full.
func (r *SpanRing) RecordSpan(rec trace.Record) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, rec)
	} else {
		r.buf[r.next] = rec
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
	r.mu.Unlock()
}

// Total returns the number of spans ever recorded (≥ len(Snapshot())).
func (r *SpanRing) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Cap returns the ring capacity.
func (r *SpanRing) Cap() int { return cap(r.buf) }

// Snapshot returns the retained spans, oldest first.
func (r *SpanRing) Snapshot() []trace.Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]trace.Record, 0, len(r.buf))
	if len(r.buf) == cap(r.buf) {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// WriteTo dumps the retained spans to w as JSONL, oldest first — the
// same schema SpanWriter spools, so `rsinspect spans` reads both.
func (r *SpanRing) WriteTo(w io.Writer) (int64, error) {
	var n int64
	bw := bufio.NewWriter(w)
	for _, rec := range r.Snapshot() {
		line, err := json.Marshal(rec)
		if err != nil {
			return n, err
		}
		wn, err := bw.Write(line)
		n += int64(wn)
		if err != nil {
			return n, err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return n, err
		}
		n++
	}
	return n, bw.Flush()
}

// SpanWriter spools finished spans to a writer as newline-delimited
// JSON (one trace.Record per line). Writes are buffered and the first
// write error is sticky: tracing must never turn a served
// request into a failure, so RecordSpan cannot fail.
type SpanWriter struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer // nil unless the writer owns the underlying file
	err error
}

// NewSpanWriter wraps w. The caller keeps ownership of w.
func NewSpanWriter(w io.Writer) *SpanWriter {
	return &SpanWriter{w: bufio.NewWriter(w)}
}

// CreateSpanFile creates (truncating) a span spool at path; Close the
// writer to flush and release it.
func CreateSpanFile(path string) (*SpanWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &SpanWriter{w: bufio.NewWriter(f), c: f}, nil
}

// RecordSpan implements the server's SpanRecorder.
func (s *SpanWriter) RecordSpan(rec trace.Record) {
	line, _ := json.Marshal(rec)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if _, err := s.w.Write(line); err != nil {
		s.err = err
		return
	}
	if err := s.w.WriteByte('\n'); err != nil {
		s.err = err
	}
}

// Flush writes buffered spans through to the underlying writer.
func (s *SpanWriter) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}

// Err returns the first write error, if any.
func (s *SpanWriter) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close flushes and, for file-backed writers, closes the file.
func (s *SpanWriter) Close() error {
	err := s.Flush()
	s.mu.Lock()
	c := s.c
	s.c = nil
	s.mu.Unlock()
	if c != nil {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// MultiSpanRecorder fans each span out to every member, in order. Both
// members must accept RecordSpan concurrently.
type MultiSpanRecorder []interface{ RecordSpan(trace.Record) }

// RecordSpan implements the server's SpanRecorder.
func (m MultiSpanRecorder) RecordSpan(rec trace.Record) {
	for _, r := range m {
		r.RecordSpan(rec)
	}
}

// ReadSpans parses a span JSONL stream written by SpanWriter (or the
// /spans endpoint), collecting every record.
func ReadSpans(r io.Reader) ([]trace.Record, error) {
	var out []trace.Record
	err := ScanSpans(r, func(rec trace.Record) error {
		out = append(out, rec)
		return nil
	})
	return out, err
}

// ScanSpans parses a span JSONL stream, calling fn for each record in
// order. It streams line by line, so spools larger than memory still
// summarize.
func ScanSpans(r io.Reader, fn func(trace.Record) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec trace.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("obs: span line %d: %w", lineNo, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return sc.Err()
}

// spanRing is the ring the diagnostics server's /spans endpoint drains.
var spanRing atomic.Pointer[SpanRing]

// SetSpanRing points the /spans endpoint (on every MetricsServer) at r.
// Pass nil to detach; /spans then answers 404.
func SetSpanRing(r *SpanRing) { spanRing.Store(r) }
