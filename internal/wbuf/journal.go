// Package wbuf is the write-optimized update path (dynamic
// indexability): a Buffered decorator absorbs INSERT/DELETE into an
// in-memory delta buffer and answers queries by merging the buffered
// deltas with the base structure, so a write costs a tiny journal
// append instead of a full O(log_B N) structural update. The buffer is
// bulk-flushed through the existing group-commit plumbing
// (core.Durable.Batch / core.Engine.Apply) when it crosses a
// size or age threshold, dropping amortized update I/O toward
// o(log_B N) — the tradeoff Yi's dynamic-indexability bound says
// buffering is *required* to reach.
//
// Crash safety comes from a sidecar journal: every buffered-but-
// unflushed operation is appended to a checksummed record log (CRC-32C
// with sequence mixing, the eio convention) and fsynced — group-
// committed across concurrent writers — before the write is
// acknowledged. Reopen replays the journal through the same staging
// logic; replay is idempotent against any flush prefix, so a crash
// anywhere between "record durable" and "journal truncated after
// flush" converges to exactly the acknowledged state.
package wbuf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"rangesearch/internal/core"
	"rangesearch/internal/geom"
)

// Journal record layout (little-endian, matching eio):
//
//	magic  uint32  journalMagic
//	seq    uint64  strictly increasing from 1 within one journal file
//	count  uint32  operations in this record, 1..MaxRecordOps
//	ops    count × 17 bytes: kind(1) x(8) y(8)
//	crc    uint32  CRC-32C over the record bytes before it, mixed with seq
//
// A record is the unit of durability: one group commit appends one or
// more whole records and fsyncs. Replay stops at the first record that
// fails to decode — a torn tail from a crash mid-append — and truncates
// it away; everything before the tear is exactly the acknowledged
// prefix.
const (
	journalMagic = 0x5742_4a31 // "WBJ1"

	recHeaderSize = 4 + 8 + 4 // magic + seq + count
	recOpSize     = 1 + 8 + 8 // kind + x + y
	recTrailerLen = 4         // crc

	// MaxRecordOps bounds one record so a corrupt count can never force
	// a huge allocation during decode.
	MaxRecordOps = 1 << 16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrJournalCorrupt reports a record that is structurally invalid or
// fails its checksum. During replay it marks the torn tail, not a fatal
// condition.
var ErrJournalCorrupt = errors.New("wbuf: journal record corrupt")

// recCRC checksums a record's bytes with its sequence number mixed in,
// so a record copied to the wrong position (or a stale record surviving
// a partial truncate) cannot masquerade as valid.
func recCRC(seq uint64, b []byte) uint32 {
	var sb [8]byte
	binary.LittleEndian.PutUint64(sb[:], seq)
	c := crc32.Update(0, castagnoli, sb[:])
	return crc32.Update(c, castagnoli, b)
}

// EncodedSize returns the on-disk size of a record holding n operations.
func EncodedSize(n int) int { return recHeaderSize + n*recOpSize + recTrailerLen }

// EncodeRecord appends one journal record holding ops to dst and
// returns the extended slice. len(ops) must be in [1, MaxRecordOps].
func EncodeRecord(dst []byte, seq uint64, ops []core.BatchOp) ([]byte, error) {
	if len(ops) == 0 || len(ops) > MaxRecordOps {
		return dst, fmt.Errorf("wbuf: record op count %d out of range [1,%d]", len(ops), MaxRecordOps)
	}
	start := len(dst)
	var hdr [recHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], journalMagic)
	binary.LittleEndian.PutUint64(hdr[4:], seq)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(ops)))
	dst = append(dst, hdr[:]...)
	var ob [recOpSize]byte
	for _, op := range ops {
		ob[0] = 0
		if op.Delete {
			ob[0] = 1
		}
		binary.LittleEndian.PutUint64(ob[1:], uint64(op.P.X))
		binary.LittleEndian.PutUint64(ob[9:], uint64(op.P.Y))
		dst = append(dst, ob[:]...)
	}
	crc := recCRC(seq, dst[start:])
	var tb [recTrailerLen]byte
	binary.LittleEndian.PutUint32(tb[:], crc)
	return append(dst, tb[:]...), nil
}

// DecodeRecord decodes one record from the front of b, returning its
// sequence number, operations, and total encoded length. Any structural
// problem — short buffer, bad magic, out-of-range count, checksum
// mismatch — returns an error wrapping ErrJournalCorrupt; the caller
// treats it as the torn tail of the journal.
func DecodeRecord(b []byte) (seq uint64, ops []core.BatchOp, n int, err error) {
	if len(b) < recHeaderSize+recOpSize+recTrailerLen {
		return 0, nil, 0, fmt.Errorf("%w: %d bytes, need at least %d",
			ErrJournalCorrupt, len(b), recHeaderSize+recOpSize+recTrailerLen)
	}
	if m := binary.LittleEndian.Uint32(b[0:]); m != journalMagic {
		return 0, nil, 0, fmt.Errorf("%w: bad magic %#x", ErrJournalCorrupt, m)
	}
	seq = binary.LittleEndian.Uint64(b[4:])
	count := binary.LittleEndian.Uint32(b[12:])
	if count == 0 || count > MaxRecordOps {
		return 0, nil, 0, fmt.Errorf("%w: op count %d out of range", ErrJournalCorrupt, count)
	}
	n = recHeaderSize + int(count)*recOpSize + recTrailerLen
	if len(b) < n {
		return 0, nil, 0, fmt.Errorf("%w: truncated record (%d of %d bytes)", ErrJournalCorrupt, len(b), n)
	}
	body := n - recTrailerLen
	want := binary.LittleEndian.Uint32(b[body:])
	if got := recCRC(seq, b[:body]); got != want {
		return 0, nil, 0, fmt.Errorf("%w: checksum %#x, want %#x", ErrJournalCorrupt, got, want)
	}
	ops = make([]core.BatchOp, count)
	for i := range ops {
		off := recHeaderSize + i*recOpSize
		if b[off] > 1 {
			return 0, nil, 0, fmt.Errorf("%w: unknown op kind %d", ErrJournalCorrupt, b[off])
		}
		ops[i] = core.BatchOp{
			Delete: b[off] == 1,
			P: geom.Point{
				X: int64(binary.LittleEndian.Uint64(b[off+1:])),
				Y: int64(binary.LittleEndian.Uint64(b[off+9:])),
			},
		}
	}
	return seq, ops, n, nil
}

// ScanJournal decodes every valid record from raw in order. It returns
// the concatenated operations, the byte length of the valid prefix, and
// the sequence number of the last valid record. Decoding stops — without
// error — at the first corrupt or torn record; sequence regressions
// (seq not strictly increasing) also terminate the scan, since they can
// only come from stale bytes beyond a partial truncate.
func ScanJournal(raw []byte) (ops []core.BatchOp, validLen int64, lastSeq uint64) {
	for int(validLen) < len(raw) {
		seq, recOps, n, err := DecodeRecord(raw[validLen:])
		if err != nil || seq <= lastSeq {
			break
		}
		ops = append(ops, recOps...)
		validLen += int64(n)
		lastSeq = seq
	}
	return ops, validLen, lastSeq
}

// Journal is the append-only sidecar log of buffered-but-unflushed
// operations. Appends stage encoded records in memory under the
// staging lock; Sync is a group commit — the first caller to need
// durability becomes the leader, writes every staged byte, fsyncs once,
// and wakes all waiters whose records that covered. Reset truncates
// the file after a successful flush.
type Journal struct {
	path string
	f    *os.File

	mu     sync.Mutex // guards staged/seq
	staged []byte
	seq    uint64 // last staged record sequence

	syncMu  sync.Mutex // guards synced/syncing/closed, serializes leaders
	syncNow sync.Cond
	syncing bool
	closed  bool
	synced  uint64 // last sequence durably on disk
	syncErr error  // sticky: a journal that failed to sync is dead

	bytes int64 // durable file size

	appends uint64
	syncs   uint64
}

// OpenJournal opens (creating if absent) the journal at path, scans the
// existing contents, truncates any torn tail, and returns the journal
// positioned to append after the valid prefix together with the
// operations the valid prefix holds — the caller replays them through
// its staging logic before accepting new writes.
func OpenJournal(path string) (*Journal, []core.BatchOp, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wbuf: open journal: %w", err)
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wbuf: read journal: %w", err)
	}
	ops, validLen, lastSeq := ScanJournal(raw)
	if int(validLen) != len(raw) {
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wbuf: truncate torn journal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wbuf: sync truncated journal: %w", err)
		}
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wbuf: seek journal: %w", err)
	}
	j := &Journal{path: path, f: f, seq: lastSeq, synced: lastSeq, bytes: validLen}
	j.syncNow.L = &j.syncMu
	return j, ops, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Append stages one record holding ops and returns its sequence number
// to pass to Sync. The record is NOT durable until Sync(seq) returns.
func (j *Journal) Append(ops []core.BatchOp) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	var err error
	j.staged, err = EncodeRecord(j.staged, j.seq, ops)
	if err != nil {
		j.seq--
		return 0, err
	}
	j.appends++
	return j.seq, nil
}

// Sync makes every record up to seq durable. Concurrent callers group-
// commit: one leader writes and fsyncs all staged bytes, covering every
// waiter staged before it grabbed the buffer.
func (j *Journal) Sync(seq uint64) error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	for {
		if j.syncErr != nil {
			return j.syncErr
		}
		if j.synced >= seq {
			return nil
		}
		if j.syncing {
			j.syncNow.Wait()
			continue
		}
		// Become the leader: take everything staged right now.
		j.mu.Lock()
		buf, upTo := j.staged, j.seq
		j.staged = nil
		j.mu.Unlock()
		j.syncing = true
		j.syncMu.Unlock()

		var err error
		if len(buf) > 0 {
			if _, err = j.f.Write(buf); err == nil {
				err = j.f.Sync()
			}
		}

		j.syncMu.Lock()
		j.syncing = false
		if err != nil {
			j.syncErr = fmt.Errorf("wbuf: journal sync: %w", err)
		} else {
			j.synced = upTo
			j.bytes += int64(len(buf))
			j.syncs++
		}
		j.syncNow.Broadcast()
	}
}

// Reset empties the journal after a successful flush: every staged or
// durable record is superseded by the flushed base state. It waits out
// any in-flight leader write, truncates the file, and marks everything
// staged as synced so pending Sync callers return immediately.
func (j *Journal) Reset() error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	for j.syncing {
		j.syncNow.Wait()
	}
	if j.syncErr != nil {
		return j.syncErr
	}
	j.mu.Lock()
	j.staged = nil
	upTo := j.seq
	j.mu.Unlock()
	if err := j.f.Truncate(0); err != nil {
		j.syncErr = fmt.Errorf("wbuf: journal reset: %w", err)
		return j.syncErr
	}
	if err := j.f.Sync(); err != nil {
		j.syncErr = fmt.Errorf("wbuf: journal reset sync: %w", err)
		return j.syncErr
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		j.syncErr = fmt.Errorf("wbuf: journal reset seek: %w", err)
		return j.syncErr
	}
	j.synced = upTo
	j.bytes = 0
	j.syncNow.Broadcast()
	return nil
}

// Bytes returns the durable journal size in bytes.
func (j *Journal) Bytes() int64 {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	return j.bytes
}

// Counters returns lifetime append and fsync counts.
func (j *Journal) Counters() (appends, syncs uint64) {
	j.mu.Lock()
	appends = j.appends
	j.mu.Unlock()
	j.syncMu.Lock()
	syncs = j.syncs
	j.syncMu.Unlock()
	return appends, syncs
}

// Close closes the journal file. It does not remove it: an unflushed
// journal must survive for the next open to replay. Close is
// idempotent.
func (j *Journal) Close() error {
	j.syncMu.Lock()
	for j.syncing {
		j.syncNow.Wait()
	}
	if j.closed {
		j.syncMu.Unlock()
		return nil
	}
	j.closed = true
	j.syncMu.Unlock()
	return j.f.Close()
}

// Remove deletes the journal file (after Destroy of the base).
func (j *Journal) Remove() error {
	if err := os.Remove(j.path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
